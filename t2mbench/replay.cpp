#include "replay.h"

#include <memory>
#include <set>
#include <stdexcept>

#include "src/abstraction/abstraction.h"
#include "src/core/compliance.h"
#include "src/core/csp_encoder.h"
#include "src/core/segmentation.h"
#include "src/parallel/sharded_ingest.h"
#include "src/util/stopwatch.h"

namespace t2mbench {

namespace {

using t2m::PredId;

/// Adds the lifetime of a scope to one layer's time.
class Timed {
public:
  explicit Timed(double& seconds) : seconds_(seconds) {}
  ~Timed() { seconds_ += watch_.elapsed_seconds(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

private:
  double& seconds_;
  t2m::Stopwatch watch_;
};

std::uint64_t grown_by(std::size_t after, std::size_t before) {
  return after > before ? after - before : 0;
}

/// What the CEGIS loop runs on, produced as ModelLearner produces it.
struct Artefacts {
  t2m::PredicateSequence preds;
  std::vector<t2m::Segment> segments;
  t2m::ComplianceChecker compliance{std::vector<PredId>{}, 0};
};

/// ModelLearner::learn: abstract_trace, then learn_from_sequence's
/// segmentation and P_l construction.
Artefacts prepare_trace(const Instance& instance, LayerStats& layers) {
  const t2m::LearnerConfig& config = instance.config;
  {
    // In-memory input: there is nothing to ingest; the bracket costs only
    // its two clock reads.
    const Timed t(layers.ingest_s);
  }
  Artefacts a;
  t2m::AbstractionConfig abs_config = config.abstraction;
  abs_config.window = config.window;
  {
    const Timed t(layers.abstraction_s);
    a.preds = t2m::abstract_trace(instance.trace, abs_config, t2m::AbstractionMode::Auto);
  }
  {
    const Timed t(layers.segmentation_s);
    a.segments = config.segmented ? t2m::segment_sequence(a.preds.seq, config.window)
                                  : t2m::whole_sequence(a.preds.seq);
  }
  {
    const Timed t(layers.compliance_build_s);
    a.compliance = t2m::ComplianceChecker(a.preds.seq, config.compliance_length);
    a.compliance.set_threads(config.threads);
  }
  return a;
}

/// ModelLearner::learn_from_ftrace on its sharded path: one ingest pass
/// interns the predicates and builds the segments and P_l.
Artefacts prepare_ftrace(const Instance& instance, LayerStats& layers) {
  const t2m::LearnerConfig& config = instance.config;
  if (config.threads <= 1) {
    throw std::invalid_argument("replay: ftrace input needs the sharded path (threads > 1)");
  }
  t2m::par::ShardedIngestOptions options;
  options.window = config.window;
  options.compliance_length = config.compliance_length;
  options.threads = config.threads;
  options.segmented = config.segmented;
  options.keep_sequence = config.require_trace_acceptance || !config.segmented;
  t2m::par::ShardedIngestResult ingest;
  {
    const Timed t(layers.ingest_s);
    ingest = t2m::par::sharded_ftrace_ingest_file(instance.ftrace_path, options);
  }
  layers.ingest_events += ingest.sequence_length;
  layers.ingest_shards += ingest.shards_used;
  {
    // The ingest pass interned the predicates; no separate abstraction call.
    const Timed t(layers.abstraction_s);
  }
  Artefacts a;
  {
    const Timed t(layers.segmentation_s);
    a.segments = config.segmented ? std::move(ingest.segments)
                                  : t2m::whole_sequence(ingest.preds.seq);
  }
  {
    const Timed t(layers.compliance_build_s);
    a.compliance = std::move(ingest.compliance);
    a.compliance.set_threads(config.threads);
  }
  a.preds = std::move(ingest.preds);
  return a;
}

}  // namespace

ReplayOutcome replay_instance(const Instance& instance, LayerStats& layers) {
  const t2m::LearnerConfig& config = instance.config;
  if (config.portfolio > 1) throw std::invalid_argument("replay: portfolio runs are not replayed");
  Artefacts a = instance.ftrace_path.empty() ? prepare_trace(instance, layers)
                                             : prepare_ftrace(instance, layers);
  const std::vector<PredId>& seq = a.preds.seq;
  layers.abstraction_steps += instance.ftrace_path.empty() ? seq.size() : layers.ingest_events;
  layers.abstraction_preds += a.preds.vocab.size();
  layers.segmentation_segments += a.segments.size();
  layers.segmentation_transitions += t2m::total_transitions(a.segments);

  // From here on the loop mirrors ModelLearner::run_search_single.
  const bool check_acceptance = config.require_trace_acceptance && !seq.empty();
  std::set<std::vector<PredId>> forbidden;
  t2m::ForbiddenChainCache chain_cache;
  std::unique_ptr<t2m::AutomatonCsp> csp;
  ReplayOutcome outcome;

  const auto retire = [&](const t2m::AutomatonCsp& retired) {
    layers.sat += retired.solver_stats();
    outcome.conflicts += retired.solver_stats().conflicts;
  };
  // Times an encode call on the live CSP and counts what it emitted.
  const auto encode_step = [&](const auto& call) {
    const std::size_t clauses = csp->num_clauses();
    const std::size_t vars = csp->num_vars();
    {
      const Timed t(layers.encode_s);
      call();
    }
    layers.encode_clauses += grown_by(csp->num_clauses(), clauses);
    layers.encode_vars += grown_by(csp->num_vars(), vars);
  };
  const auto build_csp = [&](std::size_t n) {
    std::unique_ptr<t2m::AutomatonCsp> old = std::move(csp);
    if (old) retire(*old);
    t2m::CspOptions options;
    options.encoding = config.encoding;
    options.solver = config.solver;
    options.threads = config.threads;
    options.compress_forbidden = config.compress_forbidden;
    options.preprocess = config.preprocess;
    if (config.max_clauses > 0) options.max_clauses = config.max_clauses;
    options.state_capacity =
        config.persistent_solver ? std::min(config.max_states, n + config.state_headroom) : 0;
    {
      const Timed t(layers.encode_s);
      csp = std::make_unique<t2m::AutomatonCsp>(a.segments, a.preds.vocab.size(), n, options);
      csp->set_chain_cache(&chain_cache);
      for (const auto& word : forbidden) csp->add_forbidden_sequence(word);
      if (old && config.persistent_solver && !csp->overflowed()) csp->reseed_from(*old);
    }
    layers.encode_clauses += csp->num_clauses();
    layers.encode_vars += csp->num_vars();
    ++layers.encode_builds;
  };
  const auto finish = [&](bool success, std::size_t states) {
    if (csp) retire(*csp);
    outcome.success = success;
    outcome.states = states;
    return outcome;
  };

  for (std::size_t n = config.initial_states; n <= config.max_states; ++n) {
    bool grown = false;
    if (csp && config.persistent_solver) encode_step([&] { grown = csp->grow_to(n); });
    if (grown) {
      ++layers.encode_grows;
    } else {
      build_csp(n);
    }

    bool next_n = false;
    std::size_t acceptance_blocks = 0;
    while (!next_n) {
      t2m::sat::SolveResult verdict;
      {
        const Timed t(layers.solve_s);
        verdict = csp->solve();
      }
      ++layers.solve_calls;
      if (verdict == t2m::sat::SolveResult::Unknown) return finish(false, 0);
      if (verdict == t2m::sat::SolveResult::Unsat) {
        ++layers.solve_unsat_calls;
        if (config.core_driven_stop && csp->unsat_for_all_states()) return finish(false, 0);
        ++layers.state_increments;
        next_n = true;
        continue;
      }
      ++layers.sat_candidates;
      t2m::Nfa candidate;
      {
        const Timed t(layers.extract_s);
        candidate = csp->extract_model();
      }
      t2m::ComplianceResult compliance;
      {
        const Timed t(layers.compliance_check_s);
        compliance = a.compliance.check(candidate);
      }
      ++layers.compliance_checks;
      layers.compliance_invalid_words += compliance.invalid_sequences.size();
      bool acceptance_blocked = false;
      {
        const Timed t(layers.acceptance_s);
        if (compliance.compliant && check_acceptance &&
            acceptance_blocks < config.max_acceptance_blocks) {
          acceptance_blocked = !candidate.accepts(seq);
        }
      }
      if (acceptance_blocked) {
        ++layers.refinements;
        ++layers.acceptance_blocks;
        ++acceptance_blocks;
        encode_step([&] { csp->block_current_model(); });
        continue;
      }
      if (compliance.compliant) {
        ++layers.accepted_models;
        return finish(true, n);
      }
      ++layers.refinements;
      encode_step([&] {
        for (const auto& word : compliance.invalid_sequences) {
          if (forbidden.insert(word).second) csp->add_forbidden_sequence(word);
        }
      });
    }
  }
  return finish(false, 0);
}

}  // namespace t2mbench
