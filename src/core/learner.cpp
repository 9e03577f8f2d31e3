#include "src/core/learner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "src/abstraction/event_stream.h"
#include "src/base/memory_accountant.h"
#include "src/core/portfolio.h"
#include "src/core/report.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/parallel/sharded_ingest.h"
#include "src/parallel/thread_pool.h"
#include "src/trace/mmap_io.h"
#include "src/util/failpoint.h"
#include "src/util/log.h"

namespace t2m {

namespace {

/// Applies LearnerConfig::max_memory_bytes to the global accountant for the
/// duration of one public learn call, restoring the previous cap on exit.
class ScopedMemoryLimit {
public:
  explicit ScopedMemoryLimit(std::size_t limit)
      : prev_(MemoryAccountant::global().limit()) {
    if (limit > 0) MemoryAccountant::global().set_limit(limit);
  }
  ~ScopedMemoryLimit() { MemoryAccountant::global().set_limit(prev_); }
  ScopedMemoryLimit(const ScopedMemoryLimit&) = delete;
  ScopedMemoryLimit& operator=(const ScopedMemoryLimit&) = delete;

private:
  std::size_t prev_;
};

/// Folds a structured failure into the verdict the public entry points
/// return instead of unwinding.
LearnResult failure_result(Status status) {
  LearnResult result;
  log_warn() << "learner: run failed: " << status.to_string();
  result.status = std::move(status);
  return result;
}

/// The shell every public entry point runs its body in: applies the memory
/// cap for the call, starts the run's total stopwatch, and turns a
/// structured failure, an allocation failure or a rejected input into the
/// returned verdict.
template <typename Body>
LearnResult guarded_learn(const LearnerConfig& config, const Body& body) {
  const ScopedMemoryLimit mem_limit(config.max_memory_bytes);
  const Stopwatch total;
  try {
    return body(total);
  } catch (const StatusError& e) {
    return failure_result(e.status());
  } catch (const std::bad_alloc&) {
    return failure_result(Status::ResourceExhausted("allocation failed during learn"));
  } catch (const std::invalid_argument& e) {
    // Malformed input or configuration: a trace too short to abstract, a
    // zero window.
    return failure_result(Status::ParseError(e.what()));
  }
}

/// A fresh budget for one phase of the run: the full timeout from now, plus
/// the caller's stop flag.
RunBudget phase_budget(const LearnerConfig& config) {
  return RunBudget(config.timeout_seconds > 0 ? Deadline::after_seconds(config.timeout_seconds)
                                              : Deadline::never(),
                   config.stop);
}

/// The ingest pass's options for a learn under `config`. The pass gets its
/// own full-timeout budget so a pathological scan or merge cannot hang past
/// the configured budget; the search budget still starts after it.
par::ShardedIngestOptions ingest_options(const LearnerConfig& config) {
  par::ShardedIngestOptions options;
  options.window = config.window;
  options.compliance_length = config.compliance_length;
  options.threads = config.threads;
  options.segmented = config.segmented;
  // Trace acceptance and the non-segmented encoding read the whole
  // sequence; every other run keeps only the windows.
  options.keep_sequence = config.require_trace_acceptance || !config.segmented;
  options.budget = phase_budget(config);
  return options;
}

}  // namespace

LearnStats& LearnStats::operator+=(const LearnStats& other) {
  for_each_field([&](const char*, auto field, auto rule) {
    auto& into = this->*field;
    const auto from = other.*field;
    if constexpr (std::is_same_v<decltype(rule), stats_merge::sum>) {
      into += from;
    } else if constexpr (std::is_same_v<decltype(rule), stats_merge::max>) {
      into = std::max(into, from);
    } else {
      into = into || from;
    }
  });
  return *this;
}

ModelLearner::ModelLearner(LearnerConfig config) : config_(std::move(config)) {}

LearnResult ModelLearner::learn(const Trace& trace, AbstractionMode mode) const {
  return guarded_learn(config_, [&](const Stopwatch& total) {
    AbstractionConfig abs_config = config_.abstraction;
    abs_config.window = config_.window;
    VectorPredStream stream(abstract_trace(trace, abs_config, mode), trace.schema());
    return run_search(par::ingest_stream(stream, ingest_options(config_)), total);
  });
}

LearnResult ModelLearner::learn_from_sequence(PredicateSequence preds,
                                              const Schema& schema) const {
  return guarded_learn(config_, [&](const Stopwatch& total) {
    VectorPredStream stream(std::move(preds), schema);
    return run_search(par::ingest_stream(stream, ingest_options(config_)), total);
  });
}

LearnResult ModelLearner::learn_from_stream(PredStream& stream) const {
  return guarded_learn(config_, [&](const Stopwatch& total) {
    return run_search(par::ingest_stream(stream, ingest_options(config_)), total);
  });
}

LearnResult ModelLearner::learn_from_ftrace(const std::string& path,
                                            const std::string& task_filter) const {
  return guarded_learn(config_, [&](const Stopwatch& total) {
    par::ShardedIngestOptions options = ingest_options(config_);
    options.task_filter = task_filter;
    if (config_.threads <= 1) {
      LineReader lines(path);
      FtracePredStream stream(lines, task_filter);
      return run_search(par::ingest_stream(stream, options), total);
    }
    return run_search(par::sharded_ftrace_ingest_file(path, options), total);
  });
}

LearnResult ModelLearner::run_search(par::ShardedIngestResult ingest,
                                     const Stopwatch& total) const {
  // Everything before the search — abstraction and the ingest pass — is the
  // run's preparation, reported as abstraction_seconds.
  const double prep_seconds = total.elapsed_seconds();
  log_debug() << "learner: ingest over " << ingest.shards_used << " shard(s), "
              << ingest.sequence_length << " steps";
  ingest.compliance.set_threads(config_.threads);
  // The timeout budgets the CEGIS search: its clock starts here, after
  // ingest, segmentation and P_l construction, so every entry point gives
  // the search the same budget on the same trace.
  const RunBudget budget = phase_budget(config_);
  // The search is the phase worth watching: arm the progress counters (when
  // enabled) against this run's deadline and publish the final counters into
  // the metrics registry on every exit path.
  if (obs::Progress::global().enabled()) obs::Progress::global().begin_run(budget.deadline());
  T2M_SPAN_SCOPE(run_span, "learn.run", "segments", ingest.segments.size(), "portfolio",
                 config_.portfolio);
  LearnResult result =
      config_.portfolio > 1
          ? run_portfolio(ingest.preds, ingest.sequence_length, ingest.segments,
                          ingest.compliance, ingest.schema, budget, total)
          : run_search_single(std::move(ingest.preds), ingest.sequence_length,
                              ingest.segments, ingest.compliance, ingest.schema, budget,
                              total);
  result.stats.abstraction_seconds = prep_seconds;
  result.stats.total_seconds = total.elapsed_seconds();
  run_span.arg("success", result.success);
  run_span.arg("states", result.states);
  publish_learn_metrics(result);
  return result;
}

LearnResult ModelLearner::run_portfolio(const PredicateSequence& preds,
                                        std::size_t sequence_length,
                                        const std::vector<Segment>& segments,
                                        const ComplianceChecker& compliance_checker,
                                        const Schema& schema, const RunBudget& budget,
                                        const Stopwatch& total) const {
  const std::vector<PortfolioVariant> variants =
      portfolio_configs(config_, config_.portfolio);
  const std::size_t k = variants.size();

  // The race: every worker runs the full CEGIS loop over the shared
  // read-only artefacts with its own solver configuration. (Each lane still
  // copies `preds` — run_search_single materialises its own result from it
  // — a bounded K * O(|P|) cost only paid when the sequence is retained.)
  // The first genuine verdict wins and raises the race flag; every lane's
  // budget reads it next to the caller's stop flag and the clock, and
  // Solver::solve polls the flags at every conflict, so the losers unwind
  // quickly — and a caller's cancellation reaches every lane directly.
  std::atomic<bool> race_stop{false};
  const RunBudget lane_budget = budget.with_race(&race_stop);
  std::atomic<int> winner{-1};
  std::vector<LearnResult> results(k);
  std::vector<double> walls(k, 0.0);

  par::ThreadPool& pool = par::ThreadPool::global();
  pool.ensure_size(std::min(k, par::ThreadPool::kMaxWorkers));
  std::vector<Status> lane_errors(k);  // non-ok when the lane body threw
  par::TaskGroup group(pool);
  for (std::size_t i = 0; i < k; ++i) {
    group.run([&, i] {
      const Stopwatch wall;
      // Lane fault isolation: an error unwinding one lane (including an
      // injected one) records a per-lane Status and leaves the race — it
      // must not take down the siblings or the process. A failed lane is
      // never crowned; the winner CAS below stays single-shot.
      try {
        T2M_INJECT_STATUS("portfolio.lane", ErrorCode::internal,
                          "injected portfolio lane failure");
        // Every span this lane emits (solver epochs, compliance, encoding)
        // lands on its own named track, so the Perfetto view shows one
        // contiguous timeline per configuration even though lanes share
        // pool workers.
        const obs::TrackScope lane_track("lane " + variants[i].name);
        T2M_SPAN_SCOPE(lane_span, "portfolio.lane", "lane", variants[i].name);
        const ModelLearner worker(variants[i].config);
        LearnResult r = worker.run_search_single(preds, sequence_length, segments,
                                                 compliance_checker, schema, lane_budget,
                                                 total);
        // A verdict was reached only if nothing cut the lane short; a
        // timed-out, budget-overflowed or memory-starved lane must not be
        // crowned (another configuration may still fit).
        if (!cut_short(r.status.code())) {
          int expected = -1;
          // order: seq_cst (default) — a cold, single-shot crowning; the
          // strongest order keeps the winner index and the stop raise below
          // trivially ordered for every observer, and costs nothing here.
          if (winner.compare_exchange_strong(expected, static_cast<int>(i))) {
            // order: release — signal only; results[i] is published to the
            // coordinator by the TaskGroup join, not by this flag.
            race_stop.store(true, std::memory_order_release);
            T2M_INSTANT("portfolio.winner");
          }
        }
        const bool cancelled = r.status.code() == ErrorCode::cancelled;
        lane_span.arg("cancelled", cancelled);
        lane_span.arg("success", r.success);
        if (cancelled) T2M_INSTANT("portfolio.cancelled");
        results[i] = std::move(r);
      } catch (const StatusError& e) {
        lane_errors[i] = e.status();
      } catch (const std::exception& e) {
        lane_errors[i] = Status::Internal(std::string("portfolio lane failed: ") + e.what());
      } catch (...) {
        lane_errors[i] = Status::Internal("portfolio lane failed with an unknown exception");
      }
      if (!lane_errors[i].ok()) {
        log_warn() << "learner: portfolio lane '" << variants[i].name
                   << "' failed: " << lane_errors[i].to_string();
      }
      walls[i] = wall.elapsed_seconds();
    });
  }
  group.wait();  // surfaces any lane exception

  // No genuine verdict (outer stop or deadline cancelled every lane):
  // report the first healthy lane that at least ran to its own cutoff
  // uncancelled — a salvaged partial model beats an empty result.
  std::size_t won = 0;
  bool found_fallback = false;
  if (winner.load() >= 0) {
    won = static_cast<std::size_t>(winner.load());
    found_fallback = true;
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      if (results[i].status.code() != ErrorCode::cancelled && lane_errors[i].ok()) {
        won = i;
        found_fallback = true;
        break;
      }
    }
    // Every lane was cancelled or died: fall back to any healthy lane, then
    // to lane 0 (whose error is surfaced in the result's status below).
    if (!found_fallback) {
      for (std::size_t i = 0; i < k; ++i) {
        if (lane_errors[i].ok()) {
          won = i;
          found_fallback = true;
          break;
        }
      }
    }
  }
  const bool have_verdict = winner.load() >= 0;

  // Per-configuration breakdown from each worker's own numbers, snapshotted
  // before any aggregation.
  std::vector<PortfolioConfigStats> entries(k);
  for (std::size_t i = 0; i < k; ++i) {
    PortfolioConfigStats& e = entries[i];
    e.name = variants[i].name;
    e.winner = have_verdict && i == won;
    e.status = lane_errors[i].ok() ? results[i].status : lane_errors[i];
    e.states = results[i].states;
    e.sat_calls = results[i].stats.sat_calls;
    e.sat_conflicts = results[i].stats.sat_conflicts;
    e.sat_propagations = results[i].stats.sat_propagations;
    e.wall_seconds = walls[i];
  }

  LearnResult result = std::move(results[won]);
  if (!found_fallback) {
    // Every lane died: the race as a whole failed. Surface the first lane's
    // error as the run's status — still a returned verdict, not a throw.
    result.status = lane_errors[won];
  }
  // Aggregate the losers' counters into the headline stats — the honest
  // total-work number for the race.
  for (std::size_t i = 0; i < k; ++i) {
    if (i != won) result.stats += results[i].stats;
  }
  result.stats.portfolio = std::move(entries);
  if (have_verdict) {
    log_info() << "learner: portfolio winner '" << variants[won].name << "' of " << k
               << " configurations";
  } else {
    log_info() << "learner: portfolio race ended with no verdict ("
               << result.status.to_string() << ")";
  }
  return result;
}

LearnResult ModelLearner::run_search_single(PredicateSequence preds,
                                            std::size_t sequence_length,
                                            const std::vector<Segment>& segments,
                                            const ComplianceChecker& compliance_checker,
                                            const Schema& schema, const RunBudget& budget,
                                            const Stopwatch& total) const {
  LearnResult result;
  result.schema = schema;
  result.stats.sequence_length = sequence_length;
  result.stats.vocabulary_size = preds.vocab.size();
  result.stats.segments = segments.size();
  result.stats.encoded_transitions = total_transitions(segments);

  // Trace acceptance needs the materialised sequence; the streaming path
  // omits it exactly when the configuration never consults it.
  const bool check_acceptance = config_.require_trace_acceptance && !preds.seq.empty();

  // Forbidden sequences accumulate across N: they are facts about P. Their
  // chain enumeration is N-independent, so one cache serves every CSP this
  // run constructs (see ForbiddenChainCache).
  std::set<std::vector<PredId>> forbidden;
  ForbiddenChainCache chain_cache;

  // Fold a finished CSP's solver counters into the run totals. In the
  // persistent path one CSP spans many state counts, so this runs only when
  // a CSP is retired (capacity rebuild) or the run returns — never twice for
  // the same instance.
  const auto absorb_solver_stats = [&result, &forbidden](const AutomatonCsp& csp) {
    const sat::SolverStats& s = csp.solver_stats();
    result.stats.sat_conflicts += s.conflicts;
    result.stats.sat_propagations += s.propagations;
    result.stats.sat_learned_clauses += s.learned_clauses;
    if (s.peak_arena_bytes > result.stats.sat_peak_arena_bytes) {
      result.stats.sat_peak_arena_bytes = s.peak_arena_bytes;
    }
    result.stats.forbidden_words = forbidden.size();
  };

  // Best-so-far salvage: the last candidate that passed compliance but was
  // blocked by the trace-acceptance strengthening. A run cut short by the
  // deadline, the clause budget, or the memory cap hands this model back
  // (LearnResult::salvaged) instead of returning nothing — it is compliant
  // for the window length it was checked at, just not a full verdict.
  std::optional<Nfa> best_model;
  std::size_t best_states = 0;
  const auto salvage = [&] {
    if (!best_model) return;
    best_model->set_pred_names(preds.names_for(schema));
    result.model = std::move(*best_model);
    result.states = best_states;
    best_model.reset();
    log_info() << "learner: salvaged the best " << result.states
               << "-state model from the aborted run";
  };

  const Stopwatch construction_watch;
  std::unique_ptr<AutomatonCsp> csp;
  // (Re)builds the CSP at state count n. Persistent mode allocates headroom
  // columns beyond n so subsequent increments are in-place grows; the shared
  // chain cache keeps re-adding the accumulated forbidden words cheap, and
  // the retired CSP's width-independent learned clauses are carried over
  // (reseed_from) before it is dropped.
  const auto build_csp = [&](std::size_t n) {
    std::unique_ptr<AutomatonCsp> old = std::move(csp);
    if (old) absorb_solver_stats(*old);
    CspOptions options;
    options.encoding = config_.encoding;
    options.solver = config_.solver;
    options.threads = config_.threads;
    options.compress_forbidden = config_.compress_forbidden;
    options.preprocess = config_.preprocess;
    options.budget = budget;
    if (config_.max_clauses > 0) options.max_clauses = config_.max_clauses;
    options.state_capacity =
        config_.persistent_solver
            ? std::min(config_.max_states, n + config_.state_headroom)
            : 0;
    {
      T2M_SPAN("learn.build_csp", "n", n);
      csp = std::make_unique<AutomatonCsp>(segments, preds.vocab.size(), n, options);
    }
    csp->set_chain_cache(&chain_cache);
    // Forbidden words before reseeding: the import needs the new CSP's
    // equality/star variable layout in place to rename against.
    for (const auto& word : forbidden) csp->add_forbidden_sequence(word);
    if (old && config_.persistent_solver && !csp->overflowed()) {
      result.stats.reseeded_clauses += csp->reseed_from(*old);
    }
    ++result.stats.csp_builds;
  };

  // Ends the run with `status`, the one exit of the search. A cut-short run
  // salvages the best model so far — except a cancelled one: it lost a
  // portfolio race where another lane owns the verdict, so it hands back
  // nothing.
  const auto finish = [&](Status status) {
    if (csp) absorb_solver_stats(*csp);
    if (cut_short(status.code()) && status.code() != ErrorCode::cancelled) salvage();
    result.status = std::move(status);
    result.preds = std::move(preds);
    result.stats.construction_seconds = construction_watch.elapsed_seconds();
    result.stats.total_seconds = total.elapsed_seconds();
    return std::move(result);
  };
  // Why the search stopped between or inside solver calls without a verdict:
  // the budget's reason, the stop flags in preference to the clock.
  constexpr const char* kSearchSite = "the search";

  // A budget stop or allocation pressure anywhere inside the loop — clause
  // emission, the compliance DFS, an arena grow — surfaces as a structured
  // error; both become verdicts (with salvage unless cancelled) rather than
  // unwinding out of the learn. Other taxonomies (io, parse,
  // internal) are not this loop's to own and propagate to the entry points.
  try {
  for (std::size_t n = config_.initial_states; n <= config_.max_states; ++n) {
    obs::Progress::global().set_states(n);
    bool grown = false;
    if (csp && config_.persistent_solver) {
      T2M_SPAN("learn.grow", "n", n);
      grown = csp->grow_to(n);
    }
    if (grown) {
      ++result.stats.csp_grows;
    } else {
      build_csp(n);
    }

    bool next_n = false;
    std::size_t acceptance_blocks = 0;
    while (!next_n) {
      if (budget.should_stop()) return finish(budget.stop_status(kSearchSite));
      ++result.stats.sat_calls;
      obs::Progress::global().add_sat_calls(1);
      sat::SolveResult sat_result;
      {
        T2M_SPAN_SCOPE(solve_span, "learn.solve", "n", n, "call",
                       result.stats.sat_calls);
        sat_result = csp->solve();
        solve_span.arg("result", sat_result == sat::SolveResult::Sat     ? "sat"
                                 : sat_result == sat::SolveResult::Unsat ? "unsat"
                                                                         : "unknown");
      }
      if (sat_result == sat::SolveResult::Unknown) {
        // An overflowed encoding is a verdict about the instance's size at
        // this configuration, not a timeout.
        return finish(csp->overflowed()
                          ? Status(ErrorCode::clause_budget,
                                   "the CSP encoding overran its clause budget")
                          : budget.stop_status(kSearchSite));
      }
      if (sat_result == sat::SolveResult::Unsat) {
        if (config_.core_driven_stop && csp->unsat_for_all_states()) {
          // The assumption core names no inactive-column guard: no state
          // count can satisfy this instance; growing N is provably futile.
          ++result.stats.core_stops;
          log_info() << "learner: Unsat core independent of the state count at N = "
                     << n << "; stopping the search";
          return finish(Status::Ok());
        }
        // No N-state automaton: grow N (Algorithm 1, lines 34-36).
        ++result.stats.state_increments;
        log_debug() << "learner: no " << n << "-state automaton, growing N";
        next_n = true;
        continue;
      }
      // Candidate model: compliance check (lines 38-48).
      Nfa candidate = csp->extract_model();
      const ComplianceResult compliance = compliance_checker.check(candidate, budget);
      bool acceptance_blocked = false;
      if (compliance.compliant && check_acceptance &&
          acceptance_blocks < config_.max_acceptance_blocks) {
        T2M_SPAN("learn.acceptance", "n", n);
        acceptance_blocked = !candidate.accepts(preds.seq);
      }
      if (acceptance_blocked) {
        // Valid per segments and compliance, but this wiring cannot replay
        // the trace; exclude it and look for a sibling model. It is the
        // best model seen so far — keep it for salvage if the run is cut
        // short before a full verdict.
        best_model = std::move(candidate);
        best_states = n;
        ++result.stats.refinements;
        obs::Progress::global().add_refinements(1);
        ++acceptance_blocks;
        if (acceptance_blocks == config_.max_acceptance_blocks) {
          result.stats.acceptance_relaxed = true;
          log_warn() << "learner: acceptance strengthening abandoned after "
                     << acceptance_blocks << " sibling models at N = " << n;
        }
        csp->block_current_model();
        continue;
      }
      if (compliance.compliant) {
        candidate.set_pred_names(preds.names_for(schema));
        result.success = true;
        result.model = std::move(candidate);
        result.states = n;
        log_info() << "learner: " << n << "-state model found after "
                   << result.stats.sat_calls << " SAT calls";
        return finish(Status::Ok());
      }
      ++result.stats.refinements;
      obs::Progress::global().add_refinements(1);
      log_debug() << "learner: compliance failed with "
                  << compliance.invalid_sequences.size() << " invalid sequences";
      for (const auto& word : compliance.invalid_sequences) {
        if (forbidden.insert(word).second) csp->add_forbidden_sequence(word);
      }
    }
  }
  } catch (const StatusError& e) {
    if (!cut_short(e.status().code())) throw;
    if (e.code() == ErrorCode::resource_exhausted) {
      log_warn() << "learner: " << e.status().to_string();
    }
    return finish(e.status());
  } catch (const std::bad_alloc&) {
    return finish(Status::ResourceExhausted("allocation failed during the search"));
  }

  // Exhausted the state budget.
  return finish(Status::Ok());
}

}  // namespace t2m
