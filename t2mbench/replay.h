// Traced replay: re-runs the learner's CEGIS loop from outside, through each
// layer's public functions and in the order ModelLearner calls them, timing
// every call and reading the solver's counters. No span inside the program
// is involved; the benchmark's own timers bracket each layer call.
#ifndef T2MBENCH_REPLAY_H
#define T2MBENCH_REPLAY_H

#include <cstdint>

#include "src/sat/solver.h"
#include "workloads.h"

namespace t2mbench {

/// Per-layer time and work of one or more replayed learns.
struct LayerStats {
  // ingest (src/trace, src/parallel)
  double ingest_s = 0.0;
  std::uint64_t ingest_events = 0;
  std::uint64_t ingest_shards = 0;
  // abstraction (src/abstraction, src/synth, src/expr)
  double abstraction_s = 0.0;
  std::uint64_t abstraction_steps = 0;
  std::uint64_t abstraction_preds = 0;
  // segmentation (core/segmentation)
  double segmentation_s = 0.0;
  std::uint64_t segmentation_segments = 0;
  std::uint64_t segmentation_transitions = 0;
  // compliance (core/compliance)
  double compliance_build_s = 0.0;
  double compliance_check_s = 0.0;
  std::uint64_t compliance_checks = 0;
  std::uint64_t compliance_invalid_words = 0;
  // encode (core/csp_encoder): construction, forbidden words, grows,
  // reseeding and model blocking
  double encode_s = 0.0;
  std::uint64_t encode_builds = 0;
  std::uint64_t encode_grows = 0;
  std::uint64_t encode_clauses = 0;  ///< problem clauses the encode calls added
  std::uint64_t encode_vars = 0;     ///< variables the encode calls added
  // sat (src/sat): solve() includes preprocessing on a CSP's first solve
  double solve_s = 0.0;
  std::uint64_t solve_calls = 0;
  std::uint64_t solve_unsat_calls = 0;
  t2m::sat::SolverStats sat;  ///< summed over every CSP, peak arena as max
  // automaton (src/automaton)
  double extract_s = 0.0;
  double acceptance_s = 0.0;
  std::uint64_t acceptance_blocks = 0;
  // learner (core/learner)
  std::uint64_t refinements = 0;
  std::uint64_t state_increments = 0;
  std::uint64_t sat_candidates = 0;   ///< Sat verdicts, each a candidate model
  std::uint64_t accepted_models = 0;  ///< candidates returned as the verdict

  /// Sum of every layer's time.
  double layer_seconds() const {
    return ingest_s + abstraction_s + segmentation_s + compliance_build_s +
           compliance_check_s + encode_s + solve_s + extract_s + acceptance_s;
  }
};

/// What the replayed loop concluded, compared with the learner's verdict.
struct ReplayOutcome {
  bool success = false;
  std::size_t states = 0;
  std::uint64_t conflicts = 0;
};

/// Replays the learn of `instance` and adds its per-layer numbers into
/// `layers`. Supports the single-configuration paths the workloads use
/// (no portfolio; ftrace input only through the sharded ingest, threads > 1).
ReplayOutcome replay_instance(const Instance& instance, LayerStats& layers);

}  // namespace t2mbench

#endif  // T2MBENCH_REPLAY_H
