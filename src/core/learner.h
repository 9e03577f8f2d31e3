#ifndef T2M_CORE_LEARNER_H
#define T2M_CORE_LEARNER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/pred_stream.h"
#include "src/automaton/nfa.h"
#include "src/base/status.h"
#include "src/core/compliance.h"
#include "src/core/csp_encoder.h"
#include "src/core/segmentation.h"
#include "src/parallel/sharded_ingest.h"
#include "src/trace/trace.h"
#include "src/util/stopwatch.h"

namespace t2m {

/// Configuration of the end-to-end learner (the paper's tunables).
struct LearnerConfig {
  /// Segmentation window w over the predicate sequence (paper: w = 3).
  std::size_t window = 3;
  /// Compliance-check transition-sequence length l (paper: l = 2).
  std::size_t compliance_length = 2;
  /// Starting number of automaton states N (paper: 2; Table I starts at the
  /// known N for a fair segmented/non-segmented comparison).
  std::size_t initial_states = 2;
  /// Give up beyond this many states.
  std::size_t max_states = 64;
  /// Unique-window segmentation on/off (off = feed P as one chain; the
  /// Table I / Fig. 7 baseline).
  bool segmented = true;
  /// Determinism encoding (see csp_encoder.h).
  DeterminismEncoding encoding = DeterminismEncoding::Successor;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double timeout_seconds = 0.0;
  /// Additionally require the model to accept the whole predicate sequence
  /// P from its initial state (our strengthening over Algorithm 1: segment
  /// embedding plus compliance do not by themselves pin down a wiring that
  /// replays the trace; non-accepting candidates are blocked and re-solved).
  bool require_trace_acceptance = true;
  /// Give up on the acceptance strengthening after this many blocked
  /// candidates per N and return the compliant model instead (the space of
  /// sibling models grows steeply when N exceeds the compliance minimum).
  std::size_t max_acceptance_blocks = 256;
  /// Keep ONE SAT solver alive across the whole N-increment loop (guarded
  /// one-hot encoding + per-solve assumptions, see AutomatonCsp): learned
  /// clauses, VSIDS activity and saved phases survive state-count growth,
  /// and segments/forbidden words are encoded once instead of per N. Off =
  /// the fresh-CSP-per-N reference path (differential-tested against).
  bool persistent_solver = true;
  /// Persistent mode: one-hot columns allocated beyond the starting N, so
  /// the first `state_headroom` increments are assumption flips. Growing
  /// past the headroom rebuilds the CSP once with a larger capacity.
  std::size_t state_headroom = 6;
  /// Assumption-core-driven early stop: when a persistent-mode Unsat core
  /// names no inactive-column guard (AutomatonCsp::unsat_for_all_states),
  /// the instance is Unsat for every state count — stop instead of growing
  /// to max_states blindly.
  bool core_driven_stop = true;
  /// Worker threads for the parallel paths: sharded ingest in
  /// learn_from_ftrace and the partitioned compliance check. 1 = fully
  /// sequential (byte-identical results either way; threading only changes
  /// wall clock).
  std::size_t threads = 1;
  /// Portfolio CEGIS: race this many independently configured solvers
  /// (fresh vs persistent, phase/restart/polarity variations — see
  /// portfolio_configs) over the same artefacts and keep the first verdict,
  /// cancelling the rest. 0/1 = single configuration.
  std::size_t portfolio = 0;
  /// Solver search-shape knobs applied to every CSP this learner builds;
  /// the portfolio driver diversifies them per racing worker.
  sat::SolverConfig solver;
  /// Star-compress length-2 forbidden words (CspOptions::compress_forbidden):
  /// shared per-(predicate, side) flag variables instead of the quadratic
  /// per-transition-pair binaries. The lever that keeps unsegmented long
  /// traces inside the clause budget.
  bool compress_forbidden = true;
  /// Run SatELite-style preprocessing (subsumption, self-subsuming
  /// resolution, bounded variable elimination) on each CSP's CNF before its
  /// first solve (CspOptions::preprocess).
  bool preprocess = false;
  /// Clause budget per CSP; 0 keeps the CspOptions default. Overrunning it
  /// ends the learn with ErrorCode::clause_budget.
  std::size_t max_clauses = 0;
  /// Cooperative cancellation (non-owning; may be null): part of every
  /// RunBudget the run polls — between solver calls, at every conflict and
  /// inside ingest, clause emission and the compliance check. A learn
  /// aborted this way returns with ErrorCode::cancelled.
  const std::atomic<bool>* stop = nullptr;
  /// Global memory cap in bytes applied (via MemoryAccountant) for the
  /// duration of each public learn call; 0 = unlimited. Overrunning it ends
  /// the learn with ErrorCode::resource_exhausted — allocation pressure
  /// becomes a verdict, not a crash. The accountant is process-global, so
  /// concurrent learners share the cap.
  std::size_t max_memory_bytes = 0;
  /// Trace-abstraction settings (window is taken from `window`).
  AbstractionConfig abstraction;
};

/// Outcome of one racing configuration of a portfolio learn.
struct PortfolioConfigStats {
  std::string name;
  bool winner = false;
  /// How the lane ended: ok when it reached a verdict, a cut_short() code
  /// when the race's stop flag or a budget ended it, any other code when the
  /// lane died with an error. A crashed lane leaves the race without
  /// touching its siblings — the portfolio survives it.
  Status status;
  std::size_t states = 0;
  std::size_t sat_calls = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_propagations = 0;
  double wall_seconds = 0.0;
};

/// How LearnStats::operator+= folds another run's value of a field into this
/// one, the aggregation sharded and portfolio drivers report instead of one
/// arbitrary worker's numbers. The third column of T2M_LEARN_STATS_FIELDS.
namespace stats_merge {
struct sum {};  ///< work counters: the total work the run paid for
/// Sizes of the (shared) input, identical across workers of one run, and
/// wall-clock phases, which overlap when workers run in parallel.
struct max {};
struct any {};  ///< flags: logical or, set when any worker set it
}  // namespace stats_merge

/// The LearnStats fields, one row each: X(type, name, merge rule). This is
/// the one list of them: the members below, operator+=, to_json,
/// publish_learn_metrics and the bench records all derive from it, so a new
/// counter is one added row. Rows are in to_json key order.
#define T2M_LEARN_STATS_FIELDS(X)                                              \
  X(std::size_t, sequence_length, max)       /* |P| */                         \
  X(std::size_t, vocabulary_size, max)       /* distinct predicates */         \
  X(std::size_t, segments, max)              /* unique windows encoded */      \
  X(std::size_t, encoded_transitions, max)                                     \
  X(std::size_t, sat_calls, sum)                                               \
  /* compliance iterations that added constraints */                           \
  X(std::size_t, refinements, sum)                                             \
  X(std::size_t, state_increments, sum)      /* times N had to grow */         \
  /* distinct forbidden sequences learned */                                   \
  X(std::size_t, forbidden_words, max)                                         \
  /* Solver-reuse trajectory: how often the run could flip assumptions on a    \
     live solver versus paying for a fresh encoding. */                        \
  /* CSP constructions (fresh path: one per N) */                              \
  X(std::size_t, csp_builds, sum)                                              \
  /* in-place state-count growths (persistent path) */                         \
  X(std::size_t, csp_grows, sum)                                               \
  /* Learned clauses carried across capacity rebuilds via                      \
     AutomatonCsp::reseed_from (persistent path only). */                      \
  X(std::size_t, reseeded_clauses, sum)                                        \
  /* Aggregated over every CSP solver the run constructed (the perf            \
     trajectory counters the bench JSON emitter records). */                   \
  X(std::uint64_t, sat_conflicts, sum)                                         \
  X(std::uint64_t, sat_propagations, sum)                                      \
  X(std::uint64_t, sat_learned_clauses, sum)                                   \
  /* max clause-arena bytes of any CSP */                                      \
  X(std::size_t, sat_peak_arena_bytes, max)                                    \
  /* Times the assumption-core early stop fired (0 or 1 per run): the          \
     persistent solver proved the instance Unsat for every state count. */     \
  X(std::size_t, core_stops, sum)                                              \
  /* True when the trace-acceptance strengthening was abandoned after          \
     max_acceptance_blocks sibling models (the result is still compliant). */  \
  X(bool, acceptance_relaxed, any)                                             \
  /* Preparation before the search: abstraction plus the one ingest pass       \
     (segments, P_l, the retained sequence), on every entry point. */          \
  X(double, abstraction_seconds, max)                                          \
  X(double, construction_seconds, max)                                         \
  X(double, total_seconds, max)

/// Counters describing one learning run.
struct LearnStats {
#define T2M_LEARN_STATS_MEMBER(type, name, merge) type name{};
  T2M_LEARN_STATS_FIELDS(T2M_LEARN_STATS_MEMBER)
#undef T2M_LEARN_STATS_MEMBER
  /// Portfolio runs: one entry per racing configuration (empty otherwise).
  std::vector<PortfolioConfigStats> portfolio;

  /// Calls visit(name, &LearnStats::member, stats_merge tag) once per row
  /// of T2M_LEARN_STATS_FIELDS, in list order; `portfolio` is not a row.
  template <class Visit>
  static void for_each_field(Visit&& visit) {
#define T2M_LEARN_STATS_VISIT(type, name, merge) \
  visit(#name, &LearnStats::name, stats_merge::merge{});
    T2M_LEARN_STATS_FIELDS(T2M_LEARN_STATS_VISIT)
#undef T2M_LEARN_STATS_VISIT
  }

  /// Merges another run's counters into this one by each row's merge rule.
  /// The per-configuration `portfolio` breakdown is left untouched.
  LearnStats& operator+=(const LearnStats& other);
};

// [[nodiscard]]: a learn verdict must be consulted; discarding one hides
// failed or salvaged runs.
struct [[nodiscard]] LearnResult {
  /// The search reached its verdict with a model at the smallest N. Implies
  /// status.ok(); an ok status without success means no model exists within
  /// max_states.
  bool success = false;
  /// How the run ended, the one record of it: ok for a verdict reached (model
  /// or not), a cut_short() code when the clock, the stop flag, the clause
  /// budget or the memory cap ended the search early, any other code for a
  /// failure an entry point caught. Entry points return this, never throw.
  Status status;
  Nfa model;                 ///< names attached; valid when success or salvaged()
  std::size_t states = 0;    ///< the paper's N
  PredicateSequence preds;   ///< the abstraction output (vocabulary + P)
  /// The schema `preds` was interned against. Callers of the trace/sequence
  /// entry points already hold it; the streaming and ftrace paths build it
  /// internally, and reporting needs it back (tools/t2m --ftrace).
  Schema schema;
  LearnStats stats;

  /// `model` is the best model accepted so far, handed back from a run cut
  /// short before its verdict. It passed compliance when it was captured; it
  /// is not a full verdict. Cancelled runs never salvage.
  bool salvaged() const { return !success && states > 0; }
};

/// The paper's model-learning algorithm end to end: trace abstraction,
/// segmentation, iterative SAT search for the smallest N-state automaton,
/// and the compliance-driven refinement loop.
class ModelLearner {
public:
  explicit ModelLearner(LearnerConfig config = {});

  /// Learns from a concrete trace (abstraction mode selected automatically
  /// unless `mode` says otherwise).
  LearnResult learn(const Trace& trace, AbstractionMode mode = AbstractionMode::Auto) const;

  /// Learns from a pre-abstracted predicate sequence.
  LearnResult learn_from_sequence(PredicateSequence preds, const Schema& schema) const;

  /// Learns from a predicate stream, for traces too long to materialise:
  /// peak memory is O(window + dedup set), plus the id sequence when trace
  /// acceptance or the non-segmented encoding needs it. Every entry point
  /// runs this one ingest pass (par::ingest_stream); learn() and
  /// learn_from_sequence() run it over a VectorPredStream.
  LearnResult learn_from_stream(PredStream& stream) const;

  /// Learns from an on-disk ftrace log. threads <= 1 runs the one pass over
  /// an mmap line cursor; threads > 1 runs the sharded parallel ingest
  /// (src/parallel/sharded_ingest.h), which produces byte-identical
  /// artefacts and therefore the same model — differential-tested in
  /// tests/test_sharded_ingest.cpp.
  LearnResult learn_from_ftrace(const std::string& path,
                                const std::string& task_filter = "") const;

  const LearnerConfig& config() const { return config_; }

private:
  /// The iterative SAT search + compliance refinement every entry point ends
  /// in, over its ingest artefacts: starts the search budget, then
  /// dispatches to the portfolio driver when config().portfolio > 1, else
  /// runs one configuration. `total` is the run's stopwatch; its reading on
  /// entry is reported as LearnStats::abstraction_seconds.
  LearnResult run_search(par::ShardedIngestResult ingest, const Stopwatch& total) const;

  /// One configuration's CEGIS loop (the pre-portfolio run_search body).
  /// `segments` is shared read-only — portfolio lanes all encode from the
  /// same list; `preds` is consumed into the result.
  LearnResult run_search_single(PredicateSequence preds, std::size_t sequence_length,
                                const std::vector<Segment>& segments,
                                const ComplianceChecker& compliance_checker,
                                const Schema& schema, const RunBudget& budget,
                                const Stopwatch& total) const;

  /// Races portfolio_configs(config, portfolio) over the shared artefacts:
  /// first finished verdict wins, the rest are cancelled through a race flag
  /// every lane's budget reads next to the caller's.
  LearnResult run_portfolio(const PredicateSequence& preds, std::size_t sequence_length,
                            const std::vector<Segment>& segments,
                            const ComplianceChecker& compliance_checker,
                            const Schema& schema, const RunBudget& budget,
                            const Stopwatch& total) const;

  LearnerConfig config_;
};

}  // namespace t2m

#endif  // T2M_CORE_LEARNER_H
