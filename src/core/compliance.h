#ifndef T2M_CORE_COMPLIANCE_H
#define T2M_CORE_COMPLIANCE_H

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/automaton/nfa.h"
#include "src/util/stopwatch.h"
#include "src/util/window_dedup.h"

namespace t2m {

/// Result of the compliance check (Algorithm 1, lines 38-48): the candidate
/// model's transition sequences of length l must all occur as contiguous
/// subsequences of the predicate sequence P. Sequences in S_l \ P_l are
/// invalid and feed the refinement loop as forbidden-sequence constraints.
struct ComplianceResult {
  bool compliant = false;
  std::set<std::vector<PredId>> invalid_sequences;
  std::size_t model_sequences = 0;
  std::size_t trace_sequences = 0;
};

/// One-pass compliance engine. The trace window set P_l is invariant across
/// all refinement iterations of a learn run, so it is built once — the
/// ingest pass derives it from its one window set (subwindows(), see
/// src/util/window_dedup.h) — and held as a WindowIndex keyed by the window
/// hash. Every check() streams the candidate model's length-l paths by one
/// DFS that extends the same hash one edge at a time, so each leaf word is
/// deduplicated and looked up in P_l without re-hashing, and only the
/// missing words are materialised. Produces results identical to the
/// transition_sequences/subsequences/set_difference pipeline.
class ComplianceChecker {
public:
  /// P_l of a materialised sequence: subwindows() of [seq]. No windows when
  /// l == 0 or seq is shorter than l.
  ComplianceChecker(const std::vector<PredId>& seq, std::size_t l);

  /// A checker over an already-built P_l: the distinct length-l windows,
  /// keyed by window_hash.
  ComplianceChecker(std::size_t l, WindowIndex<PredId> windows)
      : l_(l), windows_(std::move(windows)) {}

  /// `budget` bounds the check cooperatively: the DFS polls it at every
  /// leaf word (the clock every few thousand) and throws
  /// StatusError(deadline_exceeded or cancelled) once it says stop. On the
  /// parallel path the throw cancels the chunk and TaskGroup::wait()
  /// rethrows it from check().
  ComplianceResult check(const Nfa& model, const RunBudget& budget = {}) const;

  /// Partitions check()'s DFS by start state across this many workers
  /// (1 = sequential). Per-chunk missing-word sets merge in state order, so
  /// the result — including counterexample selection downstream — is
  /// identical to the sequential check by set semantics.
  void set_threads(std::size_t threads) { threads_ = threads; }

  std::size_t window_length() const { return l_; }
  /// |P_l|: number of distinct trace windows.
  std::size_t trace_sequences() const { return windows_.size(); }

private:
  using Adjacency = std::vector<std::vector<std::pair<PredId, StateId>>>;

  /// DFS over the model's length-l paths from start states [lo, hi),
  /// collecting the distinct words into `seen` and the words absent from
  /// P_l into `invalid`. One call per worker chunk; the sequential path is
  /// the single full-range call.
  void check_range(const Adjacency& adj, StateId lo, StateId hi, const RunBudget& budget,
                   WindowIndex<PredId>& seen, std::set<std::vector<PredId>>& invalid) const;

  std::size_t l_;
  std::size_t threads_ = 1;
  WindowIndex<PredId> windows_;  ///< P_l
};

/// Convenience single-shot wrapper around ComplianceChecker; the learner
/// keeps a persistent checker instead, so P_l is computed once per run.
ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                  std::size_t l);

}  // namespace t2m

#endif  // T2M_CORE_COMPLIANCE_H
