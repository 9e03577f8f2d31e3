// Independent reference implementations for the differential tests. The
// library runs one machinery on every path: abstract_event_trace drives the
// memoising EventStreamAbstractor, segment_sequence folds over the
// rolling-hash StreamingSegmenter, and Nfa::accepts_from walks flag arrays
// over transitions grouped by predicate. Comparing any of those with another
// library path would compare the code with itself, so the tests compare with
// these: the naive per-step abstraction, a hash-free segmenter, a
// std::set-frontier acceptance and the materialise-and-subtract compliance
// check. Keep them simple rather than fast.

#ifndef T2M_TESTS_REFERENCE_ORACLES_H
#define T2M_TESTS_REFERENCE_ORACLES_H

#include <algorithm>
#include <iterator>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/abstraction/predicate.h"
#include "src/automaton/nfa.h"
#include "src/automaton/ops.h"
#include "src/core/compliance.h"
#include "src/expr/expr.h"
#include "src/trace/trace.h"

namespace t2m::oracle {

/// Event abstraction built afresh for every step: the conjunction of the
/// destination atoms `v' = value` and its display string, interned by
/// structural equality. Rejects the same inputs as abstract_event_trace, with
/// the same messages.
inline PredicateSequence abstract_event_trace(const Trace& trace) {
  const Schema& schema = trace.schema();
  if (!schema.all_categorical()) {
    throw std::invalid_argument("event abstraction requires all-categorical schema");
  }
  if (trace.size() < 2) {
    throw std::invalid_argument("event abstraction: trace needs at least two observations");
  }
  PredicateSequence out;
  for (std::size_t step = 0; step < trace.num_steps(); ++step) {
    const Valuation& next = trace.step_next(step);
    std::vector<ExprPtr> atoms;
    std::string display;
    for (VarIndex v = 0; v < schema.size(); ++v) {
      atoms.push_back(
          Expr::eq(Expr::var_ref(v, /*primed=*/true), Expr::constant(next[v])));
      if (!display.empty()) display += " & ";
      display += schema.format_value(v, next[v]);
    }
    const PredId id = out.vocab.intern(Expr::conj(std::move(atoms)));
    if (out.display_names.size() <= id) out.display_names.resize(id + 1);
    out.display_names[id] = display;
    out.seq.push_back(id);
  }
  return out;
}

/// The unique length-w windows of `seq` in first-occurrence order. Each
/// window is looked up in an ordered set of the windows kept so far, so no
/// hash is involved. A sequence of at most w ids is one segment.
inline std::vector<std::vector<PredId>> segment_sequence(const std::vector<PredId>& seq,
                                                         std::size_t w) {
  if (w == 0) throw std::invalid_argument("segment_sequence: window must be positive");
  if (seq.empty()) return {};
  if (seq.size() <= w) return {seq};
  std::vector<std::vector<PredId>> out;
  std::set<std::vector<PredId>> seen;
  for (std::size_t i = 0; i + w <= seq.size(); ++i) {
    std::vector<PredId> window(seq.begin() + static_cast<std::ptrdiff_t>(i),
                               seq.begin() + static_cast<std::ptrdiff_t>(i + w));
    if (seen.insert(window).second) out.push_back(std::move(window));
  }
  return out;
}

/// NFA acceptance from `start`: the frontier is a std::set rebuilt on every
/// symbol by scanning all transitions; the word is rejected at the first
/// symbol that leaves the frontier empty.
inline bool accepts_from(const Nfa& nfa, const std::set<StateId>& start,
                         std::span<const PredId> word) {
  std::set<StateId> frontier = start;
  for (const PredId symbol : word) {
    std::set<StateId> next;
    for (const Transition& t : nfa.transitions()) {
      if (t.pred == symbol && frontier.count(t.src) > 0) next.insert(t.dst);
    }
    if (next.empty()) return false;
    frontier = std::move(next);
  }
  return true;
}

/// The compliance check as the seed ran it: materialise the model's words
/// S_l (transition_sequences) and the trace windows P_l (subsequences) in
/// ordered sets, then subtract. The reference semantics in src/automaton/ops.
inline ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                         std::size_t l) {
  ComplianceResult result;
  const auto model_seqs = transition_sequences(model, l);
  const auto trace_seqs = subsequences(seq, l);
  result.model_sequences = model_seqs.size();
  result.trace_sequences = trace_seqs.size();
  std::set_difference(model_seqs.begin(), model_seqs.end(), trace_seqs.begin(),
                      trace_seqs.end(),
                      std::inserter(result.invalid_sequences,
                                    result.invalid_sequences.begin()));
  result.compliant = result.invalid_sequences.empty();
  return result;
}

}  // namespace t2m::oracle

#endif  // T2M_TESTS_REFERENCE_ORACLES_H
