// Independent verdict check: decides whether a learned model is a valid
// answer for the predicate sequence it was learned from, using none of the
// learner's own checking code (no ComplianceChecker, no segmenter).
#ifndef T2MBENCH_VERIFY_H
#define T2MBENCH_VERIFY_H

#include <string>
#include <vector>

#include "src/automaton/nfa.h"
#include "src/core/learner.h"
#include "workloads.h"

namespace t2mbench {

/// Checks `model` against the predicate sequence `seq` under `config`:
///  - compliance: every length-l label path of the model, from every state,
///    is a window of `seq` (P_l recomputed with a plain std::set);
///  - embedding: every length-w window of `seq` (the whole sequence when
///    unsegmented) is accepted from some state;
///  - acceptance: `seq` is accepted from the initial state, when the
///    configuration requires it.
/// Returns an empty string when the model passes, else the first failure.
std::string check_model(const t2m::Nfa& model, const std::vector<t2m::PredId>& seq,
                        const t2m::LearnerConfig& config);

/// Checks a learn verdict for `instance`: success, a model of the reported
/// size, the pinned state count, one step per logged event pair for ftrace
/// input, and check_model on the learned sequence.
std::string check_verdict(const t2m::LearnResult& result, const Instance& instance);

}  // namespace t2mbench

#endif  // T2MBENCH_VERIFY_H
