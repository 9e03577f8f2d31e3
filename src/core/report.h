#ifndef T2M_CORE_REPORT_H
#define T2M_CORE_REPORT_H

#include <string>

#include "src/base/schema.h"
#include "src/core/learner.h"

namespace t2m {

/// Human-readable summary of a learning run: model shape, vocabulary, and
/// the statistics tracked by LearnStats. Used by the CLI and examples.
std::string format_learn_report(const LearnResult& result, const Schema& schema);

/// One-line summary ("4 states, 6 transitions, 4 predicates, 0.12 s").
std::string format_learn_summary(const LearnResult& result);

/// Single-line JSON object for one portfolio lane's outcome.
std::string to_json(const PortfolioConfigStats& lane);

/// Single-line JSON object with one key per T2M_LEARN_STATS_FIELDS row, in
/// list order, plus the portfolio lane breakdown when there is one. The one
/// stats serialization — `t2m --stats-out`, the bench records' "metrics"
/// object and the portfolio lane reporting all go through it, so the key
/// names cannot drift between consumers.
std::string to_json(const LearnStats& stats);

/// Verdict envelope for `t2m --stats-out`: "success", "status" (the error
/// code name) + "stats": to_json(...).
std::string to_json(const LearnResult& result);

/// Publishes a finished run's counters into the global obs metrics registry
/// (no-op when metrics are disabled): a learn.<field> counter per integer
/// and flag row of T2M_LEARN_STATS_FIELDS plus memory-accountant peaks.
/// Called once per run by the learner, which is what keeps per-event
/// accumulation free when observability is off.
void publish_learn_metrics(const LearnResult& result);

}  // namespace t2m

#endif  // T2M_CORE_REPORT_H
