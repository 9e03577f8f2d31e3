#include "src/abstraction/event_abstraction.h"

#include <stdexcept>
#include <utility>

#include "src/abstraction/event_stream.h"

namespace t2m {

PredicateSequence abstract_event_trace(const Trace& trace, const AbstractionConfig& config) {
  (void)config;  // windowing applies at segmentation time, not here
  const Schema& schema = trace.schema();
  if (!schema.all_categorical()) {
    throw std::invalid_argument("event abstraction requires all-categorical schema");
  }
  if (trace.size() < 2) {
    throw std::invalid_argument("event abstraction: trace needs at least two observations");
  }

  // The streaming abstractor memoises on the destination valuation, so each
  // distinct event builds and interns its predicate once, however long the
  // trace is.
  EventStreamAbstractor abstractor;
  std::vector<PredId> seq;
  seq.reserve(trace.num_steps());
  for (const Valuation& obs : trace.observations()) {
    if (const auto id = abstractor.push(schema, obs)) seq.push_back(*id);
  }
  PredicateSequence out = abstractor.take();
  out.seq = std::move(seq);
  return out;
}

}  // namespace t2m
