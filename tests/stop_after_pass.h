// A predicate stream that raises a stop flag once the ingest pass has
// drained it. The learn's preparation then completes, and the first budget
// poll to see the flag is the search's: tests use it to cancel a learn
// inside its search rather than in its ingest pass.

#ifndef T2M_TESTS_STOP_AFTER_PASS_H
#define T2M_TESTS_STOP_AFTER_PASS_H

#include <atomic>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/pred_stream.h"
#include "src/trace/trace.h"

namespace t2m {

class StopAfterPassStream : public VectorPredStream {
public:
  /// `trace` must outlive the stream (its schema is borrowed).
  StopAfterPassStream(const Trace& trace, std::atomic<bool>& stop)
      : VectorPredStream(abstract_trace(trace, {}), trace.schema()), stop_(&stop) {}

  PredicateSequence take_preds() override {
    stop_->store(true);
    return VectorPredStream::take_preds();
  }

private:
  std::atomic<bool>* stop_;
};

}  // namespace t2m

#endif  // T2M_TESTS_STOP_AFTER_PASS_H
