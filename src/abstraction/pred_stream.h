#ifndef T2M_ABSTRACTION_PRED_STREAM_H
#define T2M_ABSTRACTION_PRED_STREAM_H

#include <optional>

#include "src/abstraction/predicate.h"
#include "src/base/schema.h"

namespace t2m {

/// Single-pass predicate source for the streaming learner. next() yields one
/// interned PredId per trace step, in trace order, abstracting observations
/// as they are consumed instead of materialising the full Trace. After
/// exhaustion, take_preds() surrenders the vocabulary (and display names)
/// accumulated while streaming — its `seq` is left empty unless the stream
/// reads a materialised sequence; the consumer decides how much of the id
/// sequence, if any, to retain.
class PredStream {
public:
  virtual ~PredStream() = default;

  /// Next predicate id, or nullopt at end of stream. Implementations over
  /// concrete traces throw std::invalid_argument at exhaustion when the
  /// stream held fewer than two observations, mirroring abstract_trace.
  virtual std::optional<PredId> next() = 0;

  /// Vocabulary + display names built during streaming; valid once next()
  /// returned nullopt. Calling it earlier surrenders a partial vocabulary.
  virtual PredicateSequence take_preds() = 0;

  /// Schema the stream interned its observations against (symbol tables are
  /// complete once the stream is exhausted).
  virtual const Schema& schema() const = 0;
};

/// PredStream over an already-abstracted sequence: how learn() and
/// learn_from_sequence() feed the one ingest pass. take_preds() hands the
/// sequence back whole, so those learns return P whatever the pass retains.
class VectorPredStream : public PredStream {
public:
  VectorPredStream(PredicateSequence preds, const Schema& schema)
      : preds_(std::move(preds)), schema_(&schema) {}

  std::optional<PredId> next() override {
    if (pos_ >= preds_.seq.size()) return std::nullopt;
    return preds_.seq[pos_++];
  }

  PredicateSequence take_preds() override { return std::move(preds_); }

  const Schema& schema() const override { return *schema_; }

private:
  PredicateSequence preds_;
  const Schema* schema_;
  std::size_t pos_ = 0;
};

}  // namespace t2m

#endif  // T2M_ABSTRACTION_PRED_STREAM_H
