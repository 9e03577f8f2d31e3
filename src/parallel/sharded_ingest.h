#ifndef T2M_PARALLEL_SHARDED_INGEST_H
#define T2M_PARALLEL_SHARDED_INGEST_H

#include <string>
#include <string_view>
#include <vector>

#include "src/abstraction/pred_stream.h"
#include "src/abstraction/predicate.h"
#include "src/base/schema.h"
#include "src/core/compliance.h"
#include "src/core/segmentation.h"

namespace t2m::par {

struct ShardedIngestOptions {
  /// Segmentation window w; must be positive (as segment_sequence requires).
  std::size_t window = 3;
  /// Compliance-check window length l; must be positive.
  std::size_t compliance_length = 2;
  /// Worker threads scanning shards concurrently.
  std::size_t threads = 1;
  /// Shard count; 0 derives one shard per thread. Tests pin it to exercise
  /// cut placement on small inputs — any count yields identical artefacts.
  std::size_t shards = 0;
  /// Collect the segmentation window set (off for non-segmented learns,
  /// whose one segment is the whole retained sequence instead).
  bool segmented = true;
  /// Retain the full interned id sequence (needed by trace acceptance and
  /// the non-segmented encoding; costs O(events) extra memory).
  bool keep_sequence = false;
  /// ftrace task filter (empty = keep all), as FtracePredStream.
  std::string task_filter;
  /// Cooperative limits: the one pass polls it per step, shard scans per
  /// line and the merge per window (the clock every few thousand); a stop
  /// throws StatusError(deadline_exceeded or cancelled) (a shard worker's
  /// throw propagates through TaskGroup::wait). Defaults to never stopping.
  RunBudget budget;
};

/// The ingest artefacts the CEGIS search runs on: what ingest_stream builds
/// in one pass, and what the sharded ingest rebuilds byte-identically for
/// every shard count — the merge reproduces the one pass's first-occurrence
/// orders exactly; see docs/parallel.md for the determinism contract.
struct ShardedIngestResult {
  PredicateSequence preds;  ///< vocabulary + display names (+ seq when kept)
  Schema schema;
  std::vector<Segment> segments;
  ComplianceChecker compliance{std::vector<PredId>{}, 0};
  std::size_t sequence_length = 0;  ///< |P|, whether or not seq was retained
  std::size_t shards_used = 0;      ///< 1 when ingest_stream served the call
};

/// The one ingest pass every learn entry point runs: each id pulled from
/// `stream` goes into one window dedup of length m = max(w, l) (l when not
/// segmented) and, when kept, the retained sequence; the segments and P_l
/// are then both derived from that one window set (subwindows()). Throws
/// what the stream throws, std::invalid_argument for window == 0 or
/// compliance_length == 0, StatusError on a budget stop.
ShardedIngestResult ingest_stream(PredStream& stream, const ShardedIngestOptions& options);

/// Sharded parallel ingest of an ftrace log held in memory (normally a
/// MappedFile view): the content is cut at line boundaries into roughly
/// equal shards, each scanned concurrently by its own line cursor, local
/// interner and length-m window dedup; a deterministic sequential merge
/// then rebuilds the global vocabulary and the one window set, from which
/// the segments and P_l are derived as in ingest_stream. One shard runs
/// ingest_stream instead. Throws std::invalid_argument for window == 0,
/// compliance_length == 0 or a trace with fewer than two observations.
ShardedIngestResult sharded_ftrace_ingest(std::string_view content,
                                          const ShardedIngestOptions& options);

/// Convenience wrapper: maps `path` (MappedFile) and ingests its view.
ShardedIngestResult sharded_ftrace_ingest_file(const std::string& path,
                                               const ShardedIngestOptions& options);

}  // namespace t2m::par

#endif  // T2M_PARALLEL_SHARDED_INGEST_H
