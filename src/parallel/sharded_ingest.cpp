#include "src/parallel/sharded_ingest.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "src/abstraction/event_stream.h"
#include "src/obs/trace.h"
#include "src/parallel/scratch_arena.h"
#include "src/parallel/thread_pool.h"
#include "src/trace/ftrace_io.h"
#include "src/trace/mmap_io.h"
#include "src/util/hash.h"
#include "src/util/window_dedup.h"

namespace t2m::par {
namespace {

/// Everything one shard scan produces, in shard-local predicate ids (dense,
/// first-occurrence order within the shard). Local ids are 32-bit: a shard
/// cannot see more distinct events than bytes.
struct ShardScan {
  std::size_t observations = 0;  ///< parsed (and filter-passing) events
  std::size_t preds = 0;         ///< step destinations (|local pred sequence|)
  bool has_first_obs = false;
  std::string first_obs;  ///< event string of the shard's first observation
  /// Local pred id -> event string, in local first-occurrence order.
  std::vector<std::string> dest_order;
  /// First min(preds, m-1) local ids: the context of the windows that
  /// straddle the shard's leading cut.
  std::vector<std::uint32_t> lead;
  /// Last min(preds, m-1) local ids.
  std::vector<std::uint32_t> rear;
  /// Distinct length-m windows fully inside the shard, local
  /// first-occurrence order.
  std::vector<std::vector<std::uint32_t>> windows;
  /// Full local-id sequence (only when the caller keeps the sequence).
  std::vector<std::uint32_t> seq;
};

/// The budget poll for the scan and merge loops, once per line or window
/// with a clock read every 8192nd; a stop throws the structured verdict.
constexpr std::uint64_t kIngestPollInterval = 8192;
constexpr const char* kIngestSite = "trace ingest";

/// Cuts `content` at line boundaries into up to `shards` non-empty regions.
std::vector<std::string_view> split_regions(std::string_view content,
                                            std::size_t shards) {
  std::vector<std::size_t> cuts{0};
  for (std::size_t s = 1; s < shards; ++s) {
    const std::size_t target = content.size() * s / shards;
    if (target <= cuts.back()) continue;
    const char* nl = static_cast<const char*>(
        std::memchr(content.data() + target, '\n', content.size() - target));
    const std::size_t cut =
        nl != nullptr ? static_cast<std::size_t>(nl - content.data()) + 1 : content.size();
    if (cut > cuts.back() && cut < content.size()) cuts.push_back(cut);
  }
  cuts.push_back(content.size());
  std::vector<std::string_view> regions;
  regions.reserve(cuts.size() - 1);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i + 1] > cuts[i]) {
      regions.push_back(content.substr(cuts[i], cuts[i + 1] - cuts[i]));
    }
  }
  if (regions.empty()) regions.push_back(content.substr(0, 0));
  return regions;
}

/// The length m of the one window set an ingest pass collects: the longest
/// window the learn reads off it (the segments' w when segmented, and l).
std::size_t base_window(const ShardedIngestOptions& opt) {
  return opt.segmented ? std::max(opt.window, opt.compliance_length) : opt.compliance_length;
}

/// Rejects window lengths no learn can use: a zero w, or a zero l, whose
/// empty word no forbidden-sequence constraint can exclude.
void check_window_lengths(const ShardedIngestOptions& opt) {
  if (opt.window == 0) throw std::invalid_argument("ingest: window must be positive");
  if (opt.compliance_length == 0) {
    throw std::invalid_argument("ingest: compliance length must be positive");
  }
}

/// Sets the segments (segmented runs) and P_l from `base`, the distinct
/// length-m windows of the n-step sequence in first-occurrence order, or [P]
/// when n < m: both are subwindows() of it. A segment set of length m is the
/// base itself, and a sequence shorter than w is its one segment.
void derive_window_sets(std::vector<std::vector<PredId>> base, std::size_t n,
                        const ShardedIngestOptions& opt, ShardedIngestResult& result) {
  const std::size_t w = opt.window;
  const std::size_t l = opt.compliance_length;
  result.compliance = ComplianceChecker(l, subwindows<PredId>(base, l));
  if (!opt.segmented) return;
  result.segments = n < w || w >= l ? std::move(base) : subwindows<PredId>(base, w).take();
}

/// One shard's pass: parse lines, intern event strings locally, feed the
/// window dedup. The step predicate depends only on the destination
/// observation (see EventStreamAbstractor), so a shard needs no context from
/// its predecessor: every observation it sees is a step destination — except
/// the very first observation of the whole trace (`fresh_start`), which
/// starts the trace instead of ending a step.
void scan_shard(std::string_view region, bool fresh_start,
                const ShardedIngestOptions& opt, ShardScan& out) {
  LineReader lines(region, LineReader::from_memory);
  std::unordered_map<std::string, std::uint32_t> local_ids;
  const std::size_t m = base_window(opt);
  const std::size_t K = m - 1;
  StreamingWindowDedup<std::uint32_t> dedup(m);
  std::vector<std::uint32_t> rear_ring(std::max<std::size_t>(K, 1));

  std::string task, event;
  std::string_view line;
  BudgetPoll poll(opt.budget, kIngestPollInterval);
  while (lines.next(line)) {
    poll.check(kIngestSite);
    if (!parse_ftrace_line(line, task, event)) continue;
    if (!opt.task_filter.empty() && task != opt.task_filter) continue;
    ++out.observations;
    if (!out.has_first_obs) {
      out.has_first_obs = true;
      out.first_obs = event;
      if (fresh_start) continue;  // the trace's first observation: no step yet
    }
    const auto [it, inserted] =
        local_ids.try_emplace(event, static_cast<std::uint32_t>(out.dest_order.size()));
    if (inserted) out.dest_order.push_back(event);
    const std::uint32_t lid = it->second;
    dedup.push(lid);
    if (out.preds < K) out.lead.push_back(lid);
    if (K > 0) rear_ring[out.preds % K] = lid;
    if (opt.keep_sequence) out.seq.push_back(lid);
    ++out.preds;
  }

  out.windows = dedup.take_windows();
  const std::size_t r = std::min(out.preds, K);
  out.rear.resize(r);
  for (std::size_t i = 0; i < r; ++i) {
    out.rear[i] = rear_ring[(out.preds - r + i) % K];
  }
}

/// Inserts `window` into a merge's index unless it already holds an equal
/// one: the first occurrence is kept, exactly as the sequential dedup would
/// have kept it.
void merge_insert(WindowIndex<PredId>& merged, std::vector<PredId> window) {
  merged.insert(
      window_hash(window.begin(), window.end()),
      [&](const std::vector<PredId>& held) { return held == window; },
      [&] { return std::move(window); });
}

/// Emits the length-L windows that straddle the cut between the processed
/// stream (whose last up-to-(L-1) predicates are `tail`) and the next
/// shard (whose first predicates are `lead`), in stream order. Windows fully
/// inside the tail were emitted at an earlier cut; windows fully inside the
/// lead are in the shard's local list.
void emit_cross_windows(const std::vector<PredId>& tail, const std::vector<PredId>& lead,
                        std::size_t L, WindowIndex<PredId>& out) {
  if (tail.empty() || lead.empty()) return;
  ScratchArena& scratch = local_scratch();
  scratch.reset();
  const std::size_t tape_len = tail.size() + lead.size();
  PredId* tape = scratch.alloc_array<PredId>(tape_len);
  std::copy(tail.begin(), tail.end(), tape);
  std::copy(lead.begin(), lead.end(), tape + tail.size());
  // advance_tail caps the tail at L-1 elements, so every enumerated window
  // necessarily crosses into the lead — none can sit fully inside the tail.
  for (std::size_t p = 0; p < tail.size() && p + L <= tape_len; ++p) {
    merge_insert(out, std::vector<PredId>(tape + p, tape + p + L));
  }
}

/// Appends `take` and trims to the last L-1 elements: the rolling context
/// the next cut's cross windows need.
void advance_tail(std::vector<PredId>& tail, const std::vector<PredId>& take,
                  std::size_t L) {
  if (L <= 1) return;
  tail.insert(tail.end(), take.begin(), take.end());
  if (tail.size() > L - 1) {
    tail.erase(tail.begin(),
               tail.begin() + static_cast<std::ptrdiff_t>(tail.size() - (L - 1)));
  }
}

/// The single-shard path (also the fallback for degenerate inputs): the
/// one pass over an FtracePredStream of the whole region.
ShardedIngestResult sequential_ingest(std::string_view content,
                                      const ShardedIngestOptions& opt) {
  LineReader lines(content, LineReader::from_memory);
  FtracePredStream stream(lines, opt.task_filter);
  return ingest_stream(stream, opt);
}

}  // namespace

ShardedIngestResult ingest_stream(PredStream& stream, const ShardedIngestOptions& options) {
  check_window_lengths(options);
  ShardedIngestResult result;
  result.shards_used = 1;
  // The one window set: the distinct length-m windows, or [P] when the
  // stream is shorter than m, exactly as a segmenter at window m keeps them.
  StreamingSegmenter windows(base_window(options));
  std::vector<PredId> seq;
  BudgetPoll poll(options.budget, kIngestPollInterval);
  {
    T2M_SPAN_SCOPE(pass_span, "ingest.stream_pass");
    while (const auto id = stream.next()) {
      poll.check(kIngestSite);
      windows.push(*id);
      if (options.keep_sequence) seq.push_back(*id);
      ++result.sequence_length;
    }
    pass_span.arg("steps", result.sequence_length);
  }
  result.preds = stream.take_preds();
  if (options.keep_sequence) result.preds.seq = std::move(seq);
  result.schema = stream.schema();
  derive_window_sets(windows.take(), result.sequence_length, options, result);
  if (!options.segmented) result.segments = whole_sequence(result.preds.seq);
  return result;
}

ShardedIngestResult sharded_ftrace_ingest(std::string_view content,
                                          const ShardedIngestOptions& options) {
  check_window_lengths(options);
  const std::size_t want =
      options.shards != 0 ? options.shards : std::max<std::size_t>(options.threads, 1);
  if (want <= 1) return sequential_ingest(content, options);

  const std::vector<std::string_view> regions = split_regions(content, want);
  if (regions.size() <= 1) return sequential_ingest(content, options);

  // Parallel scan: one task per shard, results keyed by shard index.
  std::vector<ShardScan> scans(regions.size());
  for_chunks(options.threads, regions.size(), regions.size(),
             [&](std::size_t shard, std::size_t, std::size_t) {
               T2M_SPAN("ingest.scan_shard", "shard", shard, "bytes",
                        regions[shard].size());
               scan_shard(regions[shard], /*fresh_start=*/shard == 0, options,
                          scans[shard]);
             });

  // The first observation of the whole trace must be the one scanned in
  // fresh-start mode. If the leading shard held no events (a comment-only
  // prefix), a later shard misclassified the global first observation as a
  // step destination — rare enough that re-running sequentially is the
  // simplest correct answer.
  std::size_t first_shard = scans.size();
  for (std::size_t s = 0; s < scans.size(); ++s) {
    if (scans[s].observations > 0) {
      first_shard = s;
      break;
    }
  }
  if (first_shard != 0) return sequential_ingest(content, options);

  std::size_t total_obs = 0;
  std::size_t total_preds = 0;
  for (const ShardScan& s : scans) {
    total_obs += s.observations;
    total_preds += s.preds;
  }
  if (total_obs < 2) {
    throw std::invalid_argument(
        "event abstraction: trace needs at least two observations");
  }

  ShardedIngestResult result;
  result.shards_used = scans.size();
  result.sequence_length = total_preds;

  T2M_SPAN("ingest.merge", "shards", scans.size(), "observations", total_obs);

  // --- global vocabulary replay -------------------------------------------
  // The sequential path interns each event symbol at its first occurrence
  // and each step predicate at its first occurrence as a destination.
  // Concatenating the shards' per-shard first-occurrence orders (new strings
  // only) reproduces both orders exactly: all of shard s's firsts come after
  // shard s-1's, and within a shard local order is stream order. Replaying
  // through a real EventStreamAbstractor keeps the Exprs, interned ids and
  // display names byte-identical to the sequential pipeline.
  const VarIndex ev = result.schema.add_cat("event", {}, std::nullopt);
  result.schema.sym_id_intern(ev, scans[0].first_obs);  // the trace's first observation
  EventStreamAbstractor abstractor;
  abstractor.prime();
  std::unordered_map<std::string, PredId> global_of;
  for (const ShardScan& scan : scans) {
    for (const std::string& name : scan.dest_order) {
      if (global_of.count(name) != 0) continue;
      const auto sym = result.schema.sym_id_intern(ev, name);
      const auto id = abstractor.push(result.schema, {Value::of_sym(sym)});
      global_of.emplace(name, *id);
    }
  }
  std::vector<std::vector<PredId>> remap(scans.size());
  for (std::size_t s = 0; s < scans.size(); ++s) {
    remap[s].reserve(scans[s].dest_order.size());
    for (const std::string& name : scans[s].dest_order) {
      remap[s].push_back(global_of.at(name));
    }
  }
  // --- window merge ------------------------------------------------------
  // Walk shards in stream order keeping the last m-1 merged predicates as
  // `tail`; per shard, first emit the windows straddling the incoming cut
  // (tail x lead), then splice the shard's interior list. Every window is
  // thereby inserted at its global first-occurrence position, so the merged
  // order equals the one pass's order exactly.
  const std::size_t m = base_window(options);
  std::vector<std::vector<PredId>> lead_global(scans.size());
  std::vector<std::vector<PredId>> rear_global(scans.size());
  for (std::size_t s = 0; s < scans.size(); ++s) {
    lead_global[s].reserve(scans[s].lead.size());
    for (const std::uint32_t lid : scans[s].lead) lead_global[s].push_back(remap[s][lid]);
    rear_global[s].reserve(scans[s].rear.size());
    for (const std::uint32_t lid : scans[s].rear) rear_global[s].push_back(remap[s][lid]);
  }
  std::vector<std::vector<PredId>> base;
  if (total_preds < m) {
    // Short stream: the base is [P]. Every shard's count is below m, so its
    // lead holds all of its predicates.
    Segment whole;
    whole.reserve(total_preds);
    for (const std::vector<PredId>& lead : lead_global) {
      whole.insert(whole.end(), lead.begin(), lead.end());
    }
    base.push_back(std::move(whole));
  } else {
    WindowIndex<PredId> merged;
    std::vector<PredId> tail;
    BudgetPoll poll(options.budget, kIngestPollInterval);
    for (std::size_t s = 0; s < scans.size(); ++s) {
      emit_cross_windows(tail, lead_global[s], m, merged);
      for (const auto& local_window : scans[s].windows) {
        poll.check(kIngestSite);
        std::vector<PredId> window;
        window.reserve(local_window.size());
        for (const std::uint32_t lid : local_window) window.push_back(remap[s][lid]);
        merge_insert(merged, std::move(window));
      }
      advance_tail(tail, rear_global[s], m);
    }
    base = merged.take();
  }
  result.preds = abstractor.take();
  derive_window_sets(std::move(base), total_preds, options, result);

  if (options.keep_sequence) {
    result.preds.seq.reserve(total_preds);
    for (std::size_t s = 0; s < scans.size(); ++s) {
      for (const std::uint32_t lid : scans[s].seq) {
        result.preds.seq.push_back(remap[s][lid]);
      }
    }
  }
  if (!options.segmented) result.segments = whole_sequence(result.preds.seq);

  return result;
}

ShardedIngestResult sharded_ftrace_ingest_file(const std::string& path,
                                               const ShardedIngestOptions& options) {
  const MappedFile file(path);
  return sharded_ftrace_ingest(file.view(), options);
}

}  // namespace t2m::par
