// The parallel runtime: thread pool scheduling, fork-join groups, chunked
// parallel-for determinism, per-thread scratch arenas — and the mergeable
// stats the sharded/portfolio drivers aggregate with.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "src/core/learner.h"
#include "src/core/report.h"
#include "src/obs/json.h"
#include "src/parallel/scratch_arena.h"
#include "src/parallel/thread_pool.h"
#include "src/sat/solver.h"
#include "src/util/sync.h"

namespace t2m {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  par::ThreadPool pool(4);
  EXPECT_GE(pool.size(), 4u);
  std::atomic<int> count{0};
  par::TaskGroup group(pool);
  for (int i = 0; i < 1000; ++i) {
    // order: relaxed — counter only; wait() is the synchronisation point.
    group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, GroupIsReusableAfterWait) {
  par::ThreadPool pool(2);
  par::TaskGroup group(pool);
  std::atomic<int> count{0};
  group.run([&count] { ++count; });
  group.wait();
  group.run([&count] { ++count; });
  group.run([&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException) {
  par::ThreadPool pool(2);
  par::TaskGroup group(pool);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i) {
    group.run([&completed, i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ++completed;
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 7);
  // The group is clean again afterwards.
  group.run([&completed] { ++completed; });
  group.wait();
  EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, NestedGroupsOnTinyPoolDoNotDeadlock) {
  // A worker blocked in an inner wait() must help drain the pool, or a
  // one-worker pool would deadlock on nesting.
  par::ThreadPool pool(1);
  std::atomic<int> inner_done{0};
  par::TaskGroup outer(pool);
  outer.run([&] {
    par::TaskGroup inner(pool);
    for (int i = 0; i < 4; ++i) {
      inner.run([&inner_done] { ++inner_done; });
    }
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(inner_done.load(), 4);
}

TEST(ThreadPool, EnsureSizeOnlyGrows) {
  par::ThreadPool pool(2);
  const std::size_t before = pool.size();
  pool.ensure_size(1);
  EXPECT_EQ(pool.size(), before);
  pool.ensure_size(before + 2);
  EXPECT_EQ(pool.size(), before + 2);
}

TEST(ForChunks, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{100}}) {
      for (const std::size_t chunks : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
        std::vector<std::atomic<int>> hits(n);
        // order: relaxed — counters only; for_chunks joins before the reads.
        par::for_chunks(threads, n, chunks,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                          }
                        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "threads=" << threads << " n=" << n << " chunks=" << chunks
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ForChunks, ChunkIndicesAreDeterministicRanges) {
  // Results keyed by chunk index must be placement-independent: the ranges
  // are a pure function of (n, chunks).
  std::vector<std::pair<std::size_t, std::size_t>> ranges(5);
  par::for_chunks(4, 103, 5, [&](std::size_t c, std::size_t b, std::size_t e) {
    ranges[c] = {b, e};
  });
  std::size_t expect_begin = 0;
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(ranges[c].first, expect_begin);
    EXPECT_GT(ranges[c].second, ranges[c].first);
    expect_begin = ranges[c].second;
  }
  EXPECT_EQ(expect_begin, 103u);
}

TEST(ForChunks, ZeroItemsIsANoop) {
  bool called = false;
  par::for_chunks(4, 0, 4, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ScratchArena, BumpAllocatesAndReuses) {
  par::ScratchArena arena;
  int* a = arena.alloc_array<int>(100);
  for (int i = 0; i < 100; ++i) a[i] = i;
  double* b = arena.alloc_array<double>(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a[i], i);  // distinct storage
  const std::size_t grown = arena.capacity();
  arena.reset();
  // After reset the same demand fits the retained block: capacity stable.
  arena.alloc_array<int>(100);
  arena.alloc_array<double>(10);
  EXPECT_EQ(arena.capacity(), grown);
}

TEST(ScratchArena, PerThreadInstancesAreDistinct) {
  par::ScratchArena* main_arena = &par::local_scratch();
  par::ScratchArena* other_arena = nullptr;
  Thread t([&other_arena] { other_arena = &par::local_scratch(); });
  t.join();
  EXPECT_NE(main_arena, other_arena);
}

TEST(SolverStatsMerge, CountersAddPeaksMax) {
  sat::SolverStats a;
  a.conflicts = 10;
  a.propagations = 100;
  a.solves = 2;
  a.peak_arena_bytes = 500;
  sat::SolverStats b;
  b.conflicts = 5;
  b.propagations = 50;
  b.solves = 1;
  b.peak_arena_bytes = 900;
  a += b;
  EXPECT_EQ(a.conflicts, 15u);
  EXPECT_EQ(a.propagations, 150u);
  EXPECT_EQ(a.solves, 3u);
  EXPECT_EQ(a.peak_arena_bytes, 900u);
}

TEST(LearnStatsMerge, WorkAddsShapeMaxesFlagsOr) {
  LearnStats a;
  a.sequence_length = 1000;
  a.segments = 20;
  a.sat_calls = 3;
  a.sat_conflicts = 40;
  a.csp_builds = 1;
  a.total_seconds = 2.0;
  LearnStats b;
  b.sequence_length = 1000;  // same shared input
  b.segments = 20;
  b.sat_calls = 5;
  b.sat_conflicts = 60;
  b.csp_builds = 2;
  b.acceptance_relaxed = true;
  b.total_seconds = 3.5;
  a += b;
  EXPECT_EQ(a.sequence_length, 1000u);
  EXPECT_EQ(a.segments, 20u);
  EXPECT_EQ(a.sat_calls, 8u);
  EXPECT_EQ(a.sat_conflicts, 100u);
  EXPECT_EQ(a.csp_builds, 3u);
  EXPECT_TRUE(a.acceptance_relaxed);
  EXPECT_DOUBLE_EQ(a.total_seconds, 3.5);  // parallel overlap: max, not sum
}

/// Gives every T2M_LEARN_STATS_FIELDS row a distinct non-zero value, offset
/// by `offset`; flags are set to `flags`.
LearnStats distinct_stats(std::uint64_t offset, bool flags) {
  LearnStats stats;
  std::uint64_t next = offset;
  LearnStats::for_each_field([&](const char*, auto field, auto) {
    using T = std::decay_t<decltype(stats.*field)>;
    ++next;
    if constexpr (std::is_same_v<T, bool>) {
      stats.*field = flags;
    } else if constexpr (std::is_floating_point_v<T>) {
      stats.*field = static_cast<double>(next) + 0.25;
    } else {
      stats.*field = static_cast<T>(next);
    }
  });
  return stats;
}

TEST(LearnStatsFields, JsonHasOneKeyPerRowInListOrder) {
  const LearnStats stats = distinct_stats(0, true);
  obs::JsonValue json;
  ASSERT_TRUE(obs::parse_json(to_json(stats), json).ok());
  ASSERT_TRUE(json.is_object());
  std::size_t row = 0;
  LearnStats::for_each_field([&](const char* name, auto field, auto) {
    ASSERT_LT(row, json.object.size()) << name;
    const auto& [key, value] = json.object[row++];
    EXPECT_EQ(key, name);
    using T = std::decay_t<decltype(stats.*field)>;
    if constexpr (std::is_same_v<T, bool>) {
      ASSERT_TRUE(value.is_bool()) << name;
      EXPECT_EQ(value.boolean, stats.*field) << name;
    } else if constexpr (std::is_floating_point_v<T>) {
      ASSERT_TRUE(value.is_number()) << name;
      EXPECT_DOUBLE_EQ(value.number, stats.*field) << name;
    } else {
      EXPECT_EQ(value.as_uint64(), std::optional<std::uint64_t>(stats.*field)) << name;
    }
  });
  EXPECT_EQ(row, json.object.size());
}

TEST(LearnStatsFields, MergeAppliesEachRowsRule) {
  const LearnStats before = distinct_stats(0, false);
  const LearnStats other = distinct_stats(100, true);
  LearnStats merged = before;
  merged += other;
  LearnStats::for_each_field([&](const char* name, auto field, auto rule) {
    using Rule = decltype(rule);
    const auto x = before.*field;
    const auto y = other.*field;
    if constexpr (std::is_same_v<Rule, stats_merge::sum>) {
      EXPECT_EQ(merged.*field, x + y) << name;
    } else if constexpr (std::is_same_v<Rule, stats_merge::max>) {
      EXPECT_EQ(merged.*field, std::max(x, y)) << name;
    } else {
      EXPECT_EQ(merged.*field, x || y) << name;
    }
  });
}

}  // namespace
}  // namespace t2m
