// StreamingWindowDedup under engineered rolling-hash collisions: distinct
// windows sharing a polynomial hash must all survive (the index compares
// full contents), duplicates must still dedup, and the streaming segmenter
// must stay byte-identical to the hash-free reference segmenter on colliding
// inputs. Also drives the index through many slot-table resizes against the
// same reference, checks the subwindow derivation that reads every shorter
// window set off one set of longer windows, and checks that the compliance
// check, which keys P_l and the model words by the same hash, still tells
// colliding words apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "src/automaton/nfa.h"
#include "src/core/compliance.h"
#include "src/core/segmentation.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/window_dedup.h"
#include "tests/reference_oracles.h"

namespace t2m {
namespace {

// For window length 2 the rolling hash is v0 * B + v1 (mod 2^64), so
// [a0, a1] and [a0 + d, a1 - d*B] collide for any d: the bucket key alone
// cannot tell them apart.
std::vector<std::uint64_t> collider(std::uint64_t a0, std::uint64_t a1,
                                    std::uint64_t d) {
  return {a0 + d, a1 - d * kPolyHashBase};
}

TEST(WindowDedupCollision, DistinctCollidingWindowsAllSurvive) {
  StreamingWindowDedup<std::uint64_t> dedup(2);
  const std::vector<std::uint64_t> a = {5, 7};
  const std::vector<std::uint64_t> b = collider(5, 7, 1);
  const std::vector<std::uint64_t> c = collider(5, 7, 2);
  for (const auto& w : {a, b, c}) {
    for (const std::uint64_t v : w) dedup.push(v);
  }
  // Sanity: the three windows really do share one rolling hash...
  const auto poly = [](const std::vector<std::uint64_t>& w) {
    return w[0] * kPolyHashBase + w[1];
  };
  ASSERT_EQ(poly(a), poly(b));
  ASSERT_EQ(poly(a), poly(c));
  // ...yet all three (plus the two bridging windows) are retained distinct.
  const auto& windows = dedup.windows();
  EXPECT_EQ(windows.size(), 5u);
  EXPECT_EQ(windows[0], a);
  ASSERT_TRUE(std::find(windows.begin(), windows.end(), b) != windows.end());
  ASSERT_TRUE(std::find(windows.begin(), windows.end(), c) != windows.end());
}

TEST(WindowDedupCollision, TrueDuplicateStillDedups) {
  StreamingWindowDedup<std::uint64_t> dedup(2);
  const std::vector<std::uint64_t> b = collider(5, 7, 1);
  // [5, 7] twice with the colliding window in between: the duplicate must
  // land in the same bucket, compare equal, and not be re-materialised.
  for (const std::uint64_t v : {std::uint64_t{5}, std::uint64_t{7}, b[0], b[1],
                                std::uint64_t{5}, std::uint64_t{7}}) {
    dedup.push(v);
  }
  std::size_t count_a = 0;
  for (const auto& w : dedup.windows()) {
    if (w == std::vector<std::uint64_t>({5, 7})) ++count_a;
  }
  EXPECT_EQ(count_a, 1u);
}

TEST(WindowDedupCollision, SegmenterMatchesBatchOnCollidingIds) {
  // PredId is 64-bit, so the engineered collisions flow through the real
  // segmenter; the reference segmenter compares whole windows in an ordered
  // set and hashes nothing, making this a genuine differential.
  const std::vector<std::uint64_t> b = collider(5, 7, 1);
  const std::vector<std::uint64_t> c = collider(5, 7, 2);
  const std::vector<PredId> seq = {5, 7, b[0], b[1], 5, 7, c[0], c[1], 5, 7};
  for (const std::size_t w : {std::size_t{2}, std::size_t{3}}) {
    StreamingSegmenter segmenter(w);
    for (const PredId p : seq) segmenter.push(p);
    EXPECT_EQ(segmenter.take(), oracle::segment_sequence(seq, w)) << "w=" << w;
  }
}

TEST(WindowDedupCollision, LongerWindowCollision) {
  // w = 3: hash = v0*B^2 + v1*B + v2; shifting weight between the first two
  // positions collides as well.
  StreamingWindowDedup<std::uint64_t> dedup(3);
  const std::vector<std::uint64_t> a = {3, 9, 4};
  const std::vector<std::uint64_t> b = {4, 9 - kPolyHashBase, 4};
  const auto poly = [](const std::vector<std::uint64_t>& w) {
    return (w[0] * kPolyHashBase + w[1]) * kPolyHashBase + w[2];
  };
  ASSERT_EQ(poly(a), poly(b));
  for (const auto& w : {a, b}) {
    for (const std::uint64_t v : w) dedup.push(v);
  }
  const auto& windows = dedup.windows();
  ASSERT_TRUE(std::find(windows.begin(), windows.end(), a) != windows.end());
  ASSERT_TRUE(std::find(windows.begin(), windows.end(), b) != windows.end());
}

std::size_t count_of(const std::vector<std::vector<PredId>>& windows,
                     const std::vector<PredId>& window) {
  return static_cast<std::size_t>(std::count(windows.begin(), windows.end(), window));
}

TEST(WindowDedupGrowth, ManyDistinctWindowsMatchReference) {
  // Over 100k distinct windows double the slot table many times; every
  // rehash must keep the stored windows findable and their first-occurrence
  // order. The stream runs twice, so the second copy is all duplicates
  // looked up in the grown table.
  Rng rng(99);
  std::vector<PredId> half(120000);
  for (auto& p : half) p = static_cast<PredId>(rng.below(2000));
  std::vector<PredId> seq = half;
  seq.insert(seq.end(), half.begin(), half.end());
  for (const std::size_t w : {std::size_t{2}, std::size_t{3}}) {
    StreamingWindowDedup<PredId> dedup(w);
    for (const PredId p : seq) dedup.push(p);
    const auto want = oracle::segment_sequence(seq, w);
    ASSERT_GE(want.size(), 50000u) << "w=" << w;
    EXPECT_EQ(dedup.windows(), want) << "w=" << w;
  }
}

TEST(WindowDedupGrowth, CollidingWindowsSurviveResizes) {
  // The colliding windows go in after the table has grown several times,
  // and more growth follows before they are looked up again.
  StreamingWindowDedup<PredId> dedup(2);
  std::vector<PredId> seq;
  for (PredId i = 0; i < 50000; ++i) seq.push_back(1000000 + i);
  const std::vector<PredId> a = {5, 7};
  const std::vector<PredId> b = collider(5, 7, 1);
  const std::vector<PredId> c = collider(5, 7, 2);
  for (const auto& w : {a, b, c}) seq.insert(seq.end(), w.begin(), w.end());
  for (PredId i = 0; i < 50000; ++i) seq.push_back(2000000 + i);
  for (const auto& w : {a, b, c}) seq.insert(seq.end(), w.begin(), w.end());
  for (const PredId p : seq) dedup.push(p);

  const auto& windows = dedup.windows();
  EXPECT_EQ(count_of(windows, a), 1u);
  EXPECT_EQ(count_of(windows, b), 1u);
  EXPECT_EQ(count_of(windows, c), 1u);
  EXPECT_EQ(windows, oracle::segment_sequence(seq, 2));
}

TEST(WindowDedupCollision, ComplianceTellsACollidingModelWordApart) {
  // The trace holds [5, 7]; the model's only word collides with it under the
  // window hash but differs, so it must be reported missing. The reverse:
  // a trace holding the collider accepts it and rejects [5, 7].
  const std::vector<PredId> b = collider(5, 7, 1);
  Nfa model(3);
  model.add_transition(0, b[0], 1);
  model.add_transition(1, b[1], 2);
  const ComplianceResult missing = ComplianceChecker({5, 7}, 2).check(model);
  EXPECT_FALSE(missing.compliant);
  EXPECT_EQ(missing.invalid_sequences, (std::set<std::vector<PredId>>{b}));
  EXPECT_EQ(missing.invalid_sequences,
            oracle::check_compliance(model, {5, 7}, 2).invalid_sequences);
  EXPECT_TRUE(ComplianceChecker(b, 2).check(model).compliant);

  Nfa other(3);
  other.add_transition(0, 5, 1);
  other.add_transition(1, 7, 2);
  EXPECT_FALSE(ComplianceChecker(b, 2).check(other).compliant);
}

TEST(Subwindows, ReadsEveryShorterWindowSetOffTheLongerOne) {
  // The base is the distinct length-m windows of P in first-occurrence
  // order, or [P] when P is shorter than m; its length-k subwindows must be
  // P's own distinct length-k windows, in P's first-occurrence order.
  Rng rng(17);
  for (int round = 0; round < 3000; ++round) {
    const std::size_t m = 1 + rng.below(6);
    const std::size_t k = 1 + rng.below(m);
    const std::size_t n = rng.below(m + 12);
    const std::size_t alphabet = 1 + rng.below(4);
    std::vector<PredId> seq(n);
    for (auto& p : seq) p = static_cast<PredId>(rng.below(alphabet));
    const auto base = n < m ? std::vector<std::vector<PredId>>{seq}
                            : oracle::segment_sequence(seq, m);
    const auto want = n < k ? std::vector<std::vector<PredId>>{}
                            : oracle::segment_sequence(seq, k);
    EXPECT_EQ(subwindows<PredId>(base, k).windows(), want)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

}  // namespace
}  // namespace t2m
