// Portfolio CEGIS driver: racing solver configurations must agree on the
// learned state count, record per-configuration stats, cancel losers through
// the stop flag, and leave the winner's artefacts intact. Plus the parallel
// compliance check's differential against the sequential DFS and the solver
// knobs the portfolio diversifies.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "src/abstraction/abstraction.h"
#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/core/portfolio.h"
#include "src/sim/basic/counter.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/serial/serial_port.h"
#include "src/util/rng.h"
#include "tests/stop_after_pass.h"

namespace t2m {
namespace {

TEST(PortfolioConfigs, GeneratesDistinctNamedLanes) {
  LearnerConfig base;
  const auto variants = portfolio_configs(base, 6);
  ASSERT_EQ(variants.size(), 6u);
  for (const auto& v : variants) {
    EXPECT_FALSE(v.name.empty());
    EXPECT_EQ(v.config.portfolio, 0u) << "workers must not recurse";
    EXPECT_EQ(v.config.threads, 1u);
  }
  // Lane 0 is the base configuration; lane 1 flips the solving mode.
  EXPECT_EQ(variants[0].config.persistent_solver, base.persistent_solver);
  EXPECT_EQ(variants[1].config.persistent_solver, !base.persistent_solver);
  // Reseeded lanes actually differ in seed.
  EXPECT_NE(variants[4].config.solver.seed, variants[0].config.solver.seed);
}

TEST(PortfolioConfigs, ClampsToARace) {
  EXPECT_EQ(portfolio_configs(LearnerConfig{}, 0).size(), 2u);
  EXPECT_EQ(portfolio_configs(LearnerConfig{}, 1).size(), 2u);
}

TEST(Portfolio, LearnsSameStateCountAsSequential) {
  for (const Trace& trace :
       {sim::generate_counter_trace({}), sim::generate_serial_trace({})}) {
    LearnerConfig config;
    const LearnResult reference = ModelLearner(config).learn(trace);
    ASSERT_TRUE(reference.success);

    LearnerConfig race = config;
    race.portfolio = 4;
    const LearnResult raced = ModelLearner(race).learn(trace);
    ASSERT_TRUE(raced.success);
    // Any winning configuration finds the same (minimal) state count; the
    // wiring may differ between configurations.
    EXPECT_EQ(raced.states, reference.states);

    // Per-configuration stats: exactly one winner, every lane recorded.
    ASSERT_EQ(raced.stats.portfolio.size(), 4u);
    int winners = 0;
    for (const auto& entry : raced.stats.portfolio) {
      if (entry.winner) {
        ++winners;
        EXPECT_TRUE(entry.status.ok());
        EXPECT_EQ(entry.states, raced.states);
      }
      EXPECT_FALSE(entry.name.empty());
    }
    EXPECT_EQ(winners, 1);
    // Headline counters aggregate the whole race: at least the winner's own
    // SAT calls are in there.
    std::size_t winner_calls = 0;
    for (const auto& entry : raced.stats.portfolio) {
      if (entry.winner) winner_calls = entry.sat_calls;
    }
    EXPECT_GE(raced.stats.sat_calls, winner_calls);
  }
}

TEST(Portfolio, RtlinuxRaceAgreesWithSequential) {
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  LearnerConfig config;
  const LearnResult reference = ModelLearner(config).learn(trace);
  LearnerConfig race = config;
  race.portfolio = 3;
  const LearnResult raced = ModelLearner(race).learn(trace);
  ASSERT_TRUE(reference.success);
  ASSERT_TRUE(raced.success);
  EXPECT_EQ(raced.states, reference.states);
}

TEST(Portfolio, CallerStopFlagCancelsTheWholeRace) {
  // LearnerConfig::stop must keep working when the portfolio substitutes
  // its own race flag: the driver relays the caller's flag into the race.
  // The flag goes up once the ingest pass is done, so the race is what it
  // cancels.
  const Trace trace = sim::generate_counter_trace({});
  std::atomic<bool> stop{false};
  StopAfterPassStream stream(trace, stop);
  LearnerConfig config;
  config.stop = &stop;
  config.portfolio = 3;
  const LearnResult result = ModelLearner(config).learn_from_stream(stream);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status.code(), ErrorCode::cancelled);
  ASSERT_EQ(result.stats.portfolio.size(), 3u);
  for (const auto& entry : result.stats.portfolio) {
    EXPECT_FALSE(entry.winner);
    EXPECT_EQ(entry.status.code(), ErrorCode::cancelled);
  }
}

TEST(Portfolio, StopFlagCancelsLearn) {
  // A pre-raised stop flag cancels the run before any real work.
  std::atomic<bool> stop{true};
  LearnerConfig config;
  config.stop = &stop;
  const LearnResult result =
      ModelLearner(config).learn(sim::generate_counter_trace({}));
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status.code(), ErrorCode::cancelled);
}

TEST(Portfolio, SolverKnobsKeepVerdictsIdentical) {
  // The diversification axes change the search path, never the verdict or
  // the minimal state count.
  const Trace trace = sim::generate_counter_trace({});
  LearnerConfig base;
  const LearnResult reference = ModelLearner(base).learn(trace);
  ASSERT_TRUE(reference.success);
  for (const auto& variant : portfolio_configs(base, 4)) {
    const LearnResult got = ModelLearner(variant.config).learn(trace);
    ASSERT_TRUE(got.success) << variant.name;
    EXPECT_EQ(got.states, reference.states) << variant.name;
  }
}

// --- parallel compliance ---------------------------------------------------

Nfa random_model(Rng& rng, std::size_t max_states, std::size_t alphabet) {
  Nfa model(1 + rng.below(max_states));
  const std::size_t edges = rng.below(3 * model.num_states() + 1);
  for (std::size_t e = 0; e < edges; ++e) {
    model.add_transition(rng.below(model.num_states()),
                         static_cast<PredId>(rng.below(alphabet)),
                         rng.below(model.num_states()));
  }
  return model;
}

TEST(ParallelCompliance, MatchesSequentialOnRandomisedCases) {
  Rng rng(909);
  for (int round = 0; round < 300; ++round) {
    const std::size_t l = rng.below(4);  // includes l == 0
    const std::size_t length = rng.below(60);
    const std::size_t alphabet = 1 + rng.below(5);
    std::vector<PredId> seq(length);
    for (auto& p : seq) p = static_cast<PredId>(rng.below(alphabet));

    ComplianceChecker sequential(seq, l);
    ComplianceChecker parallel(seq, l);
    parallel.set_threads(4);

    const Nfa model = random_model(rng, 6, alphabet + 1);
    const ComplianceResult a = sequential.check(model);
    const ComplianceResult b = parallel.check(model);
    ASSERT_EQ(a.compliant, b.compliant) << "round " << round;
    ASSERT_EQ(a.invalid_sequences, b.invalid_sequences) << "round " << round;
    ASSERT_EQ(a.model_sequences, b.model_sequences) << "round " << round;
    ASSERT_EQ(a.trace_sequences, b.trace_sequences) << "round " << round;
  }
}

TEST(ParallelCompliance, WidePredicatesUseVectorPathInParallelToo) {
  const std::vector<PredId> seq = {1ull << 40, 2, 1ull << 40, 3, 2, 1ull << 40};
  ComplianceChecker sequential(seq, 3);
  ComplianceChecker parallel(seq, 3);
  parallel.set_threads(3);
  Nfa model(4);
  model.add_transition(0, 1ull << 40, 1);
  model.add_transition(1, 2, 2);
  model.add_transition(2, 1ull << 40, 3);
  model.add_transition(3, 3, 0);
  const ComplianceResult a = sequential.check(model);
  const ComplianceResult b = parallel.check(model);
  EXPECT_EQ(a.compliant, b.compliant);
  EXPECT_EQ(a.invalid_sequences, b.invalid_sequences);
  EXPECT_EQ(a.model_sequences, b.model_sequences);
}

TEST(ParallelCompliance, LearnerWithThreadsMatchesSequentialLearn) {
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  LearnerConfig config;
  const LearnResult reference = ModelLearner(config).learn(trace);
  LearnerConfig threaded = config;
  threaded.threads = 4;
  const LearnResult got = ModelLearner(threaded).learn(trace);
  ASSERT_TRUE(reference.success);
  ASSERT_TRUE(got.success);
  EXPECT_EQ(got.states, reference.states);
  EXPECT_EQ(got.model.transitions(), reference.model.transitions());
  EXPECT_EQ(got.stats.sat_calls, reference.stats.sat_calls);
}

// --- learner-level early stop ---------------------------------------------

TEST(CoreDrivenStop, NormalRunsNeverFireAndStaySuccessful) {
  LearnerConfig config;
  ASSERT_TRUE(config.core_driven_stop);  // default on
  const LearnResult result = ModelLearner(config).learn(sim::generate_counter_trace({}));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.core_stops, 0u);
}

}  // namespace
}  // namespace t2m
