#include <gtest/gtest.h>

#include <atomic>

#include "src/core/compliance.h"
#include "src/core/learner.h"
#include "src/abstraction/event_stream.h"
#include "src/core/report.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/trace/mmap_io.h"
#include "src/trace/recorder.h"

namespace t2m {
namespace {

Trace event_trace(const std::vector<std::string>& events,
                  const std::vector<std::string>& alphabet) {
  TraceRecorder rec;
  std::vector<std::string> symbols = alphabet;
  symbols.insert(symbols.begin(), "__start");
  const VarIndex ev = rec.declare_cat("ev", std::move(symbols), "__start");
  rec.commit();
  for (const auto& e : events) {
    rec.set_sym(ev, e);
    rec.commit();
  }
  return rec.take();
}

TEST(Compliance, DetectsInvalidSequences) {
  Nfa m(2, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(1, 1, 0);
  m.add_transition(1, 0, 1);  // allows (0,0) via 0->1->1
  const std::vector<PredId> seq = {0, 1, 0, 1};
  const ComplianceResult r = check_compliance(m, seq, 2);
  EXPECT_FALSE(r.compliant);
  EXPECT_TRUE(r.invalid_sequences.count({0, 0}));
}

TEST(Compliance, PassesWhenModelMatchesSequence) {
  Nfa m(2, 0);
  m.add_transition(0, 0, 1);
  m.add_transition(1, 1, 0);
  const std::vector<PredId> seq = {0, 1, 0, 1};
  EXPECT_TRUE(check_compliance(m, seq, 2).compliant);
}

TEST(Learner, SimpleCycle) {
  const Trace t = event_trace({"a", "b", "c", "a", "b", "c", "a", "b", "c"},
                              {"a", "b", "c"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.states, 3u);
  EXPECT_EQ(r.model.num_transitions(), 3u);
}

TEST(Learner, SelfLoopCollapsesToOneState) {
  const Trace t = event_trace({"a", "a", "a", "a", "a", "a"}, {"a"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.states, 2u);  // search starts at N=2; a self-loop fits
}

TEST(Learner, RefinementForcesLargerModel) {
  // a-b alternation with a distinguished prefix: aab ab ab ... A 2-state
  // model allowing (a,a) everywhere fails compliance against tails.
  const Trace t = event_trace({"a", "b", "a", "b", "c", "a", "b", "c"},
                              {"a", "b", "c"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  // Whatever N, the result must pass its own compliance check.
  const ComplianceResult c =
      check_compliance(r.model, r.preds.seq, learner.config().compliance_length);
  EXPECT_TRUE(c.compliant);
  EXPECT_TRUE(r.model.deterministic_per_predicate());
}

TEST(Learner, ModelEmbedsEverySegment) {
  const Trace t = event_trace({"a", "b", "a", "c", "a", "b", "a", "c"},
                              {"a", "b", "c"});
  const ModelLearner learner;
  const LearnResult r = learner.learn(t);
  ASSERT_TRUE(r.success);
  // The full predicate sequence must be accepted from the initial state:
  // the chained windows pin the run through the whole trace.
  EXPECT_TRUE(r.model.accepts(r.preds.seq));
}

TEST(Learner, NonSegmentedAgreesOnSmallInput) {
  const Trace t = event_trace({"a", "b", "c", "a", "b", "c", "a", "b", "c"},
                              {"a", "b", "c"});
  LearnerConfig seg_config;
  seg_config.segmented = true;
  LearnerConfig full_config;
  full_config.segmented = false;
  const LearnResult seg = ModelLearner(seg_config).learn(t);
  const LearnResult full = ModelLearner(full_config).learn(t);
  ASSERT_TRUE(seg.success);
  ASSERT_TRUE(full.success);
  EXPECT_EQ(seg.states, full.states);
}

TEST(Learner, WindowSweepLearnsSameCycle) {
  // The paper reports identical automata across window choices for their
  // benchmarks; verify on the simple cycle for several w.
  const std::vector<std::string> events = {"a", "b", "c", "a", "b", "c",
                                           "a", "b", "c", "a", "b", "c"};
  for (const std::size_t w : {2u, 3u, 4u, 5u}) {
    LearnerConfig config;
    config.window = w;
    const LearnResult r = ModelLearner(config).learn(event_trace(events, {"a", "b", "c"}));
    ASSERT_TRUE(r.success) << "w=" << w;
    EXPECT_EQ(r.states, 3u) << "w=" << w;
  }
}

TEST(Learner, InitialStatesRespected) {
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  LearnerConfig config;
  config.initial_states = 4;  // start searching above the minimum
  const LearnResult r = ModelLearner(config).learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.states, 4u);
}

TEST(Learner, TimeoutReported) {
  // An effectively-zero budget must time out, not crash.
  std::vector<std::string> events;
  const char* alphabet[] = {"a", "b", "c", "d", "e"};
  for (int i = 0; i < 2000; ++i) {
    events.push_back(alphabet[(i * i + i / 7) % 5]);
  }
  LearnerConfig config;
  config.timeout_seconds = 1e-9;
  const LearnResult r =
      ModelLearner(config).learn(event_trace(events, {"a", "b", "c", "d", "e"}));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status.code(), ErrorCode::deadline_exceeded);
}

TEST(Learner, CutShortRunsReadTheSameInReportAndSummary) {
  // Every way a run can be cut short carries its own status code, and the
  // full report ("learning <outcome> after ...") and the one-line summary
  // ("<outcome> (...)") name the same outcome for it.
  const auto expect_outcome = [](ErrorCode code, const LearnerConfig& config,
                                 const Trace& trace) {
    const LearnResult r = ModelLearner(config).learn(trace);
    const std::string name = error_code_name(code);
    ASSERT_FALSE(r.success) << name;
    EXPECT_EQ(r.status.code(), code) << name;
    EXPECT_TRUE(cut_short(r.status.code())) << name;

    const std::string report = format_learn_report(r, trace.schema());
    const std::string lead = "learning ";
    const std::size_t after = report.find(" after ");
    ASSERT_EQ(report.rfind(lead, 0), 0u) << report;
    ASSERT_NE(after, std::string::npos) << report;
    const std::string outcome = report.substr(lead.size(), after - lead.size());
    const std::string summary = format_learn_summary(r);
    EXPECT_EQ(summary.rfind(outcome, 0), 0u)
        << name << ": report says '" << outcome << "', summary says '" << summary << "'";
  };
  const Trace small = event_trace({"a", "b", "a", "b", "c", "a", "b", "c", "a", "c",
                                   "b", "a", "c", "b"},
                                  {"a", "b", "c"});

  LearnerConfig deadline;  // expires before the first solve: the learner's poll
  deadline.timeout_seconds = 1e-9;
  expect_outcome(ErrorCode::deadline_exceeded, deadline, small);

  std::atomic<bool> raised{true};
  LearnerConfig cancelled;
  cancelled.stop = &raised;
  expect_outcome(ErrorCode::cancelled, cancelled, small);

  LearnerConfig clause_budget;
  clause_budget.max_clauses = 64;
  clause_budget.persistent_solver = false;
  expect_outcome(ErrorCode::clause_budget, clause_budget, small);

  LearnerConfig memory;
  memory.max_memory_bytes = 4096;
  expect_outcome(ErrorCode::resource_exhausted, memory,
                 sim::generate_full_coverage_sched_trace(2000));
}

TEST(Learner, MaxStatesBoundsSearch) {
  const Trace t = event_trace({"a", "b", "c", "d", "a", "b", "c", "d"},
                              {"a", "b", "c", "d"});
  LearnerConfig config;
  config.max_states = 1;
  const LearnResult r = ModelLearner(config).learn(t);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.status.ok());
}

TEST(Learner, StatsAreConsistent) {
  const Trace t = event_trace({"a", "b", "a", "b", "a", "b"}, {"a", "b"});
  const LearnResult r = ModelLearner().learn(t);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.sequence_length, 6u);
  EXPECT_GT(r.stats.segments, 0u);
  EXPECT_GE(r.stats.sat_calls, 1u);
  EXPECT_GE(r.stats.total_seconds, 0.0);
}

TEST(Learner, PredNamesAttachedToModel) {
  const Trace t = event_trace({"a", "b", "a", "b"}, {"a", "b"});
  const LearnResult r = ModelLearner().learn(t);
  ASSERT_TRUE(r.success);
  std::set<std::string> labels;
  for (const Transition& tr : r.model.transitions()) {
    labels.insert(r.model.pred_name(tr.pred));
  }
  EXPECT_TRUE(labels.count("a"));
  EXPECT_TRUE(labels.count("b"));
}

TEST(Learner, RejectedInputIsAParseErrorVerdict) {
  // Entry points return a verdict, never throw: input the abstraction or the
  // ingest pass rejects ends the learn with parse_error.
  const ModelLearner learner;
  const LearnResult one_observation = learner.learn(event_trace({}, {"a"}));
  EXPECT_FALSE(one_observation.success);
  EXPECT_EQ(one_observation.status.code(), ErrorCode::parse_error);
  EXPECT_NE(one_observation.status.message().find("at least two observations"),
            std::string::npos);

  LineReader lines(std::string_view("100.000001 only\n"), LineReader::from_memory);
  FtracePredStream stream(lines);
  const LearnResult short_stream = learner.learn_from_stream(stream);
  EXPECT_FALSE(short_stream.success);
  EXPECT_EQ(short_stream.status.code(), ErrorCode::parse_error);
  EXPECT_NE(short_stream.status.message().find("at least two observations"),
            std::string::npos);

  LearnerConfig config;
  config.window = 0;
  const LearnResult no_window =
      ModelLearner(config).learn(event_trace({"a", "b", "a"}, {"a", "b"}));
  EXPECT_FALSE(no_window.success);
  EXPECT_EQ(no_window.status.code(), ErrorCode::parse_error);
  EXPECT_NE(no_window.status.message().find("window must be positive"), std::string::npos);

  // l = 0 would loop forever: the empty word is reported missing, and no
  // forbidden-sequence constraint can exclude it.
  config.window = 3;
  config.compliance_length = 0;
  const LearnResult no_compliance =
      ModelLearner(config).learn(event_trace({"a", "b", "a"}, {"a", "b"}));
  EXPECT_FALSE(no_compliance.success);
  EXPECT_EQ(no_compliance.status.code(), ErrorCode::parse_error);
  EXPECT_NE(no_compliance.status.message().find("compliance length must be positive"),
            std::string::npos);
}

}  // namespace
}  // namespace t2m
