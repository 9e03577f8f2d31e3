#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "src/abstraction/abstraction.h"
#include "src/abstraction/event_abstraction.h"
#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/serial/serial_port.h"
#include "src/trace/recorder.h"
#include "tests/reference_oracles.h"

namespace t2m {
namespace {

std::vector<std::string> vocab_names(const PredicateSequence& p, const Schema& s) {
  return p.names_for(s);
}

bool has_name(const std::vector<std::string>& names, const std::string& want) {
  return std::find(names.begin(), names.end(), want) != names.end();
}

TEST(ModeSelection, FollowsSchema) {
  Schema events;
  events.add_cat("ev", {"a"}, "a");
  EXPECT_EQ(select_mode(events), AbstractionMode::Event);
  Schema numeric;
  numeric.add_int("x");
  EXPECT_EQ(select_mode(numeric), AbstractionMode::Numeric);
  Schema mixed;
  mixed.add_cat("ev", {"a"}, "a");
  mixed.add_int("x");
  EXPECT_EQ(select_mode(mixed), AbstractionMode::Mixed);
}

TEST(EventAbstraction, OnePredicatePerStepWithDisplayNames) {
  TraceRecorder rec;
  const VarIndex ev = rec.declare_cat("ev", {"a", "b", "c"}, "a");
  for (const char* e : {"a", "b", "c", "b", "c"}) {
    rec.set_sym(ev, e);
    rec.commit();
  }
  const Trace trace = rec.take();
  const PredicateSequence p = abstract_trace(trace);
  EXPECT_EQ(p.length(), 4u);  // n-1 steps
  EXPECT_EQ(p.vocab.size(), 2u);  // only b and c are step destinations
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "b"));
  EXPECT_TRUE(has_name(names, "c"));
  // Repeating pattern shares ids.
  EXPECT_EQ(p.seq[0], p.seq[2]);
  EXPECT_EQ(p.seq[1], p.seq[3]);
}

TEST(EventAbstraction, TooShortThrows) {
  TraceRecorder rec;
  rec.declare_cat("ev", {"a"}, "a");
  rec.commit();
  EXPECT_THROW(abstract_trace(rec.take()), std::invalid_argument);
}

TEST(EventAbstraction, MatchesPerStepReference) {
  // Two categorical variables whose valuations repeat, interleaved with
  // steps that change only one of them: the memoised abstraction must
  // intern the same predicates, in the same order, with the same names, as
  // building every step afresh.
  TraceRecorder rec;
  const VarIndex op = rec.declare_cat("op", {"rd", "wr", "idle"}, "idle");
  const VarIndex dev = rec.declare_cat("dev", {"d0", "d1"}, "d0");
  const std::pair<const char*, const char*> steps[] = {
      {"rd", "d0"}, {"wr", "d0"}, {"rd", "d1"}, {"rd", "d0"}, {"wr", "d0"},
      {"idle", "d1"}, {"rd", "d1"}, {"wr", "d1"}, {"rd", "d0"}, {"idle", "d1"},
      {"idle", "d1"}, {"wr", "d0"}};
  for (const auto& [o, d] : steps) {
    rec.set_sym(op, o);
    rec.set_sym(dev, d);
    rec.commit();
  }
  const Trace trace = rec.take();
  const PredicateSequence got = abstract_event_trace(trace, {});
  const PredicateSequence want = oracle::abstract_event_trace(trace);

  EXPECT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.vocab.size(), want.vocab.size());
  for (PredId id = 0; id < want.vocab.size(); ++id) {
    EXPECT_TRUE(ExprPtrEqual{}(got.vocab.expr(id), want.vocab.expr(id))) << "pred " << id;
  }
  EXPECT_EQ(got.display_names, want.display_names);
  EXPECT_EQ(got.display_names.front(), "wr & d0");
  EXPECT_LT(want.vocab.size(), want.seq.size());  // the valuations do repeat
}

TEST(EventAbstraction, RejectsLikeTheReference) {
  const auto message = [](const auto& abstract, const Trace& trace) {
    try {
      abstract(trace);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  const auto library = [](const Trace& t) { return abstract_event_trace(t, {}); };
  const auto reference = [](const Trace& t) { return oracle::abstract_event_trace(t); };

  TraceRecorder numeric;
  const VarIndex x = numeric.declare_int("x");
  for (const std::int64_t v : {1, 2, 3}) {
    numeric.set_int(x, v);
    numeric.commit();
  }
  const Trace numeric_trace = numeric.take();
  EXPECT_EQ(message(library, numeric_trace),
            "event abstraction requires all-categorical schema");
  EXPECT_EQ(message(library, numeric_trace), message(reference, numeric_trace));

  TraceRecorder single;
  single.declare_cat("ev", {"a"}, "a");
  single.commit();
  const Trace single_trace = single.take();
  EXPECT_EQ(message(library, single_trace),
            "event abstraction: trace needs at least two observations");
  EXPECT_EQ(message(library, single_trace), message(reference, single_trace));
}

TEST(NumericAbstraction, CounterVocabularyMatchesFig5) {
  const Trace trace = sim::generate_counter_trace({128, 447, 1});
  const PredicateSequence p = abstract_trace(trace);
  EXPECT_EQ(p.length(), trace.size() + 1 - 3);  // k = n + 1 - w
  const auto names = vocab_names(p, trace.schema());
  ASSERT_EQ(names.size(), 4u);
  EXPECT_TRUE(has_name(names, "x' = x + 1"));
  EXPECT_TRUE(has_name(names, "x' = x - 1"));
  EXPECT_TRUE(has_name(names, "x >= 128"));
  EXPECT_TRUE(has_name(names, "x <= 1"));
}

TEST(NumericAbstraction, CounterGuardsNotMerged) {
  // Peak and trough guards have different contexts and must stay separate.
  const Trace trace = sim::generate_counter_trace({16, 200, 1});
  AbstractionConfig config;
  config.merge_guards = true;
  const PredicateSequence p = abstract_trace(trace, config);
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "x >= 16"));
  EXPECT_TRUE(has_name(names, "x <= 1"));
}

TEST(NumericAbstraction, IntegratorGuardsMergeIntoDisjunction) {
  sim::IntegratorConfig config;
  config.length = 20000;
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {sim::integrator_input_var()};
  const PredicateSequence p = abstract_trace(trace, abs);
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "op' = op"));
  EXPECT_TRUE(has_name(names, "op' = op + ip"));
  bool merged_guard = false;
  for (const auto& n : names) {
    if (n.find("||") != std::string::npos && n.find("5") != std::string::npos) {
      merged_guard = true;
    }
  }
  EXPECT_TRUE(merged_guard) << "saturation guards should merge into a disjunction";
}

TEST(NumericAbstraction, MergeCanBeDisabled) {
  sim::IntegratorConfig config;
  config.length = 20000;
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {sim::integrator_input_var()};
  abs.merge_guards = false;
  const PredicateSequence p = abstract_trace(trace, abs);
  for (const auto& n : vocab_names(p, trace.schema())) {
    EXPECT_EQ(n.find("||"), std::string::npos) << n;
  }
}

TEST(NumericAbstraction, WindowSizeControlsSequenceLength) {
  const Trace trace = sim::generate_counter_trace({8, 50, 1});
  for (const std::size_t w : {2u, 3u, 4u, 5u}) {
    AbstractionConfig config;
    config.window = w;
    const PredicateSequence p = abstract_trace(trace, config);
    EXPECT_EQ(p.length(), trace.size() + 1 - w) << "w=" << w;
  }
}

TEST(NumericAbstraction, InputVarGetsNoUpdateAtom) {
  sim::IntegratorConfig config;
  config.length = 5000;
  const Trace trace = sim::generate_integrator_trace(config);
  AbstractionConfig abs;
  abs.input_vars = {"ip"};
  const PredicateSequence p = abstract_trace(trace, abs);
  for (const auto& n : vocab_names(p, trace.schema())) {
    EXPECT_EQ(n.find("ip' ="), std::string::npos) << n;
  }
}

TEST(NumericAbstraction, RejectsCategoricalVariables) {
  TraceRecorder rec;
  rec.declare_cat("ev", {"a"}, "a");
  rec.commit();
  rec.commit();
  AbstractionConfig config;
  EXPECT_THROW(abstract_trace(rec.take(), config, AbstractionMode::Numeric),
               std::invalid_argument);
}

TEST(MixedAbstraction, SerialAtoms) {
  sim::SerialPortConfig config;
  config.operations = 400;
  const Trace trace = sim::generate_serial_trace(config);
  const PredicateSequence p = abstract_trace(trace);
  EXPECT_EQ(p.length(), trace.num_steps());
  const auto names = vocab_names(p, trace.schema());
  EXPECT_TRUE(has_name(names, "read"));
  EXPECT_TRUE(has_name(names, "write"));
  EXPECT_TRUE(has_name(names, "reset"));
  EXPECT_TRUE(has_name(names, "x' = x - 1"));
  EXPECT_TRUE(has_name(names, "x' = x + 1"));
  EXPECT_TRUE(has_name(names, "x' = 0"));
}

TEST(MixedAbstraction, EventAndEffectAlternate) {
  sim::SerialPortConfig config;
  config.operations = 100;
  const Trace trace = sim::generate_serial_trace(config);
  const PredicateSequence p = abstract_trace(trace);
  const auto names = vocab_names(p, trace.schema());
  // Even positions (0-based) are operation events, odd are data effects.
  for (std::size_t i = 0; i + 1 < p.length(); i += 2) {
    const std::string& ev = names[p.seq[i]];
    EXPECT_TRUE(ev == "read" || ev == "write" || ev == "reset") << i << ": " << ev;
    const std::string& effect = names[p.seq[i + 1]];
    EXPECT_NE(effect.find("x'"), std::string::npos) << i + 1 << ": " << effect;
  }
}

TEST(Compaction, DropsUnusedVocabulary) {
  PredicateSequence p;
  const PredId a = p.vocab.intern(Expr::int_const(1));
  const PredId b = p.vocab.intern(Expr::int_const(2));
  (void)a;
  p.seq = {b, b};
  compact_sequence(p);
  EXPECT_EQ(p.vocab.size(), 1u);
  EXPECT_EQ(p.seq, (std::vector<PredId>{0, 0}));
}

}  // namespace
}  // namespace t2m
