#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <vector>

#include "src/base/status.h"
#include "src/util/cli.h"
#include "src/util/csv.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/string_utils.h"

namespace t2m {
namespace {

TEST(StringUtils, Split) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split_ws("  a\t b \n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtils, TrimAndAffixes) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(ends_with("abcdef", "def"));
  EXPECT_FALSE(ends_with("ef", "def"));
}

TEST(StringUtils, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.1234, 2), "0.12");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a2.next() != c2.next());
  EXPECT_TRUE(differ);
}

TEST(Rng, RangeAndUnitBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Deadline, NeverAndFinite) {
  const Deadline never = Deadline::never();
  EXPECT_FALSE(never.expired());
  EXPECT_TRUE(std::isinf(never.remaining_seconds()));
  const Deadline past = Deadline::after_seconds(-1.0);
  EXPECT_TRUE(past.expired());
  const Deadline future = Deadline::after_seconds(60.0);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_seconds(), 0.0);
}

TEST(RunBudget, DefaultNeverStops) {
  const RunBudget budget;
  EXPECT_FALSE(budget.cancelled());
  EXPECT_FALSE(budget.should_stop());
}

TEST(RunBudget, ReasonPrefersCancelledOverDeadline) {
  std::atomic<bool> stop{true};
  const RunBudget both(Deadline::after_seconds(-1.0), &stop);
  EXPECT_TRUE(both.should_stop());
  EXPECT_EQ(both.reason(), ErrorCode::cancelled);
  EXPECT_EQ(both.stop_status("ingest").message(), "ingest was cancelled");
  const RunBudget clock_only(Deadline::after_seconds(-1.0));
  EXPECT_TRUE(clock_only.should_stop());
  EXPECT_EQ(clock_only.reason(), ErrorCode::deadline_exceeded);
  EXPECT_EQ(clock_only.stop_status("ingest").message(), "ingest exceeded the learn deadline");
}

TEST(RunBudget, LaneBudgetReadsBothFlags) {
  std::atomic<bool> stop{false};
  std::atomic<bool> race{false};
  const RunBudget caller(Deadline::never(), &stop);
  const RunBudget lane = caller.with_race(&race);
  EXPECT_FALSE(lane.should_stop());
  race.store(true);
  EXPECT_TRUE(lane.should_stop());
  EXPECT_FALSE(caller.should_stop());
  race.store(false);
  stop.store(true);
  EXPECT_TRUE(lane.should_stop());
  EXPECT_EQ(lane.reason(), ErrorCode::cancelled);
}

TEST(BudgetPoll, RaisedFlagIsSeenOnTheNextPoll) {
  std::atomic<bool> stop{false};
  const RunBudget budget(Deadline::never(), &stop);
  BudgetPoll poll(budget, 1024);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(poll());
  stop.store(true);
  // Mid-interval: the flag is read on every call, not only on clock ticks.
  EXPECT_TRUE(poll());
  EXPECT_TRUE(poll());
}

TEST(BudgetPoll, ExpiredDeadlineIsSeenOnFirstPollThenOnIntervalTicks) {
  const RunBudget budget(Deadline::after_seconds(-1.0));
  BudgetPoll poll(budget, 4);
  std::vector<bool> seen;
  for (int i = 0; i < 9; ++i) seen.push_back(poll());
  EXPECT_EQ(seen, (std::vector<bool>{true, false, false, false, true, false, false, false,
                                     true}));
}

TEST(BudgetPoll, CheckThrowsTheBudgetsVerdict) {
  std::atomic<bool> stop{false};
  const RunBudget budget(Deadline::never(), &stop);
  BudgetPoll poll(budget, 64);
  EXPECT_NO_THROW(poll.check("trace ingest"));
  stop.store(true);
  try {
    poll.check("trace ingest");
    FAIL() << "a raised flag must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::cancelled);
    EXPECT_EQ(e.status().message(), "trace ingest was cancelled");
  }
}

TEST(Stopwatch, MonotoneElapsed) {
  Stopwatch watch;
  const double t1 = watch.elapsed_seconds();
  const double t2 = watch.elapsed_seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
  watch.restart();
  EXPECT_GE(watch.elapsed_ms(), 0);
}

TEST(TableWriter, AsciiAndCsv) {
  TableWriter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream ascii;
  table.write_ascii(ascii);
  EXPECT_NE(ascii.str().find("| alpha | 1     |"), std::string::npos);
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,22\n");
}

TEST(TableWriter, CsvQuotesSpecialCharacters) {
  // Regression: fields containing ',', '"' or newlines were emitted
  // unquoted, producing corrupt CSV. RFC 4180: quote such fields and double
  // embedded quotes.
  TableWriter table({"name", "value"});
  table.add_row({"a,b", "plain"});
  table.add_row({"say \"hi\"", "line\nbreak"});
  table.add_row({"cr\rhere", "both\",\n"});
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "name,value\n"
            "\"a,b\",plain\n"
            "\"say \"\"hi\"\"\",\"line\nbreak\"\n"
            "\"cr\rhere\",\"both\"\",\n\"\n");
}

TEST(TableWriter, RejectsBadRows) {
  TableWriter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TableWriter({}), std::invalid_argument);
}

TEST(CliArgs, FlagsAndPositionals) {
  const char* argv[] = {"prog", "learn", "--trace", "t.txt", "--window=5",
                        "--verbose", "--timeout", "2.5"};
  const CliArgs args(8, argv);
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"learn"}));
  EXPECT_EQ(args.get_or("trace", ""), "t.txt");
  EXPECT_EQ(args.get_int_or("window", 3), 5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_DOUBLE_EQ(args.get_double_or("timeout", 0.0), 2.5);
  EXPECT_EQ(args.get_int_or("absent", 9), 9);
  EXPECT_FALSE(args.get("absent").has_value());
}

TEST(CliArgs, MalformedNumbersThrowDiagnosticsInsteadOfCrashing) {
  // Regression: get_int_or/get_double_or called std::stoll/std::stod on the
  // raw flag value; `--window banana` crashed with an uncaught exception.
  // The examples and the t2m tool catch std::exception at main and print
  // the message, so a clean invalid_argument naming the flag is the
  // user-visible error path.
  const char* argv[] = {"prog",        "--window",  "banana", "--timeout", "fast",
                        "--trailing",  "12x",       "--huge", "99999999999999999999"};
  const CliArgs args(9, argv);
  EXPECT_THROW(args.get_int_or("window", 3), std::invalid_argument);
  EXPECT_THROW(args.get_double_or("timeout", 0.0), std::invalid_argument);
  // Trailing garbage is rejected, not truncated.
  EXPECT_THROW(args.get_int_or("trailing", 0), std::invalid_argument);
  // Out-of-range is a diagnostic too, not UB or std::out_of_range.
  EXPECT_THROW(args.get_int_or("huge", 0), std::invalid_argument);
  // Explicit '+' signs, which the old stoll/stod parsers accepted, still do.
  const char* signed_argv[] = {"prog", "--window", "+5", "--timeout", "+2.5",
                               "--plus", "+",      "--plusminus", "+-3"};
  const CliArgs signed_args(9, signed_argv);
  EXPECT_EQ(signed_args.get_int_or("window", 0), 5);
  EXPECT_DOUBLE_EQ(signed_args.get_double_or("timeout", 0.0), 2.5);
  EXPECT_THROW(signed_args.get_int_or("plus", 0), std::invalid_argument);
  EXPECT_THROW(signed_args.get_int_or("plusminus", 0), std::invalid_argument);
  try {
    args.get_int_or("window", 3);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("window"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
}

}  // namespace
}  // namespace t2m
