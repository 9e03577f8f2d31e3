// Concurrency stress for the annotated sync layer (docs/concurrency.md):
// the components the thread-safety audit certifies — pool, task groups,
// logger sink swaps, metrics registry, heartbeat, tracer, portfolio race —
// hammered together under the sanitizer jobs (TSan is where these tests
// earn their keep; on plain builds they are fast smoke checks). Also holds
// the regression for the portfolio coordinator stall the audit fixed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/learner.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/obs/validate.h"
#include "src/parallel/thread_pool.h"
#include "src/sim/basic/counter.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"
#include "src/util/sync.h"

namespace t2m {
namespace {

/// Restores global observability state on scope exit (mirrors test_obs.cpp).
struct ObsQuiescent {
  ~ObsQuiescent() {
    obs::Tracer::instance().stop();
    obs::MetricsRegistry::global().disable();
    obs::Progress::global().disable();
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::Warn);
  }
};

TEST(ConcurrencyStress, PortfolioUnderFullObservability) {
  // The worst-case lock interleaving the library offers: a portfolio race
  // (pool + task group + stop flags) with the tracer, metrics, progress and
  // a fast heartbeat all live, plus a capturing logger sink — every
  // capability in the lock hierarchy is exercised concurrently.
  const ObsQuiescent guard;
  obs::Tracer::instance().start();
  obs::MetricsRegistry::global().enable();
  obs::Progress::global().enable();
  Logger::instance().set_level(LogLevel::Info);
  Mutex lines_mutex;
  std::vector<std::string> lines;
  Logger::instance().set_sink([&](LogLevel, const std::string& line) {
    const MutexLock lock(lines_mutex);
    lines.push_back(line);
  });

  obs::Progress::global().begin_run(Deadline::never());
  const obs::Heartbeat heartbeat(0.005);
  LearnerConfig config;
  config.portfolio = 3;
  const LearnResult result =
      ModelLearner(config).learn(sim::generate_counter_trace({}));
  EXPECT_TRUE(result.success);

  obs::Tracer::instance().stop();
  std::ostringstream os;
  obs::Tracer::instance().write_json(os);
  const Status status = obs::validate_trace_json(os.str());
  EXPECT_TRUE(status.ok()) << status.to_string();
}

TEST(ConcurrencyStress, LoggerSinkSwapsDuringConcurrentWrites) {
  // set_sink swaps under the same mutex that serialises write(): hammering
  // both from many tasks must neither tear lines nor drop the guard.
  const ObsQuiescent guard;
  Logger::instance().set_level(LogLevel::Info);
  std::atomic<std::uint64_t> delivered{0};
  par::ThreadPool pool(4);
  par::TaskGroup group(pool);
  for (int task = 0; task < 8; ++task) {
    group.run([task] {
      for (int i = 0; i < 200; ++i) {
        log_info() << "stress line " << task << ":" << i;
      }
    });
  }
  for (int swap = 0; swap < 100; ++swap) {
    Logger::instance().set_sink([&delivered](LogLevel, const std::string& line) {
      // order: relaxed — counter only; group.wait() below synchronises.
      if (!line.empty()) delivered.fetch_add(1, std::memory_order_relaxed);
    });
    Logger::instance().set_sink(nullptr);
  }
  Logger::instance().set_sink([&delivered](LogLevel, const std::string& line) {
    // order: relaxed — counter only; group.wait() below synchronises.
    if (!line.empty()) delivered.fetch_add(1, std::memory_order_relaxed);
  });
  group.wait();
  Logger::instance().set_sink(nullptr);
  // Some writes land on the stderr default mid-swap; whatever the sink saw
  // arrived whole (the counter only counts non-empty formatted lines).
  EXPECT_GT(delivered.load(), 0u);
}

TEST(ConcurrencyStress, MetricsRegistryConcurrentRegisterAndSnapshot) {
  // Instrument registration (map insert under the registry mutex) racing
  // updates on already-registered instruments and full snapshots.
  const ObsQuiescent guard;
  for (int i = 0; i < 7; ++i) {
    obs::MetricsRegistry::global().counter("stress.counter." + std::to_string(i)).reset();
  }
  obs::MetricsRegistry::global().histogram("stress.histogram").reset();
  obs::MetricsRegistry::global().enable();
  par::ThreadPool pool(4);
  par::TaskGroup group(pool);
  for (int task = 0; task < 8; ++task) {
    group.run([task] {
      for (int i = 0; i < 300; ++i) {
        obs::count(("stress.counter." + std::to_string(i % 7)).c_str());
        obs::gauge_max("stress.gauge", task * 1000 + i);
        obs::observe("stress.histogram", static_cast<std::uint64_t>(i));
        if (i % 64 == 0) {
          std::ostringstream os;
          obs::MetricsRegistry::global().write_json(os);
        }
      }
    });
  }
  group.wait();
  std::uint64_t total = 0;
  for (int i = 0; i < 7; ++i) {
    total += obs::MetricsRegistry::global()
                 .counter("stress.counter." + std::to_string(i))
                 .value();
  }
  EXPECT_EQ(total, 8u * 300u);
  EXPECT_EQ(obs::MetricsRegistry::global().histogram("stress.histogram").count(),
            8u * 300u);
}

TEST(ConcurrencyStress, PoolGrowthRacesSubmissionAndNestedGroups) {
  // ensure_size (grow lock) racing submit (queue locks + sleep cv) and
  // nested TaskGroups (group mutex/cv) — the full ThreadPool hierarchy.
  par::ThreadPool pool(1);
  std::atomic<int> done{0};
  par::TaskGroup outer(pool);
  for (int task = 0; task < 6; ++task) {
    outer.run([&pool, &done] {
      par::TaskGroup inner(pool);
      for (int i = 0; i < 50; ++i) {
        // order: relaxed — counter only; the group joins below.
        inner.run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();
    });
  }
  for (std::size_t size = 2; size <= 4; ++size) pool.ensure_size(size);
  outer.wait();
  EXPECT_EQ(done.load(), 6 * 50);
  EXPECT_GE(pool.size(), 4u);
}

TEST(ConcurrencyStress, HeartbeatStartStopChurn) {
  // Construction/destruction churn on the heartbeat worker: every cycle
  // joins the thread through the stop_ handshake the annotations guard.
  const ObsQuiescent guard;
  obs::Progress::global().enable();
  obs::Progress::global().begin_run(Deadline::never());
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::atomic<int> beats{0};
    obs::Heartbeat heartbeat(0.001, [&beats](const obs::ProgressSnapshot&) {
      // order: relaxed — counter only; the destructor joins the worker.
      beats.fetch_add(1, std::memory_order_relaxed);
    });
    obs::Progress::global().add_conflicts(1);
  }
}

TEST(ConcurrencyStress, OuterStopCancelsPortfolioMidRun) {
  // A stop raised mid-run must end a portfolio race promptly regardless of
  // lane durations: every lane's budget reads the caller's flag directly
  // (next to the race flag), so no coordinator has to relay it — even when
  // the coordinator itself runs a lane while it waits.
  std::atomic<bool> stop{false};
  LearnerConfig config;
  config.stop = &stop;
  config.portfolio = 3;
  const Trace trace = sim::generate_full_coverage_sched_trace(20165);
  Thread raiser([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // order: relaxed — pure signal; the learner's join publishes results.
    stop.store(true, std::memory_order_relaxed);
  });
  const Stopwatch wall;
  const LearnResult result = ModelLearner(config).learn(trace);
  const double seconds = wall.elapsed_seconds();
  raiser.join();
  // Either the race finished before the flag rose (fast machine) or it was
  // cancelled; a lane deaf to the caller's flag would blow far past this
  // generous bound.
  EXPECT_TRUE(result.success || result.status.code() == ErrorCode::cancelled);
  EXPECT_LT(seconds, 30.0);
}

}  // namespace
}  // namespace t2m
