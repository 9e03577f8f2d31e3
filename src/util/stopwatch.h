#ifndef T2M_UTIL_STOPWATCH_H
#define T2M_UTIL_STOPWATCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "src/base/status.h"

namespace t2m {

/// Wall-clock stopwatch used by the learner and the bench harnesses.
class Stopwatch {
public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  std::int64_t elapsed_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start_)
        .count();
  }

private:
  Clock::time_point start_;
};

/// A soft deadline checked cooperatively by long-running algorithms — the
/// clock half of a RunBudget. A default-constructed deadline never expires.
class Deadline {
public:
  Deadline() = default;

  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.expiry_ = Stopwatch::Clock::now() +
                std::chrono::duration_cast<Stopwatch::Clock::duration>(
                    std::chrono::duration<double>(seconds));
    return d;
  }
  static Deadline never() { return Deadline(); }

  /// Never reads the clock for the never-expiring deadline.
  bool expired() const { return expiry_ != kNever && Stopwatch::Clock::now() >= expiry_; }

  /// Seconds remaining; +inf for the never-expiring deadline.
  double remaining_seconds() const {
    if (expiry_ == kNever) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expiry_ - Stopwatch::Clock::now()).count();
  }

private:
  static constexpr Stopwatch::Clock::time_point kNever = Stopwatch::Clock::time_point::max();
  Stopwatch::Clock::time_point expiry_ = kNever;
};

/// Everything that may end a run early, polled as one: a Deadline plus a
/// non-owning stop flag (LearnerConfig::stop) and, for a portfolio lane, the
/// race flag its winner raises. A value type: copies share the flags and
/// never own them. A default-constructed budget never stops.
class RunBudget {
public:
  RunBudget() = default;
  explicit RunBudget(Deadline deadline, const std::atomic<bool>* stop = nullptr)
      : deadline_(deadline), stop_(stop) {}

  /// This budget, additionally cancelled by `race` (a portfolio lane's
  /// budget: the caller's flag, the race flag and the clock).
  RunBudget with_race(const std::atomic<bool>* race) const {
    RunBudget lane = *this;
    lane.race_ = race;
    return lane;
  }

  /// True once either flag is raised.
  bool cancelled() const { return raised(stop_) || raised(race_); }
  bool expired() const { return deadline_.expired(); }
  /// The one poll: the flags first, then the clock.
  bool should_stop() const { return cancelled() || expired(); }

  /// Why should_stop() holds: cancelled in preference to deadline_exceeded.
  ErrorCode reason() const {
    return cancelled() ? ErrorCode::cancelled : ErrorCode::deadline_exceeded;
  }
  /// The verdict a stopped `site` reports: "<site> was cancelled" or
  /// "<site> exceeded the learn deadline", coded by reason().
  Status stop_status(const std::string& site) const {
    const ErrorCode code = reason();
    return {code, site + (code == ErrorCode::cancelled ? " was cancelled"
                                                       : " exceeded the learn deadline")};
  }

  const Deadline& deadline() const { return deadline_; }

private:
  static bool raised(const std::atomic<bool>* flag) {
    // order: relaxed — a pure cancellation signal with no payload: whoever
    // raised it synchronises with the stopped run's results through a join
    // (TaskGroup, thread join), never through the flag (docs/concurrency.md).
    return flag != nullptr && flag->load(std::memory_order_relaxed);
  }

  Deadline deadline_;
  const std::atomic<bool>* stop_ = nullptr;
  const std::atomic<bool>* race_ = nullptr;
};

/// Amortised RunBudget poll for hot loops: reads the flags on every call and
/// the clock on the first and then every `interval`th call (a power of two),
/// so a raised flag is seen at once and an expired deadline within
/// `interval` calls. A budget with no flags and no deadline costs two null
/// checks and a counter increment per call.
class BudgetPoll {
public:
  BudgetPoll(const RunBudget& budget, std::uint64_t interval)
      : budget_(budget), mask_(interval - 1) {}

  /// True when the run should stop.
  bool operator()() {
    if (budget_.cancelled()) return true;
    return (ticks_++ & mask_) == 0 && budget_.expired();
  }

  /// Throws StatusError(budget.stop_status(site)) when operator() says stop.
  void check(const char* site) {
    if ((*this)()) throw StatusError(budget_.stop_status(site));
  }

private:
  const RunBudget& budget_;
  std::uint64_t mask_;
  std::uint64_t ticks_ = 0;
};

}  // namespace t2m

#endif  // T2M_UTIL_STOPWATCH_H
