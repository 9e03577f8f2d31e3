#ifndef T2M_UTIL_STOPWATCH_H
#define T2M_UTIL_STOPWATCH_H

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>

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

/// A soft deadline checked cooperatively by long-running algorithms (SAT
/// search, learner refinement). A default-constructed deadline never expires.
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

  bool expired() const {
    return expiry_.has_value() && Stopwatch::Clock::now() >= *expiry_;
  }
  bool is_finite() const { return expiry_.has_value(); }

  /// Seconds remaining; +inf for the never-expiring deadline.
  double remaining_seconds() const {
    if (!expiry_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(*expiry_ - Stopwatch::Clock::now()).count();
  }

private:
  std::optional<Stopwatch::Clock::time_point> expiry_;
};

/// Amortised deadline poll for hot loops: reads the clock on every
/// `interval`th call (a power of two) and throws
/// StatusError(deadline_exceeded, message) once the deadline has passed.
class DeadlinePoll {
public:
  DeadlinePoll(const Deadline& deadline, std::uint64_t interval, const char* message)
      : deadline_(deadline), mask_(interval - 1), message_(message) {}

  void operator()() {
    if ((ticks_++ & mask_) != 0 || !deadline_.is_finite()) return;
    if (deadline_.expired()) throw_status(ErrorCode::deadline_exceeded, message_);
  }

private:
  const Deadline& deadline_;
  std::uint64_t mask_;
  const char* message_;
  std::uint64_t ticks_ = 0;
};

}  // namespace t2m

#endif  // T2M_UTIL_STOPWATCH_H
