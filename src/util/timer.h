#ifndef PGHIVE_UTIL_TIMER_H_
#define PGHIVE_UTIL_TIMER_H_

#include <chrono>

namespace pghive::util {

/// Wall-clock stopwatch used by the benchmark harness.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_TIMER_H_
