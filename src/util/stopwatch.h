// Wall-clock stopwatch for experiment timing (header-only).

#ifndef GSMB_UTIL_STOPWATCH_H_
#define GSMB_UTIL_STOPWATCH_H_

#include <chrono>

namespace gsmb {

/// Measures elapsed wall-clock time in seconds. The paper reports the mean
/// run-time (RT) over repetitions; ExperimentRunner uses this class for every
/// RT column.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Seconds since construction or the previous Lap()/Restart(), and
  /// restarts the watch — one clock read, so back-to-back stages can be
  /// tallied with one read per stage boundary.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gsmb

#endif  // GSMB_UTIL_STOPWATCH_H_
