#pragma once
/// \file timer.hpp
/// \brief Wall-clock stopwatch — the simplest member of the obs layer.
///
/// All timing primitives live under `src/obs/`: `Timer` for coarse phase
/// timings that land in stats structs, `Span` (trace.hpp) for everything
/// that should show up in a trace.

#include <chrono>

namespace parmis::obs {

/// Monotonic wall-clock stopwatch. `seconds()` returns elapsed time since
/// construction or the last `reset()`.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace parmis::obs

namespace parmis {
/// Historical spelling — `parmis::Timer` predates the obs layer.
using Timer = obs::Timer;
}  // namespace parmis
