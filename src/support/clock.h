// Monotonic elapsed-time helpers: the one clock and millisecond
// conversion for every layer above obs/ (which sits below support and
// keeps its own epoch clocks for spans and windows).
#pragma once

#include <chrono>

namespace jst::support {

using Clock = std::chrono::steady_clock;

// Milliseconds from `from` to `to`.
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Milliseconds from `start` to now.
inline double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

}  // namespace jst::support
