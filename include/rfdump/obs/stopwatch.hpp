#pragma once
// The single monotonic-clock helper every cost-accounting path in the repo
// reads from: the pipeline's stage table (core::StageCosts), the streaming
// monitor's shed controller, the work-budget deadlines and the benches all
// time with this Stopwatch, so their numbers are directly comparable (same
// clock, same conversion). Always compiled — per-stage cost reporting is a
// functional feature (Table 1 / Fig 9), not an observability extra, so it is
// NOT gated by RFDUMP_OBS.

#include <chrono>
#include <cstdint>

namespace rfdump::obs {

class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Reset().
  [[nodiscard]] double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Whole nanoseconds elapsed since construction / last Reset().
  [[nodiscard]] std::uint64_t Nanoseconds() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Microseconds elapsed since construction / last Reset().
  [[nodiscard]] double Microseconds() const { return Seconds() * 1e6; }

  /// Monotonic process-wide timestamp in seconds (arbitrary epoch). Two
  /// calls anywhere in the process are comparable.
  [[nodiscard]] static double NowSeconds() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace rfdump::obs
