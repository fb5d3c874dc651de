#pragma once
// Energy / power estimation primitives used by the peak detector and the
// energy-gated baseline architecture.

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp {

/// Instantaneous power |s|^2 of one sample, with non-finite input (NaN/Inf
/// from a corrupt front-end buffer, or overflow of the square itself) mapped
/// to 0. The energy/peak hot path uses this everywhere so that one corrupt
/// sample cannot poison a whole block's running averages.
[[nodiscard]] inline float FinitePower(cfloat s) {
  const float p = std::norm(s);
  return std::isfinite(p) ? p : 0.0f;
}

/// Mean power (|x|^2 average) of a span. Returns 0 for an empty span.
/// Non-finite samples contribute 0.
[[nodiscard]] double MeanPower(const_sample_span x);

/// Streaming moving-average of instantaneous power over a fixed window.
/// This is the protocol-agnostic computation at the heart of the paper's peak
/// detector (§4.3): a 20-sample (2.5 us) running average smooths over noise so
/// a packet is not split into multiple peaks.
class MovingAveragePower {
 public:
  explicit MovingAveragePower(std::size_t window);

  std::size_t window() const { return window_; }

  /// Pushes one sample's power (FinitePower of the sample; the peak detector
  /// feeds its per-chunk power plane here) and returns the current windowed
  /// average power. Until the window fills, the average is over the samples
  /// seen so far.
  float Push(float power);

  /// Pushes every value of `io` in order, replacing each with the average
  /// Push() would have returned for it (the per-channel GFSK power track).
  void PushAll(std::span<float> io);

  /// Current average without pushing.
  float Average() const;

  /// Number of samples currently in the window (saturates at window()).
  std::size_t Count() const { return count_; }

  void Reset();

 private:
  std::size_t window_;
  std::vector<float> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  // Rounding drift from the running sum is purged periodically.
  std::size_t pushes_since_rebuild_ = 0;
};

}  // namespace rfdump::dsp
