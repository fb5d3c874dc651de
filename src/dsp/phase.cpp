#include "rfdump/dsp/phase.hpp"

#include <cmath>

#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp {

std::vector<float> PhaseDiff(const_sample_span x) {
  if (x.size() < 2) return {};
  std::vector<float> out(x.size() - 1);
  simd::Active().phase_diff(x.data(), x.size(), out.data());
  return out;
}

float WrapPhase(float angle) {
  while (angle > kPi) angle -= kTwoPi;
  while (angle <= -kPi) angle += kTwoPi;
  return angle;
}

std::vector<std::size_t> PhaseHistogram(std::span<const float> phases,
                                        std::size_t bins) {
  std::vector<std::size_t> hist(bins, 0);
  if (bins == 0) return hist;
  for (float p : phases) {
    // Map (-pi, pi] -> [0, bins).
    float norm = (p + kPi) / kTwoPi;  // (0, 1]
    auto idx = static_cast<std::size_t>(norm * static_cast<float>(bins));
    if (idx >= bins) idx = bins - 1;
    ++hist[idx];
  }
  return hist;
}

}  // namespace rfdump::dsp
