#include "rfdump/dsp/barker.hpp"

#include <algorithm>
#include <cmath>

#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp {

SampleVec CorrelateChips(const_sample_span x, std::span<const int> chips) {
  const std::size_t n = chips.size();
  if (x.size() < n || n == 0) return {};
  SampleVec out(x.size() - n + 1);
  simd::Active().correlate_chips(x.data(), out.size(), chips.data(), n,
                                 out.data());
  return out;
}

void CorrelateChipsNormalized(const_sample_span x, std::span<const int> chips,
                              SampleVec& corr, std::vector<float>& norm) {
  const std::size_t n = chips.size();
  if (x.size() < n || n == 0) {
    corr.clear();
    norm.clear();
    return;
  }
  const std::size_t n_out = x.size() - n + 1;
  corr.resize(n_out);
  norm.resize(n_out);
  simd::Active().correlate_chips(x.data(), n_out, chips.data(), n,
                                 corr.data());
  // Normalization runs over the kernel's outputs with the same running
  // window-energy recurrence on every tier: the correlations are
  // bit-identical across tiers, so the norms are too.
  double window_energy = 0.0;
  for (std::size_t k = 0; k < n; ++k) window_energy += std::norm(x[k]);
  for (std::size_t i = 0; i < n_out; ++i) {
    const double denom =
        std::sqrt(static_cast<double>(n) * std::max(window_energy, 1e-30));
    norm[i] = static_cast<float>(std::abs(corr[i]) / denom);
    if (i + n < x.size()) {
      window_energy += std::norm(x[i + n]) - std::norm(x[i]);
      if (window_energy < 0.0) window_energy = 0.0;
    }
  }
}

}  // namespace rfdump::dsp
