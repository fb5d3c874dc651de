#pragma once
// Iterative radix-2 FFT.
//
// The spectrogram (CLI --waterfall) takes small windowed transforms over
// consecutive slices; the microbenches and tests use other sizes. A plan
// object precomputes twiddles and the bit-reversal permutation so the
// per-transform cost is a few multiply-adds per sample.

#include <cstddef>
#include <vector>

#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp {

/// Precomputed FFT plan for a fixed power-of-two size.
class FftPlan {
 public:
  /// Creates a plan for `size` points. `size` must be a power of two >= 2.
  explicit FftPlan(std::size_t size);

  std::size_t size() const { return size_; }

  /// In-place forward DFT (no normalization).
  void Forward(sample_span data) const;

  /// In-place inverse DFT (normalized by 1/N, so Inverse(Forward(x)) == x).
  void Inverse(sample_span data) const;

  /// Power spectrum |X[k]|^2 of `input` (zero-padded / truncated to the plan
  /// size) after applying `window` (empty window means rectangular). The
  /// result has plan-size bins in standard FFT order (DC first, negative
  /// frequencies in the upper half).
  [[nodiscard]] std::vector<float> PowerSpectrum(
      const_sample_span input, std::span<const float> window = {}) const;

 private:
  void Transform(sample_span data, bool inverse) const;

  std::size_t size_;
  std::vector<std::size_t> bit_reverse_;
  std::vector<cfloat> twiddles_;          // forward twiddles, size/2 entries
};

/// True if `n` is a power of two (and nonzero).
[[nodiscard]] constexpr bool IsPowerOfTwo(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace rfdump::dsp
