#include "rfdump/dsp/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace rfdump::dsp {

FftPlan::FftPlan(std::size_t size) : size_(size) {
  if (!IsPowerOfTwo(size) || size < 2) {
    throw std::invalid_argument("FftPlan size must be a power of two >= 2");
  }
  // Bit-reversal permutation.
  bit_reverse_.resize(size);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < size) ++bits;
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    bit_reverse_[i] = r;
  }
  // Forward twiddles W_N^k = exp(-2*pi*i*k/N) for k in [0, N/2).
  twiddles_.resize(size / 2);
  for (std::size_t k = 0; k < size / 2; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(size);
    twiddles_[k] = cfloat(static_cast<float>(std::cos(angle)),
                          static_cast<float>(std::sin(angle)));
  }
}

void FftPlan::Transform(sample_span data, bool inverse) const {
  assert(data.size() == size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= size_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = size_ / len;
    for (std::size_t start = 0; start < size_; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        cfloat w = twiddles_[k * stride];
        if (inverse) w = std::conj(w);
        const cfloat a = data[start + k];
        const cfloat b = data[start + k + half] * w;
        data[start + k] = a + b;
        data[start + k + half] = a - b;
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(size_);
    for (auto& v : data) v *= inv_n;
  }
}

void FftPlan::Forward(sample_span data) const { Transform(data, false); }
void FftPlan::Inverse(sample_span data) const { Transform(data, true); }

std::vector<float> FftPlan::PowerSpectrum(const_sample_span input,
                                          std::span<const float> window) const {
  SampleVec buf(size_, cfloat{0.0f, 0.0f});
  const std::size_t n = std::min(input.size(), size_);
  for (std::size_t i = 0; i < n; ++i) {
    const float w = (i < window.size()) ? window[i] : 1.0f;
    buf[i] = input[i] * w;
  }
  Forward(buf);
  std::vector<float> power(size_);
  for (std::size_t i = 0; i < size_; ++i) power[i] = std::norm(buf[i]);
  return power;
}

}  // namespace rfdump::dsp
