#include "rfdump/dsp/fir.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp {

FirFilter::FirFilter(std::vector<float> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter needs >= 1 tap");
  history_.assign(taps_.size() - 1, cfloat{0.0f, 0.0f});
}

void FirFilter::Process(const_sample_span input, SampleVec& out) {
  const std::size_t nt = taps_.size();
  const std::size_t hist = nt - 1;
  // Build a contiguous [history | input] buffer for branch-free convolution.
  // work_ is a member so repeated chunked calls reuse its capacity instead of
  // allocating per chunk.
  work_.clear();
  work_.reserve(hist + input.size());
  work_.insert(work_.end(), history_.begin(), history_.end());
  work_.insert(work_.end(), input.begin(), input.end());

  const std::size_t start = out.size();
  out.resize(start + input.size());
  // y[n] = sum_k taps[k] * x[n - k]; x index in work_ is n + hist - k.
  simd::Active().fir_complex(work_.data(), input.size(), taps_.data(), nt,
                             out.data() + start);
  // Save the last `hist` input samples for the next call.
  if (hist > 0) {
    if (input.size() >= hist) {
      std::copy(input.end() - hist, input.end(), history_.begin());
    } else {
      std::move(history_.begin() + input.size(), history_.end(),
                history_.begin());
      std::copy(input.begin(), input.end(), history_.end() - input.size());
    }
  }
}

std::vector<float> DesignLowPass(double cutoff_hz, double sample_rate,
                                 std::size_t num_taps, WindowType window) {
  if (num_taps == 0) throw std::invalid_argument("num_taps must be >= 1");
  const double fc = cutoff_hz / sample_rate;  // normalized cutoff, cycles/sample
  const auto win = MakeWindow(window, num_taps);
  std::vector<float> taps(num_taps);
  const double mid = (static_cast<double>(num_taps) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double x = 2.0 * std::numbers::pi * fc * t;
    const double sinc = (std::abs(t) < 1e-12) ? 2.0 * fc
                                              : std::sin(x) / (std::numbers::pi * t);
    taps[i] = static_cast<float>(sinc) * win[i];
    sum += taps[i];
  }
  // Normalize to unit DC gain.
  for (auto& t : taps) t = static_cast<float>(t / sum);
  return taps;
}

std::vector<float> DesignGaussian(double bt, std::size_t sps,
                                  std::size_t span_symbols) {
  const std::size_t n = sps * span_symbols + 1;
  std::vector<float> taps(n);
  // h(t) = sqrt(2*pi/ln2) * B * exp(-2*pi^2*B^2*t^2 / ln2), t in symbols,
  // B = bt (bandwidth normalized to symbol rate).
  const double ln2 = std::numbers::ln2;
  const double mid = (static_cast<double>(n) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = (static_cast<double>(i) - mid) / static_cast<double>(sps);
    const double a = std::sqrt(2.0 * std::numbers::pi / ln2) * bt;
    const double v = a * std::exp(-2.0 * std::numbers::pi * std::numbers::pi *
                                  bt * bt * t * t / ln2);
    taps[i] = static_cast<float>(v);
    sum += v;
  }
  for (auto& t : taps) t = static_cast<float>(t / sum);
  return taps;
}

}  // namespace rfdump::dsp
