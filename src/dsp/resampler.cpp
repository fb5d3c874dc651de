#include "rfdump/dsp/resampler.hpp"

#include <algorithm>
#include <stdexcept>

#include "rfdump/dsp/fir.hpp"

namespace rfdump::dsp {

RationalResampler::RationalResampler(std::size_t interp, std::size_t decim,
                                     std::size_t taps_per_phase)
    : interp_(interp), decim_(decim), taps_per_phase_(taps_per_phase) {
  if (interp == 0 || decim == 0 || taps_per_phase == 0) {
    throw std::invalid_argument("RationalResampler parameters must be >= 1");
  }
  // Prototype low-pass at the composite rate (input rate x L): cutoff at the
  // narrower of the input and output Nyquist frequencies.
  const double composite_rate = static_cast<double>(interp);  // normalized
  const double cutoff =
      0.5 / static_cast<double>(std::max(interp, decim)) * composite_rate;
  auto proto = DesignLowPass(cutoff, composite_rate, interp * taps_per_phase,
                             WindowType::kBlackmanHarris);
  // Interpolation inserts L-1 zeros between samples; compensate the gain.
  for (auto& t : proto) t *= static_cast<float>(interp);
  phases_.assign(interp, std::vector<float>(taps_per_phase, 0.0f));
  for (std::size_t i = 0; i < proto.size(); ++i) {
    phases_[i % interp][i / interp] = proto[i];
  }
  window_.assign(taps_per_phase_, cfloat{0.0f, 0.0f});
}

void RationalResampler::Reset() {
  std::fill(window_.begin(), window_.end(), cfloat{0.0f, 0.0f});
  filled_ = 0;
  phase_acc_ = 0;
}

void RationalResampler::Process(const_sample_span input, SampleVec& out) {
  for (const cfloat x : input) {
    // Slide the window: newest sample at the back.
    std::move(window_.begin() + 1, window_.end(), window_.begin());
    window_.back() = x;
    if (filled_ < taps_per_phase_) ++filled_;
    // Each input sample advances the virtual upsampled stream by `interp_`
    // positions; emit an output for every `decim_` positions passed.
    while (phase_acc_ < interp_) {
      const auto& taps = phases_[phase_acc_];
      cfloat acc{0.0f, 0.0f};
      // taps[k] applies to x[n-k] == window_[taps_per_phase_-1-k].
      for (std::size_t k = 0; k < taps_per_phase_; ++k) {
        acc += taps[k] * window_[taps_per_phase_ - 1 - k];
      }
      out.push_back(acc);
      phase_acc_ += decim_;
    }
    phase_acc_ -= interp_;
  }
}

SampleVec RationalResampler::Resampled(const_sample_span input) {
  SampleVec out;
  out.reserve(input.size() * interp_ / decim_ + 8);
  Process(input, out);
  return out;
}

}  // namespace rfdump::dsp
