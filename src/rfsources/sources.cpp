#include "rfdump/rfsources/sources.hpp"

#include <cmath>

namespace rfdump::rfsources {

using dsp::cfloat;

MicrowaveOven::MicrowaveOven() : MicrowaveOven(Config{}) {}

MicrowaveOven::MicrowaveOven(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

bool MicrowaveOven::IsOn(std::int64_t sample) const {
  const double period_samples = dsp::kSampleRateHz / config_.ac_hz;
  const double phase = std::fmod(static_cast<double>(sample), period_samples) /
                       period_samples;
  return phase < config_.duty;
}

dsp::SampleVec MicrowaveOven::Generate(std::int64_t start_sample,
                                       std::size_t count) {
  dsp::SampleVec out(count, cfloat{0.0f, 0.0f});
  const double two_pi = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t n = start_sample + static_cast<std::int64_t>(i);
    if (!IsOn(n)) continue;
    const double t = static_cast<double>(n) / dsp::kSampleRateHz;
    // Slow sinusoidal frequency sweep across the band.
    const double inst_freq = (config_.sweep_hz / 2.0) *
                             std::sin(two_pi * config_.sweep_rate_hz * t);
    // Integrated phase of the sinusoidal FM: -(A/2)/(2*pi*fr) * cos(...)
    const double fm_phase = -(config_.sweep_hz / 2.0) /
                            config_.sweep_rate_hz *
                            std::cos(two_pi * config_.sweep_rate_hz * t);
    (void)inst_freq;
    noise_phase_ += rng_.Gaussian(0.0, config_.phase_noise_rad);
    const double phase = fm_phase + noise_phase_;
    out[i] = config_.amplitude * cfloat(static_cast<float>(std::cos(phase)),
                                        static_cast<float>(std::sin(phase)));
  }
  return out;
}

}  // namespace rfdump::rfsources
