#pragma once
// RF channel and front-end impairment models.
//
// The emulator composes these to turn ideal modulator output into the kind of
// stream a real USRP capture contains: scaled to a target SNR, shifted by
// carrier frequency offset, passed through (optional) multipath, summed with
// white Gaussian noise, and quantized by an N-bit ADC.

#include <cstdint>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/rng.hpp"

namespace rfdump::channel {

/// Adds complex AWGN with the given per-sample noise power (variance split
/// evenly across I and Q).
void AddAwgn(rfdump::dsp::sample_span io, double noise_power,
             rfdump::util::Xoshiro256& rng);

/// Scales `io` so that its mean power equals `target_power`. No-op on silence.
void ScaleToPower(rfdump::dsp::sample_span io, double target_power);

/// Applies a carrier frequency offset of `offset_hz` (rotates samples by a
/// linearly increasing phase). `start_sample` keeps streams phase-continuous
/// when processed in chunks.
void ApplyFrequencyOffset(rfdump::dsp::sample_span io, double offset_hz,
                          double sample_rate, std::int64_t start_sample);

/// Static tapped-delay-line multipath channel.
class Multipath {
 public:
  struct Tap {
    std::size_t delay_samples;
    rfdump::dsp::cfloat gain;
  };

  /// `taps` must contain at least the direct path. Normalizes total tap power
  /// to 1 so multipath does not change mean signal power.
  explicit Multipath(std::vector<Tap> taps);

  [[nodiscard]] rfdump::dsp::SampleVec Apply(
      rfdump::dsp::const_sample_span input) const;

  const std::vector<Tap>& taps() const { return taps_; }

 private:
  std::vector<Tap> taps_;
};

/// N-bit ADC model: clamps to [-full_scale, full_scale] and rounds to
/// 2^bits levels per rail. The USRP 1 has 12-bit converters.
void Quantize(rfdump::dsp::sample_span io, unsigned bits, float full_scale);

/// Computes the noise power that yields `snr_db` for a signal of
/// `signal_power`. Test seam: only tests call it.
[[nodiscard]] double NoisePowerForSnr(double signal_power, double snr_db);

}  // namespace rfdump::channel
