#pragma once
// Rational polyphase resampling.
//
// Two uses in the system:
//  * 802.11b modulator: Barker chips at 11 Mchip/s are synthesized at 88 Msps
//    (8 samples/chip) and decimated by 11 to the 8 Msps front-end rate.
//  * 802.11b demodulator: the 8 Msps capture is resampled by 11/8 to 11 Msps
//    so the despreader sees one sample per chip.

#include <cstddef>
#include <vector>

#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp {

/// Streaming rational resampler: output rate = input rate * interp / decim.
/// Implements polyphase interpolation with a windowed-sinc prototype filter
/// designed for the composite (interp x input) rate.
class RationalResampler {
 public:
  /// `interp` (L) and `decim` (M) must be >= 1. `taps_per_phase` controls the
  /// prototype length (L * taps_per_phase taps total).
  RationalResampler(std::size_t interp, std::size_t decim,
                    std::size_t taps_per_phase = 12);

  std::size_t interp() const { return interp_; }
  std::size_t decim() const { return decim_; }

  /// Resamples `input`, appending the produced samples to `out`. Maintains
  /// state across calls so a long stream can be processed in chunks.
  void Process(const_sample_span input, SampleVec& out);

  /// One-shot convenience wrapper.
  [[nodiscard]] SampleVec Resampled(const_sample_span input);

  /// Clears streaming state.
  void Reset();

 private:
  std::size_t interp_;
  std::size_t decim_;
  std::size_t taps_per_phase_;
  // phases_[p][k] applies to x[n-k] for an output at polyphase offset p.
  std::vector<std::vector<float>> phases_;
  SampleVec window_;           // last taps_per_phase input samples (newest last)
  std::size_t filled_ = 0;     // valid samples in window_
  std::size_t phase_acc_ = 0;  // polyphase accumulator in [0, interp)
};

}  // namespace rfdump::dsp
