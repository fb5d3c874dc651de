#pragma once
// FIR filtering and filter design.
//
// Used by: the GFSK channel front end (DesignLowPass, 1 MHz channel select),
// GFSK pulse shaping (DesignGaussian) and the polyphase resampler prototype
// (DesignLowPass). No receive path runs FirFilter any more (the GFSK front end
// applies its taps through the fir_complex kernel directly); it stays as the
// streaming reference that bench/micro_dsp and perfbench's dsp.fir row time.

#include <cstddef>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/dsp/windows.hpp"

namespace rfdump::dsp {

/// Streaming FIR filter with real taps applied to a complex sample stream.
/// Keeps (taps-1) samples of history across Process() calls so a long stream
/// can be filtered in chunks with no seams.
class FirFilter {
 public:
  /// Constructs from a tap vector. Must be non-empty.
  explicit FirFilter(std::vector<float> taps);

  /// Filters `input`, appending `input.size()` output samples to `out`.
  void Process(const_sample_span input, SampleVec& out);

 private:
  std::vector<float> taps_;
  SampleVec history_;  // last (taps-1) input samples
  SampleVec work_;     // reusable [history | input] convolution buffer
};

/// Windowed-sinc low-pass design. `cutoff_hz` is the -6 dB edge, `sample_rate`
/// the rate the filter runs at, `num_taps` the length (odd recommended).
[[nodiscard]] std::vector<float> DesignLowPass(
    double cutoff_hz, double sample_rate, std::size_t num_taps,
    WindowType window = WindowType::kHamming);

/// Gaussian pulse-shaping filter for GFSK, normalized to unit DC gain.
/// `bt` is the bandwidth-time product (Bluetooth uses 0.5), `sps` samples per
/// symbol, `span_symbols` the filter length in symbols.
[[nodiscard]] std::vector<float> DesignGaussian(double bt, std::size_t sps,
                                                std::size_t span_symbols);

}  // namespace rfdump::dsp
