#pragma once
// GFSK modulation/demodulation for Bluetooth BR: 1 Msym/s, Gaussian BT = 0.5,
// modulation index h ~= 0.32 (frequency deviation +/-160 kHz). At the 8 Msps
// front-end rate there are exactly 8 samples per symbol, and one Bluetooth
// channel (1 MHz) fits well inside the captured band.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/bits.hpp"

namespace rfdump::phybt {

inline constexpr double kSymbolRateHz = 1e6;
inline constexpr std::size_t kSamplesPerSymbol = 8;  // at 8 Msps
inline constexpr double kModulationIndex = 0.32;
inline constexpr double kGaussianBt = 0.5;

/// Modulates bits to a unit-amplitude complex baseband burst (centered at DC;
/// the caller mixes it to its hop channel). Includes `ramp_symbols` of
/// guard/ramp at each end so the Gaussian filter transient stays inside the
/// burst.
[[nodiscard]] dsp::SampleVec GfskModulate(std::span<const std::uint8_t> bits,
                                          std::size_t ramp_symbols = 2);

/// FM discriminator: per-sample instantaneous frequency estimate (phase
/// difference of consecutive samples). Resizes `out` to x.size()-1, so one
/// buffer can be reused across channels instead of allocating per channel.
void FmDiscriminateInto(dsp::const_sample_span x, std::vector<float>& out);

/// Demodulates a discriminator output back to bits given the sample offset of
/// the first symbol center. Slices the sign of the averaged per-symbol
/// frequency. Returns as many whole symbols as available.
[[nodiscard]] util::BitVec SliceSymbols(std::span<const float> freq,
                                        std::size_t first_center,
                                        std::size_t count);

/// SliceSymbols' decision at every center, packed for word reads. Bit j of
/// stream r is the decision `(f[c-1] + f[c]) + f[c+1] > 0` at center
/// c = 8j + r; centers outside [1, freq.size() - 2] read 0. The streams are
/// residue-major, `stride` words each (the last word of each is padding, so
/// a two-word read never leaves the stream).
struct SlicerPlane {
  std::span<const std::uint64_t> words;
  std::size_t stride = 0;

  /// The `bits` (1..64) decisions at centers first_center + 8m, bit m = the
  /// m-th symbol: BitsToUintLsbFirst(SliceSymbols(freq, first_center, bits))
  /// whenever every one of those centers lies in [1, freq.size() - 2].
  [[nodiscard]] std::uint64_t Word(std::size_t first_center,
                                   std::size_t bits) const;
};

/// Packs the slicer decisions of `freq` into `words` (resized) and returns
/// the view over them.
SlicerPlane PackSlicerPlane(std::span<const float> freq,
                            std::vector<std::uint64_t>& words);

/// Longest mixing period, in samples, GfskChannel accepts.
inline constexpr std::size_t kMaxMixPeriod = 64;

/// One channel's front-end output over one window. The spans point into this
/// thread's scratch arena (util::Scratch): they stay valid until the next
/// GfskChannel::Process() on the same thread.
struct GfskTrack {
  std::span<const float> freq;   // discriminator output, x.size() - 1
  std::span<const float> power;  // 16-sample moving in-channel power
  float gate = 0.0f;             // energy gate: 4x the in-channel floor
  SlicerPlane plane;             // slicer decisions of `freq`

  /// First sync candidate in [pos, limit): a position whose power clears the
  /// gate and whose 4 preamble symbols (freq at pos + 8m, m < 4) alternate in
  /// sign. Quiet positions advance a whole symbol, failed screens one sample.
  /// Returns a value >= limit when there is none. Needs limit + 24 <=
  /// freq.size().
  [[nodiscard]] std::size_t NextCandidate(std::size_t pos,
                                          std::size_t limit) const;
};

/// The GFSK channel front end the Bluetooth and BLE scanners share: mix the
/// channel at `offset_hz` to DC, low-pass to ~1 MHz (21 taps), discriminate,
/// track in-channel power, estimate the floor and pack the slicer plane.
///
/// Mixing reads a table of the first P phasors of dsp::Nco(-offset_hz), where
/// P is the smallest period of the offset at 8 Msps: 16 for the Bluetooth
/// channels (odd multiples of 0.5 MHz), 8 for BLE's +-3 MHz, 1 at DC. Nco
/// accumulates its phase in double, so its later phasors can differ from the
/// table's by the rounding of that accumulation (DESIGN.md §16).
class GfskChannel {
 public:
  /// Throws std::invalid_argument when `offset_hz` has no period of at most
  /// kMaxMixPeriod samples at 8 Msps.
  explicit GfskChannel(double offset_hz);

  [[nodiscard]] std::size_t period() const { return period_; }
  [[nodiscard]] std::span<const dsp::cfloat> mix_table() const {
    return std::span<const dsp::cfloat>(table_).first(period_);
  }

  /// Runs the front end over `x`. `noise_floor_power` > 0 derives the gate
  /// from the known full-band floor (scaled by the channel filter's noise
  /// gain); 0 estimates it from the lowest decile of the power track.
  [[nodiscard]] GfskTrack Process(dsp::const_sample_span x,
                                  double noise_floor_power) const;

 private:
  /// out[n] = x[n] * mix_table()[n mod period()].
  void Mix(dsp::const_sample_span x, dsp::cfloat* out) const;

  std::array<dsp::cfloat, kMaxMixPeriod> table_{};
  std::size_t period_ = 0;
};

}  // namespace rfdump::phybt
