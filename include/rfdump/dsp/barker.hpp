#pragma once
// Barker spreading sequences and correlators.
//
// 802.11b at 1 and 2 Mbps spreads every symbol with the length-11 Barker code
// at 11 Mchip/s. The demodulator despreads with a matched correlator; the
// DBPSK *detector* (paper §4.5) instead correlates a precomputed 8-sample
// phase-change pattern against the 8 Msps stream, exploiting the 11:8
// chip-to-sample ratio of the USRP capture.

#include <array>
#include <cstdint>
#include <vector>

#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp {

/// Length-11 Barker sequence used by 802.11b DSSS (+1/-1 chips).
inline constexpr std::array<int, 11> kBarker11 = {+1, -1, +1, +1, -1, +1,
                                                  +1, +1, -1, -1, -1};

/// Length-13 Barker sequence (classic radar code; used in tests as a second
/// reference sequence for the correlator).
inline constexpr std::array<int, 13> kBarker13 = {+1, +1, +1, +1, +1, -1, -1,
                                                  +1, +1, -1, +1, -1, +1};

/// Sliding correlation of `x` against a +/-1 chip sequence. Output length is
/// x.size() - seq.size() + 1 (empty if x is shorter than seq). Output[i] is
/// the complex correlation of x[i..i+N) with the chips.
[[nodiscard]] SampleVec CorrelateChips(const_sample_span x,
                                       std::span<const int> chips);

/// One pass producing both the complex correlations and the normalized
/// magnitudes |corr| / (sqrt(N) * ||x_win||) in [0, 1], where a perfectly
/// matched window scores 1 (the 802.11b sync scan needs both). `corr` and
/// `norm` are resized to x.size() - chips.size() + 1; reusing the same
/// buffers across calls avoids per-window allocation.
void CorrelateChipsNormalized(const_sample_span x, std::span<const int> chips,
                              SampleVec& corr, std::vector<float>& norm);

}  // namespace rfdump::dsp
