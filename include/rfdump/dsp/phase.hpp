#pragma once
// Phase extraction and derivatives — the protocol-agnostic computation behind
// the paper's phase detectors (§3.3): one arctan per sample gives the IF
// phase; the first derivative carries the frequency offset (=> channel), the
// second derivative is ~0 for continuous-phase (GFSK/GMSK) signals, and jumps
// in the first derivative mark PSK symbol transitions.

#include <vector>

#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp {

/// Phase difference between consecutive samples computed as
/// arg(x[n] * conj(x[n-1])) — naturally wrapped into (-pi, pi], which is the
/// first derivative of phase without explicit unwrapping. Output has
/// x.size()-1 entries (empty input -> empty output).
[[nodiscard]] std::vector<float> PhaseDiff(const_sample_span x);

/// Wraps an angle to (-pi, pi].
[[nodiscard]] float WrapPhase(float angle);

/// Histogram of angles over (-pi, pi] with `bins` equal bins. Used by the
/// constellation classifier: a BPSK burst fills 2 opposite bins, QPSK 4, etc.
[[nodiscard]] std::vector<std::size_t> PhaseHistogram(
    std::span<const float> phases, std::size_t bins);

}  // namespace rfdump::dsp
