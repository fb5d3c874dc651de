#pragma once
// Shared fuzz input/output conventions (DESIGN.md §11).
//
// Every fuzz target — the per-protocol entries that bundles register in the
// ProtocolRegistry and the net-frame target in testing — interprets corpus
// bytes the same way: the first byte selects a sub-mode, the rest is the
// payload, decoded either as raw descrambled bits (one bit per byte, LSB) or
// as interleaved signed I/Q bytes at 1/64 full scale. These helpers live at
// the core layer so bundle translation units can use them; the historical
// testing:: entry points (MutateInput) forward here unchanged.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/rng.hpp"

namespace rfdump::core {

/// One corpus input: the `header` bytes (the sub-mode byte and any
/// target-specific prefix) followed by `body`.
[[nodiscard]] std::vector<std::uint8_t> FuzzInput(
    std::initializer_list<std::uint8_t> header,
    std::span<const std::uint8_t> body);

/// Payload bytes -> descrambled bit vector (one bit per byte, LSB).
[[nodiscard]] std::vector<std::uint8_t> FuzzBytesToBits(
    std::span<const std::uint8_t> data);

/// Sample-count cap for byte-derived IQ inputs, so a single input stays
/// sub-second even through a multi-channel GFSK scan.
inline constexpr std::size_t kMaxFuzzSamples = 1u << 16;

/// Payload bytes -> IQ samples: consecutive byte pairs are signed I/Q at
/// 1/64 full scale, so the corpus reaches both sub-noise and clipping-range
/// amplitudes.
[[nodiscard]] dsp::SampleVec FuzzBytesToSamples(
    std::span<const std::uint8_t> data);

/// IQ samples -> corpus bytes (inverse of FuzzBytesToSamples, saturating).
void FuzzAppendSamples(std::vector<std::uint8_t>& out, dsp::const_sample_span x,
                       std::size_t max_samples);

/// Applies one seeded mutation (bit flip, byte splat, truncate, duplicate,
/// insert, chunk swap) in place. Deterministic given the RNG state.
void FuzzMutateInput(std::vector<std::uint8_t>& data, util::Xoshiro256& rng);

/// FNV-1a 64-bit hash — names corpus and repro files content-addressably.
[[nodiscard]] std::uint64_t FuzzFnv1a(std::span<const std::uint8_t> data);

}  // namespace rfdump::core
