#pragma once
// IEEE 802.15.4 (ZigBee) 2.4 GHz O-QPSK PHY.
//
// 250 kbit/s: each 4-bit symbol maps to one of 16 quasi-orthogonal 32-chip PN
// sequences at 2 Mchip/s; even-index chips modulate I, odd-index chips Q,
// offset by half a chip (O-QPSK), with half-sine pulse shaping. At the 8 Msps
// front-end rate there are exactly 4 samples per chip.
//
// The paper lists ZigBee in its feature table as a protocol the architecture
// scales to; we implement the modulator (for emulated traffic), the timing
// constants the detectors use, and a correlation-based frame detector/decoder.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/bits.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::phyzigbee {

inline constexpr double kChipRateHz = 2e6;
inline constexpr std::size_t kSamplesPerChip = 4;   // at 8 Msps
inline constexpr std::size_t kChipsPerSymbol = 32;
inline constexpr double kSymbolRateHz = 62.5e3;
inline constexpr double kBitRateBps = 250e3;

// MAC timing (Table 2 of the paper): backoff slot 320 us, LIFS 640 us,
// SIFS 192 us, tACK 192..832 us.
inline constexpr double kSlotUs = 320.0;
inline constexpr double kSifsUs = 192.0;
inline constexpr double kLifsUs = 640.0;
inline constexpr double kAckTurnaroundUs = 192.0;

/// The 16 32-chip PN sequences (802.15.4-2006 Table 24), symbol -> chips,
/// chip 0 first.
[[nodiscard]] const std::array<std::uint32_t, 16>& ChipTable();

/// Expands data bytes (low nibble first) into the chip sequence.
[[nodiscard]] util::BitVec BytesToChips(std::span<const std::uint8_t> bytes);

/// Modulates a PHY frame: preamble (4 zero bytes) + SFD (0xA7) + PHR (length)
/// + PSDU. Returns 8 Msps baseband samples (O-QPSK half-sine).
[[nodiscard]] dsp::SampleVec ModulateFrame(std::span<const std::uint8_t> psdu);

/// Airtime of a frame in microseconds ((6 + psdu) bytes * 32 us/byte).
[[nodiscard]] double FrameAirtimeUs(std::size_t psdu_bytes);

/// Decoded ZigBee frame.
struct DecodedZbFrame {
  std::vector<std::uint8_t> psdu;
  bool crc_ok = false;           // FCS over the PSDU (last 2 bytes)
  std::int64_t start_sample = 0;
  std::int64_t end_sample = 0;
};

/// Correlation demodulator: searches for the preamble+SFD chip pattern and
/// decodes symbols by maximum-correlation despreading. The sync search
/// charges `budget` (null = unlimited) once per screened block of offsets
/// and returns nothing once it expires.
[[nodiscard]] std::optional<DecodedZbFrame> DecodeFrame(
    dsp::const_sample_span x, util::WorkBudget* budget = nullptr);

namespace detail {

/// Margin δ of the chip-domain preamble screen (DESIGN.md §16): an offset is
/// skipped only when its screened symbol-0 correlation is below 0.65 − δ.
inline constexpr double kScreenMargin = 0.005;

/// The screen's normalized symbol-0 correlation at every offset
/// [0, x.size() − 128], or NaN where the window holds a non-finite power.
/// Exposed for tests.
[[nodiscard]] std::vector<double> ScreenCorrelations(dsp::const_sample_span x);

}  // namespace detail

}  // namespace rfdump::phyzigbee
