#pragma once
// BLE advertising PHY: 1 Mbps GFSK on the three advertising channels.
//
// Link layer per Bluetooth Core Vol 6 Part B, scoped to legacy advertising
// PDUs: 8-bit preamble, the fixed 32-bit advertising access address
// 0x8E89BED6, a 2-byte PDU header (4-bit type + 6-bit length <= 37), the
// payload, and CRC-24 (poly 0x00065B, init 0x555555) — header, payload and
// CRC whitened with the x^7 + x^4 + 1 LFSR seeded from the channel index.
// The whitening LFSR is byte-for-byte the Bluetooth BR one, so this reuses
// phybt::WhiteningSequence; modulation reuses the phybt GFSK chain.
//
// Substitution notes (DESIGN.md): (1) the real advertising channels sit at
// 2402/2426/2480 MHz — three widely separated 2 MHz channels no single 8 MHz
// capture can see. They are folded into the monitored band at -3/0/+3 MHz,
// preserving the three-channel structure on one front-end, exactly as the
// Bluetooth hop set is folded to 8 visible channels. (2) BLE 1M specifies a
// GFSK modulation index of ~0.5; the shared phybt modulator's h = 0.32 is
// used instead so the discriminator chain needs no second parameter set —
// the sign-sliced symbols are identical either way.

#include <cstdint>
#include <optional>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/bits.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::phyble {

/// Fixed access address of all advertising-channel PDUs.
inline constexpr std::uint32_t kAdvAccessAddress = 0x8E89BED6u;
/// CRC-24 generator polynomial (x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1).
inline constexpr std::uint32_t kCrcPoly = 0x00065Bu;
/// CRC-24 preset for advertising PDUs.
inline constexpr std::uint32_t kCrcInit = 0x555555u;
/// Advertising channel indices (spec numbering).
inline constexpr int kAdvChannels[3] = {37, 38, 39};
inline constexpr std::size_t kPreambleBits = 8;
inline constexpr std::size_t kAccessBits = 32;
inline constexpr std::size_t kHeaderBytes = 2;
inline constexpr std::size_t kCrcBytes = 3;
/// Legacy advertising payload cap (6-bit length field, spec max 37).
inline constexpr std::size_t kMaxAdvPayloadBytes = 37;

/// Advertising PDU types we model (4-bit TYPE field).
enum class AdvPduType : std::uint8_t {
  kAdvInd = 0x0,
  kAdvNonconnInd = 0x2,
  kAdvScanInd = 0x6,
};

[[nodiscard]] const char* AdvPduTypeName(AdvPduType t);

/// Baseband offset of an advertising channel inside the monitored band
/// (folded: 37/38/39 -> -3/0/+3 MHz), or nullopt for a non-adv channel.
[[nodiscard]] std::optional<double> AdvChannelOffsetHz(int channel);

/// CRC-24 over PDU bytes (header + payload), bits processed LSB-first.
/// Returns the 24-bit remainder in transmission order (bit 0 sent first).
[[nodiscard]] std::uint32_t Crc24(std::span<const std::uint8_t> bytes);

/// Over-the-air bits of one advertising PDU on `channel`: preamble, access
/// address, then whitened header + payload + CRC-24. `payload` is clamped
/// contractually to kMaxAdvPayloadBytes (asserted via the length field).
[[nodiscard]] util::BitVec BuildAdvBits(int channel, AdvPduType type,
                                        std::span<const std::uint8_t> payload);

/// Air bits of a PDU carrying `payload_bytes`
/// (preamble + access address + 8 * (header + payload + CRC)).
[[nodiscard]] std::size_t AdvAirBits(std::size_t payload_bytes);

/// Airtime in microseconds (1 us per bit at 1 Mbps).
[[nodiscard]] double AdvAirtimeUs(std::size_t payload_bytes);

/// Parsed advertising PDU (demodulator output).
struct ParsedAdv {
  AdvPduType type = AdvPduType::kAdvInd;
  std::vector<std::uint8_t> payload;
  bool crc_ok = false;
};

/// Parses the dewhitened-PDU section that follows the access address.
/// `bits` are raw received bits (still whitened); `channel` seeds the
/// dewhitening. Returns nullopt when the header is implausible (length
/// beyond the legacy cap) or the stream is too short for the claimed length;
/// otherwise the PDU with its CRC verdict.
[[nodiscard]] std::optional<ParsedAdv> ParseAdvBits(
    std::span<const std::uint8_t> bits, int channel);

/// A modulated advertising burst ready for the ether.
struct AdvBurst {
  dsp::SampleVec samples;  // 8 Msps, mixed to the folded channel offset
  int channel = 37;
  std::size_t air_bits = 0;
};

/// Builds and modulates one advertising PDU on `channel`.
[[nodiscard]] AdvBurst ModulateAdv(int channel, AdvPduType type,
                                   std::span<const std::uint8_t> payload);

/// A demodulated advertising PDU.
struct DecodedAdv {
  int channel = 37;               // advertising channel (spec numbering)
  ParsedAdv pdu;
  std::int64_t start_sample = 0;  // preamble start in the scanned span
  std::int64_t end_sample = 0;
};

/// Advertising-channel scanner on the phybt GfskChannel front end: each
/// channel is mixed to DC, channel-filtered, FM-discriminated, energy-
/// gated, preamble-screened, then matched against the fixed advertising
/// access address (exact 32-bit correlation — no error tolerance needed,
/// the address is known a priori).
class AdvDemodulator {
 public:
  struct Config {
    /// If an advertising channel number (37..39), scan only it; otherwise
    /// scan all three.
    int channel = -1;
    /// Same contract as phybt::Demodulator::Config::noise_floor_power.
    double noise_floor_power = 0.0;
    /// Same contract as phybt::Demodulator::Config::budget.
    util::WorkBudget* budget = nullptr;
  };

  AdvDemodulator();
  explicit AdvDemodulator(Config config);

  /// Scans the band and returns every decodable advertising PDU.
  [[nodiscard]] std::vector<DecodedAdv> DecodeAll(dsp::const_sample_span x);

 private:
  void ScanChannel(dsp::const_sample_span x, int channel,
                   std::vector<DecodedAdv>& out);

  Config config_;
};

}  // namespace rfdump::phyble
