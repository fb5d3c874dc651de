#pragma once
// Bluetooth baseband packet construction: channel access code (sync word
// derived from the LAP via the BCH(64,30) construction), packet header with
// rate-1/3 FEC and HEC, DH1/3/5 payloads with payload header and CRC-16, and
// data whitening.
//
// The demodulator side (BlueSniff-style) recovers the UAP-seeded checks by
// brute force where a passive observer could not know them a priori.

#include <cstdint>
#include <optional>

#include "rfdump/util/bits.hpp"

namespace rfdump::phybt {

/// Bluetooth device address pieces relevant to the baseband.
struct DeviceAddress {
  std::uint32_t lap = 0;  // lower address part, 24 bits (sync word seed)
  std::uint8_t uap = 0;   // upper address part (HEC / CRC seed)
};

/// Baseband packet types we model (4-bit TYPE field values for ACL).
enum class PacketType : std::uint8_t {
  kNull = 0x0,
  kPoll = 0x1,
  kDh1 = 0x4,
  kDh3 = 0xB,
  kDh5 = 0xF,
};

[[nodiscard]] const char* PacketTypeName(PacketType t);

/// Number of 625 us TDD slots a packet type occupies.
[[nodiscard]] std::size_t SlotsFor(PacketType t);

/// Maximum user payload bytes for a DH packet type.
[[nodiscard]] std::size_t MaxPayloadBytes(PacketType t);

/// Packet header fields (18 bits before FEC).
struct PacketHeader {
  std::uint8_t lt_addr = 1;  // 3 bits
  PacketType type = PacketType::kDh1;
  bool flow = true;
  bool arqn = false;
  bool seqn = false;
};

/// BCH(64,30) parity of a 30-bit info word: the 34-bit remainder of
/// info * x^34 mod g(x), as the XOR of four byte-table lookups.
[[nodiscard]] std::uint64_t BchParity(std::uint64_t info30);

/// The same remainder by bitwise polynomial division: the reference the
/// tables are built from.
[[nodiscard]] std::uint64_t BchParityBitwise(std::uint64_t info30);

/// 64-bit sync word from the LAP (BCH(64,30) with pseudo-noise overlay per
/// Baseband spec 6.3.3). Bit 0 of the result is transmitted first.
[[nodiscard]] std::uint64_t SyncWord(std::uint32_t lap);

/// Full 68-bit access code: 4-bit preamble + 64-bit sync word (we omit the
/// optional 4-bit trailer, which only exists when a header follows and is
/// absorbed into our preamble handling).
[[nodiscard]] util::BitVec AccessCodeBits(std::uint32_t lap);

/// Verifies a received 64-bit sync word (bit 0 first) against the BCH(64,30)
/// code and recovers the transmitter LAP. `max_errors` bit errors are
/// tolerated (verified by re-encoding the recovered LAP). Returns nullopt if
/// the word is not a valid sync word.
[[nodiscard]] std::optional<std::uint32_t> VerifySyncWord(std::uint64_t word,
                                                          int max_errors = 0);

/// Whitening LFSR (x^7 + x^4 + 1) seeded with a 6-bit clock value (bit 6 is
/// fixed to 1 per spec). Returns the whitening sequence of length `n`.
[[nodiscard]] util::BitVec WhiteningSequence(std::uint8_t clk6, std::size_t n);

/// Serialized over-the-air bits of a complete packet: access code, FEC-1/3
/// header (whitened), payload header + payload + CRC-16 (whitened). For
/// kNull/kPoll there is no payload section.
[[nodiscard]] util::BitVec BuildPacketBits(
    const DeviceAddress& addr, const PacketHeader& header,
    std::span<const std::uint8_t> payload, std::uint8_t clk6);

/// Parsed packet (demodulator output).
struct ParsedPacket {
  PacketHeader header;
  std::vector<std::uint8_t> payload;
  bool crc_ok = false;
  std::uint8_t clk6 = 0;       // whitening seed recovered by brute force
  std::uint8_t uap = 0;        // UAP recovered from the HEC by brute force
};

/// Attempts to parse header + payload from the bit stream that follows an
/// access code. Brute-forces the whitening seed (64 values) and UAP via the
/// HEC, like BlueSniff. `bits` should contain at least 54 bits; payload
/// parsing uses as many whole bits as are available.
[[nodiscard]] std::optional<ParsedPacket> ParsePacketBits(
    std::span<const std::uint8_t> bits, std::uint8_t expected_uap);

/// Air bits for a packet type carrying `payload_bytes`
/// (68 access + 54 header + payload section with header/CRC).
[[nodiscard]] std::size_t PacketAirBits(PacketType t,
                                        std::size_t payload_bytes);

/// Payload header size in bytes for a type (1 for DH1, 2 for DH3/DH5).
[[nodiscard]] std::size_t PayloadHeaderBytes(PacketType t);

}  // namespace rfdump::phybt
