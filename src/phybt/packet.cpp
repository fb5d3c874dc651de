#include "rfdump/phybt/packet.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "rfdump/util/crc.hpp"

namespace rfdump::phybt {
namespace {

// BCH(64,30) generator polynomial, octal 260534236651 (Baseband 6.3.3.1),
// degree 34.
constexpr std::uint64_t kBchGenerator = 0260534236651ull;

// 64-bit pseudo-noise overlay sequence p (spec value 0x83848D96BBCC54FC,
// bit 0 transmitted first).
constexpr std::uint64_t kPnSequence = 0x83848D96BBCC54FCull;

}  // namespace

std::uint64_t BchParityBitwise(std::uint64_t info30) {
  std::uint64_t reg = info30 << 34;
  for (int bit = 63; bit >= 34; --bit) {
    if (reg & (1ull << bit)) {
      reg ^= kBchGenerator << (bit - 34);
    }
  }
  return reg;  // 34-bit remainder
}

std::uint64_t BchParity(std::uint64_t info30) {
  // The remainder is GF(2)-linear in the info word, so it is the XOR of the
  // remainders of its four bytes, each tabulated once by the bitwise division.
  static const auto kTables = [] {
    std::array<std::array<std::uint64_t, 256>, 4> t{};
    for (unsigned k = 0; k < 4; ++k) {
      for (std::uint64_t v = 0; v < 256; ++v) {
        t[k][v] = BchParityBitwise(v << (8 * k));
      }
    }
    return t;
  }();
  return kTables[0][info30 & 0xFF] ^ kTables[1][(info30 >> 8) & 0xFF] ^
         kTables[2][(info30 >> 16) & 0xFF] ^ kTables[3][(info30 >> 24) & 0xFF];
}

const char* PacketTypeName(PacketType t) {
  switch (t) {
    case PacketType::kNull: return "NULL";
    case PacketType::kPoll: return "POLL";
    case PacketType::kDh1: return "DH1";
    case PacketType::kDh3: return "DH3";
    case PacketType::kDh5: return "DH5";
  }
  return "?";
}

std::size_t SlotsFor(PacketType t) {
  switch (t) {
    case PacketType::kDh3: return 3;
    case PacketType::kDh5: return 5;
    default: return 1;
  }
}

std::size_t MaxPayloadBytes(PacketType t) {
  switch (t) {
    case PacketType::kDh1: return 27;
    case PacketType::kDh3: return 183;
    case PacketType::kDh5: return 339;
    default: return 0;
  }
}

std::size_t PayloadHeaderBytes(PacketType t) {
  switch (t) {
    case PacketType::kDh1: return 1;
    case PacketType::kDh3:
    case PacketType::kDh5: return 2;
    default: return 0;
  }
}

std::uint64_t SyncWord(std::uint32_t lap) {
  lap &= 0xFFFFFF;
  // 30-bit info: LAP plus 6-bit appendix (Barker extension): 001101 if the
  // LAP MSB is 0, 110010 otherwise (appendix occupies the high bits).
  const std::uint32_t appendix = (lap & 0x800000) ? 0b110010u : 0b001101u;
  const std::uint64_t info =
      (static_cast<std::uint64_t>(appendix) << 24) | lap;
  // XOR the info with the upper 30 bits of the PN sequence before encoding.
  const std::uint64_t pn_info = (kPnSequence >> 34) & 0x3FFFFFFFull;
  const std::uint64_t x = info ^ pn_info;
  const std::uint64_t parity = BchParity(x);
  const std::uint64_t codeword = (x << 34) | parity;
  // Overlay the full PN sequence.
  return codeword ^ kPnSequence;
}

util::BitVec AccessCodeBits(std::uint32_t lap) {
  const std::uint64_t sync = SyncWord(lap);
  util::BitVec bits;
  bits.reserve(68);
  // Preamble 1010 or 0101 depending on the first sync bit (spec 6.3.1).
  const std::uint8_t first_sync = static_cast<std::uint8_t>(sync & 1u);
  for (int i = 0; i < 4; ++i) {
    bits.push_back(static_cast<std::uint8_t>((i % 2) ^ first_sync ^ 1u));
  }
  util::AppendBits(bits, util::UintToBitsLsbFirst(sync, 64));
  return bits;
}

std::optional<std::uint32_t> VerifySyncWord(std::uint64_t word,
                                            int max_errors) {
  const std::uint64_t codeword = word ^ kPnSequence;
  const std::uint64_t x = codeword >> 34;
  const std::uint32_t lap =
      static_cast<std::uint32_t>((x ^ (kPnSequence >> 34)) & 0xFFFFFF);
  if (max_errors <= 0) {
    // Exact parity check.
    const std::uint64_t parity = codeword & 0x3FFFFFFFFull;
    if (BchParity(x) != parity) return std::nullopt;
    return lap;
  }
  // Tolerant check: re-encode the candidate LAP and compare Hamming distance
  // (the code's minimum distance of 14 makes wrong-LAP acceptance unlikely).
  const std::uint64_t expected = SyncWord(lap);
  if (std::popcount(expected ^ word) > max_errors) return std::nullopt;
  return lap;
}

util::BitVec WhiteningSequence(std::uint8_t clk6, std::size_t n) {
  // 7-bit LFSR, polynomial x^7 + x^4 + 1; seed = 1 in bit 6, clk6 in bits 5..0.
  std::uint8_t state =
      static_cast<std::uint8_t>(0x40u | (clk6 & 0x3Fu));
  util::BitVec seq(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t out = static_cast<std::uint8_t>((state >> 6) & 1u);
    seq[i] = out;
    const std::uint8_t fb =
        static_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1u);
    state = static_cast<std::uint8_t>(((state << 1) | fb) & 0x7F);
  }
  return seq;
}

namespace {

util::BitVec HeaderBits18(const PacketHeader& h, std::uint8_t uap) {
  util::BitVec bits;
  bits.reserve(18);
  util::AppendBits(bits, util::UintToBitsLsbFirst(h.lt_addr & 0x7u, 3));
  util::AppendBits(bits, util::UintToBitsLsbFirst(
                             static_cast<std::uint8_t>(h.type) & 0xFu, 4));
  bits.push_back(h.flow ? 1u : 0u);
  bits.push_back(h.arqn ? 1u : 0u);
  bits.push_back(h.seqn ? 1u : 0u);
  const std::uint8_t hec = util::BluetoothHec(bits, uap);
  util::AppendBits(bits, util::UintToBitsLsbFirst(hec, 8));
  return bits;
}

util::BitVec Fec13Encode(std::span<const std::uint8_t> bits) {
  util::BitVec out;
  out.reserve(bits.size() * 3);
  for (std::uint8_t b : bits) {
    out.push_back(b);
    out.push_back(b);
    out.push_back(b);
  }
  return out;
}

util::BitVec Fec13Decode(std::span<const std::uint8_t> bits) {
  util::BitVec out(bits.size() / 3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int votes = bits[3 * i] + bits[3 * i + 1] + bits[3 * i + 2];
    out[i] = (votes >= 2) ? 1u : 0u;
  }
  return out;
}

util::BitVec PayloadSectionBits(PacketType type,
                                std::span<const std::uint8_t> payload,
                                std::uint8_t uap) {
  util::BitVec bits;
  // Payload header: LLID(2)=10 (start of L2CAP), FLOW(1)=1, LENGTH(9 or 5).
  const std::size_t hdr_bytes = PayloadHeaderBytes(type);
  if (hdr_bytes == 1) {
    std::uint8_t ph = 0b01u;                      // LLID
    ph |= 1u << 2;                                // FLOW
    ph |= static_cast<std::uint8_t>(payload.size() << 3);  // LENGTH (5 bits)
    util::AppendBits(bits, util::UintToBitsLsbFirst(ph, 8));
  } else {
    std::uint16_t ph = 0b01u;
    ph |= 1u << 2;
    ph |= static_cast<std::uint16_t>(payload.size() << 3);  // LENGTH (9 bits)
    util::AppendBits(bits, util::UintToBitsLsbFirst(ph, 16));
  }
  util::AppendBits(bits, util::BytesToBitsLsbFirst(payload));
  // CRC-16 CCITT over payload header + payload, init = UAP in the high byte
  // (spec 7.1.4 uses UAP << 8).
  const std::uint16_t crc = util::Crc16CcittBits(
      bits, static_cast<std::uint16_t>(uap) << 8);
  util::AppendBits(bits, util::UintToBitsLsbFirst(crc, 16));
  return bits;
}

}  // namespace

util::BitVec BuildPacketBits(const DeviceAddress& addr,
                             const PacketHeader& header,
                             std::span<const std::uint8_t> payload,
                             std::uint8_t clk6) {
  util::BitVec air = AccessCodeBits(addr.lap);
  // Header: 18 bits -> FEC 1/3 -> 54 bits, then whitened.
  util::BitVec protected_bits = Fec13Encode(HeaderBits18(header, addr.uap));
  if (MaxPayloadBytes(header.type) > 0 && !payload.empty()) {
    util::AppendBits(protected_bits,
                     PayloadSectionBits(header.type, payload, addr.uap));
  }
  const util::BitVec white = WhiteningSequence(clk6, protected_bits.size());
  for (std::size_t i = 0; i < protected_bits.size(); ++i) {
    protected_bits[i] ^= white[i];
  }
  util::AppendBits(air, protected_bits);
  return air;
}

std::size_t PacketAirBits(PacketType t, std::size_t payload_bytes) {
  std::size_t bits = 68 + 54;
  if (MaxPayloadBytes(t) > 0 && payload_bytes > 0) {
    bits += (PayloadHeaderBytes(t) + payload_bytes + 2) * 8;
  }
  return bits;
}

std::optional<ParsedPacket> ParsePacketBits(
    std::span<const std::uint8_t> bits, std::uint8_t expected_uap) {
  if (bits.size() < 54) return std::nullopt;
  // Brute-force the whitening seed; accept when the HEC validates against the
  // expected UAP (a real passive monitor also iterates candidate UAPs; our
  // experiments know the UAP, which only changes the constant factor).
  for (std::uint8_t clk6 = 0; clk6 < 64; ++clk6) {
    const util::BitVec white = WhiteningSequence(clk6, bits.size());
    util::BitVec unwhitened(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      unwhitened[i] = bits[i] ^ white[i];
    }
    const util::BitVec hdr = Fec13Decode(
        std::span<const std::uint8_t>(unwhitened).first(54));
    const std::uint8_t hec = util::BluetoothHec(
        std::span<const std::uint8_t>(hdr).first(10), expected_uap);
    const std::uint8_t rx_hec = static_cast<std::uint8_t>(
        util::BitsToUintLsbFirst(std::span<const std::uint8_t>(hdr)
                                     .subspan(10, 8)));
    if (hec != rx_hec) continue;
    // Reject seeds whose HEC collides but whose TYPE field is not a packet
    // type we model (the 8-bit HEC alone lets ~1 in 4 wrong seeds through).
    const auto type_val = util::BitsToUintLsbFirst(
        std::span<const std::uint8_t>(hdr).subspan(3, 4));
    switch (static_cast<PacketType>(type_val)) {
      case PacketType::kNull:
      case PacketType::kPoll:
      case PacketType::kDh1:
      case PacketType::kDh3:
      case PacketType::kDh5:
        break;
      default:
        continue;
    }

    ParsedPacket pkt;
    pkt.clk6 = clk6;
    pkt.uap = expected_uap;
    pkt.header.lt_addr = static_cast<std::uint8_t>(
        util::BitsToUintLsbFirst(std::span<const std::uint8_t>(hdr).first(3)));
    pkt.header.type = static_cast<PacketType>(util::BitsToUintLsbFirst(
        std::span<const std::uint8_t>(hdr).subspan(3, 4)));
    pkt.header.flow = hdr[7];
    pkt.header.arqn = hdr[8];
    pkt.header.seqn = hdr[9];

    // Payload section, if the type carries one and bits are available.
    const std::size_t ph_bytes = PayloadHeaderBytes(pkt.header.type);
    if (ph_bytes > 0 && unwhitened.size() >= 54 + ph_bytes * 8) {
      const auto body = std::span<const std::uint8_t>(unwhitened).subspan(54);
      std::size_t length = 0;
      if (ph_bytes == 1) {
        const auto ph = util::BitsToUintLsbFirst(body.first(8));
        length = (ph >> 3) & 0x1F;
      } else {
        const auto ph = util::BitsToUintLsbFirst(body.first(16));
        length = (ph >> 3) & 0x1FF;
      }
      const std::size_t section_bits = (ph_bytes + length + 2) * 8;
      if (length <= MaxPayloadBytes(pkt.header.type) &&
          body.size() >= section_bits) {
        const std::uint16_t crc = util::Crc16CcittBits(
            body.first((ph_bytes + length) * 8),
            static_cast<std::uint16_t>(expected_uap) << 8);
        const std::uint16_t rx_crc = static_cast<std::uint16_t>(
            util::BitsToUintLsbFirst(
                body.subspan((ph_bytes + length) * 8, 16)));
        pkt.crc_ok = (crc == rx_crc);
        const auto payload_bits = body.subspan(ph_bytes * 8, length * 8);
        pkt.payload = util::BitsToBytesLsbFirst(payload_bits);
      }
    }
    return pkt;
  }
  return std::nullopt;
}

}  // namespace rfdump::phybt
