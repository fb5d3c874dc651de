#include "rfdump/phyble/adv.hpp"

#include <algorithm>

#include "rfdump/dsp/nco.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/phybt/packet.hpp"

namespace rfdump::phyble {
namespace {

constexpr std::size_t kSps = phybt::kSamplesPerSymbol;
// Preamble + access address, the fixed part every PDU starts with.
constexpr std::size_t kSyncBits = kPreambleBits + kAccessBits;
// Longest possible PDU section: header + max payload + CRC.
constexpr std::size_t kMaxBodyBits =
    (kHeaderBytes + kMaxAdvPayloadBytes + kCrcBytes) * 8;

/// XORs the BLE whitening sequence for `channel` into `bits` in place. The
/// BLE whitening LFSR (x^7 + x^4 + 1, bit 6 preset to 1, bits 5..0 = channel
/// index) is the Bluetooth BR one seeded with the channel, so phybt's
/// implementation is reused directly.
void Whiten(int channel, std::span<std::uint8_t> bits) {
  const util::BitVec w = phybt::WhiteningSequence(
      static_cast<std::uint8_t>(channel & 0x3F), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] ^= w[i];
}

}  // namespace

const char* AdvPduTypeName(AdvPduType t) {
  switch (t) {
    case AdvPduType::kAdvInd: return "ADV_IND";
    case AdvPduType::kAdvNonconnInd: return "ADV_NONCONN_IND";
    case AdvPduType::kAdvScanInd: return "ADV_SCAN_IND";
  }
  return "ADV?";
}

std::optional<double> AdvChannelOffsetHz(int channel) {
  switch (channel) {
    case 37: return -3e6;
    case 38: return 0.0;
    case 39: return 3e6;
  }
  return std::nullopt;
}

std::uint32_t Crc24(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = kCrcInit;
  for (const std::uint8_t byte : bytes) {
    for (int k = 0; k < 8; ++k) {
      const std::uint32_t in = (byte >> k) & 1u;
      const std::uint32_t fb = ((crc >> 23) & 1u) ^ in;
      crc = (crc << 1) & 0xFFFFFFu;
      if (fb) crc ^= kCrcPoly;
    }
  }
  return crc;
}

util::BitVec BuildAdvBits(int channel, AdvPduType type,
                          std::span<const std::uint8_t> payload) {
  const std::size_t len = std::min(payload.size(), kMaxAdvPayloadBytes);
  util::BitVec bits;
  bits.reserve(AdvAirBits(len));
  // Alternating preamble; its last bit (1) continues the alternation into
  // the access address's first transmitted bit (0).
  for (std::size_t i = 0; i < kPreambleBits; ++i) {
    bits.push_back(static_cast<std::uint8_t>(i & 1u));
  }
  util::AppendBits(bits, util::UintToBitsLsbFirst(kAdvAccessAddress,
                                                  kAccessBits));

  std::vector<std::uint8_t> pdu;
  pdu.reserve(kHeaderBytes + len);
  pdu.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(type) &
                                          0x0Fu));
  pdu.push_back(static_cast<std::uint8_t>(len & 0x3Fu));
  pdu.insert(pdu.end(), payload.begin(),
             payload.begin() + static_cast<std::ptrdiff_t>(len));

  util::BitVec body = util::BytesToBitsLsbFirst(pdu);
  util::AppendBits(body, util::UintToBitsLsbFirst(Crc24(pdu), kCrcBytes * 8));
  Whiten(channel, body);
  util::AppendBits(bits, body);
  return bits;
}

std::size_t AdvAirBits(std::size_t payload_bytes) {
  return kSyncBits + (kHeaderBytes + payload_bytes + kCrcBytes) * 8;
}

double AdvAirtimeUs(std::size_t payload_bytes) {
  return static_cast<double>(AdvAirBits(payload_bytes));
}

std::optional<ParsedAdv> ParseAdvBits(std::span<const std::uint8_t> bits,
                                      int channel) {
  constexpr std::size_t kHeaderBits = kHeaderBytes * 8;
  constexpr std::size_t kCrcBits = kCrcBytes * 8;
  if (bits.size() < kHeaderBits + kCrcBits) return std::nullopt;

  util::BitVec clear(bits.begin(), bits.end());
  Whiten(channel, clear);

  const auto header = util::BitsToBytesLsbFirst(
      std::span<const std::uint8_t>(clear).first(kHeaderBits));
  const std::size_t len = header[1] & 0x3Fu;
  // Plausibility gate: a legacy advertising PDU cannot claim more than 37
  // payload bytes; longer claims are noise that survived the access-address
  // correlation only in theory.
  if (len > kMaxAdvPayloadBytes) return std::nullopt;
  const std::size_t need = kHeaderBits + len * 8 + kCrcBits;
  if (bits.size() < need) return std::nullopt;

  const auto pdu = util::BitsToBytesLsbFirst(
      std::span<const std::uint8_t>(clear).first(kHeaderBits + len * 8));
  const std::uint32_t rx_crc =
      static_cast<std::uint32_t>(util::BitsToUintLsbFirst(
          std::span<const std::uint8_t>(clear).subspan(kHeaderBits + len * 8,
                                                       kCrcBits)));
  ParsedAdv out;
  out.type = static_cast<AdvPduType>(header[0] & 0x0Fu);
  out.payload.assign(pdu.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes),
                     pdu.end());
  out.crc_ok = rx_crc == Crc24(pdu);
  return out;
}

AdvBurst ModulateAdv(int channel, AdvPduType type,
                     std::span<const std::uint8_t> payload) {
  AdvBurst burst;
  burst.channel = channel;
  const util::BitVec bits = BuildAdvBits(channel, type, payload);
  burst.air_bits = bits.size();
  const auto offset = AdvChannelOffsetHz(channel);
  if (!offset) return burst;
  burst.samples = phybt::GfskModulate(bits);
  dsp::Nco nco(*offset, dsp::kSampleRateHz);
  nco.Mix(burst.samples);
  return burst;
}

AdvDemodulator::AdvDemodulator() : AdvDemodulator(Config{}) {}

AdvDemodulator::AdvDemodulator(Config config) : config_(config) {}

std::vector<DecodedAdv> AdvDemodulator::DecodeAll(dsp::const_sample_span x) {
  std::vector<DecodedAdv> out;
  if (x.size() < kSyncBits * kSps) return out;
  if (AdvChannelOffsetHz(config_.channel)) {
    ScanChannel(x, config_.channel, out);
  } else {
    for (const int channel : kAdvChannels) {
      if (config_.budget && config_.budget->expired()) break;
      ScanChannel(x, channel, out);
    }
  }
  return out;
}

void AdvDemodulator::ScanChannel(dsp::const_sample_span x, int channel,
                                 std::vector<DecodedAdv>& out) {
  static obs::Counter& c_samples = obs::Registry::Default().GetCounter(
      "rfdump_phyble_samples_total");
  static obs::Counter& c_checks = obs::Registry::Default().GetCounter(
      "rfdump_phyble_sync_checks_total");
  static obs::Counter& c_pdus = obs::Registry::Default().GetCounter(
      "rfdump_phyble_pdus_total");
  static obs::Counter& c_crc_pass = obs::Registry::Default().GetCounter(
      "rfdump_phyble_crc_pass_total");
  static obs::Counter& c_crc_fail = obs::Registry::Default().GetCounter(
      "rfdump_phyble_crc_fail_total");
  static obs::Counter& c_screened = obs::Registry::Default().GetCounter(
      "rfdump_phyble_channels_screened_total");
  c_samples.Inc(x.size());

  // Same cooperative-deadline shape as phybt: the linear front matter is
  // charged up front, the scan loop per correlation and per body decode.
  util::WorkBudget* budget = config_.budget;
  if (budget && !budget->Charge(x.size())) return;

  // The phybt GFSK front end, tuned to the folded advertising channel; a
  // channel with no stretch above the noise floor is not channelized.
  const phybt::GfskChannel front(*AdvChannelOffsetHz(channel));
  if (!front.Occupied(x, config_.noise_floor_power)) {
    c_screened.Inc();
    return;
  }

  // Channelize, discriminate, gate and pack the slicer plane.
  const phybt::GfskTrack track = front.Process(x, config_.noise_floor_power);
  const std::span<const float> freq = track.freq;

  const std::size_t need = kSyncBits * kSps;
  const std::size_t limit = freq.size() > need ? freq.size() - need : 0;
  std::size_t pos = 1;  // SliceSymbols needs center >= 1
  obs::Tally checks(c_checks);
  while ((pos = track.NextCandidate(pos, limit)) < limit) {
    checks.Inc();
    if (budget && !budget->Charge(kAccessBits * kSps)) break;
    // The advertising access address is fixed and known, so candidates are
    // verified by exact 32-bit correlation — no BCH structure needed. The
    // plane holds every center of it (pos < limit).
    if (track.plane.Word(pos + kPreambleBits * kSps, kAccessBits) !=
        kAdvAccessAddress) {
      ++pos;
      continue;
    }

    const std::size_t body_start = pos + kSyncBits * kSps;
    const std::size_t avail_bits = (freq.size() - body_start) / kSps;
    if (budget &&
        !budget->Charge(std::min(avail_bits, kMaxBodyBits) * kSps)) {
      break;
    }
    const util::BitVec body = phybt::SliceSymbols(
        freq, body_start, std::min(avail_bits, kMaxBodyBits));
    auto parsed = ParseAdvBits(body, channel);
    if (!parsed) {
      pos += kSps;  // genuine access address but implausible header: move on
      continue;
    }
    DecodedAdv adv;
    adv.channel = channel;
    adv.pdu = std::move(*parsed);
    adv.start_sample = static_cast<std::int64_t>(pos);
    const std::size_t air_bits = AdvAirBits(adv.pdu.payload.size());
    adv.end_sample = static_cast<std::int64_t>(pos + air_bits * kSps);
    (adv.pdu.crc_ok ? c_crc_pass : c_crc_fail).Inc();
    out.push_back(std::move(adv));
    c_pdus.Inc();
    pos += air_bits * kSps;
  }
}

}  // namespace rfdump::phyble
