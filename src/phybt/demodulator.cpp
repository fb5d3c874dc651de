#include "rfdump/phybt/demodulator.hpp"

#include <algorithm>

#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/phybt/hopping.hpp"
#include "rfdump/obs/obs.hpp"

namespace rfdump::phybt {
namespace {

constexpr std::size_t kSps = kSamplesPerSymbol;
constexpr std::size_t kAccessBits = 68;
// Longest possible post-access-code section: 54 header bits + payload header
// (2B) + 339B payload + CRC (2B).
constexpr std::size_t kMaxBodyBits = 54 + (2 + 339 + 2) * 8;

}  // namespace

Demodulator::Demodulator() : Demodulator(Config{}) {}

Demodulator::Demodulator(Config config) : config_(config) {}

std::vector<DecodedBtPacket> Demodulator::DecodeAll(dsp::const_sample_span x) {
  std::vector<DecodedBtPacket> out;
  if (x.size() < kAccessBits * kSps) return out;
  if (config_.channel_index >= 0) {
    ScanChannel(x, config_.channel_index, out);
  } else {
    for (int idx = 0; idx < kVisibleChannels; ++idx) {
      if (config_.budget && config_.budget->expired()) break;
      ScanChannel(x, idx, out);
    }
  }
  return out;
}

void Demodulator::ScanChannel(dsp::const_sample_span x, int idx,
                              std::vector<DecodedBtPacket>& out) {
  static obs::Counter& c_samples = obs::Registry::Default().GetCounter(
      "rfdump_phybt_samples_total");
  static obs::Counter& c_checks = obs::Registry::Default().GetCounter(
      "rfdump_phybt_sync_checks_total");
  static obs::Counter& c_packets = obs::Registry::Default().GetCounter(
      "rfdump_phybt_packets_total");
  static obs::Counter& c_crc_pass = obs::Registry::Default().GetCounter(
      "rfdump_phybt_crc_pass_total");
  static obs::Counter& c_crc_fail = obs::Registry::Default().GetCounter(
      "rfdump_phybt_crc_fail_total");
  static obs::Counter& c_screened = obs::Registry::Default().GetCounter(
      "rfdump_phybt_channels_screened_total");
  c_samples.Inc(x.size());

  // Cooperative deadline: channelize + filter + discriminate are linear in
  // the window, so charge them up front; the scan loop charges per sync
  // check and per body decode, where adversarial input can burn CPU.
  util::WorkBudget* budget = config_.budget;
  if (budget && !budget->Charge(x.size())) return;

  // A channel with no stretch above the noise floor is not channelized.
  const GfskChannel channel(VisibleIndexOffsetHz(idx));
  if (!channel.Occupied(x, config_.noise_floor_power)) {
    c_screened.Inc();
    return;
  }

  // Channelize, discriminate, gate and pack the slicer plane.
  const GfskTrack track = channel.Process(x, config_.noise_floor_power);
  const std::span<const float> freq = track.freq;

  const std::size_t need = kAccessBits * kSps;
  const std::size_t limit = freq.size() > need ? freq.size() - need : 0;
  std::size_t pos = 1;  // SliceSymbols needs center >= 1
  obs::Tally checks(c_checks);
  while ((pos = track.NextCandidate(pos, limit)) < limit) {
    checks.Inc();
    if (budget && !budget->Charge(64 * kSps)) break;
    // The 64 sync bits, read off the slicer plane (every center is inside
    // the track: pos < limit), verified against the BCH code.
    const auto lap = VerifySyncWord(track.plane.Word(pos + 4 * kSps, 64),
                                    config_.max_sync_errors);
    if (!lap) {
      ++pos;
      continue;
    }

    // Decode header + payload.
    const std::size_t body_start = pos + kAccessBits * kSps;
    const std::size_t avail_bits =
        (freq.size() - body_start) / kSps;
    if (budget &&
        !budget->Charge(std::min(avail_bits, kMaxBodyBits) * kSps)) {
      break;
    }
    const util::BitVec body = SliceSymbols(
        freq, body_start, std::min(avail_bits, kMaxBodyBits));
    auto parsed = ParsePacketBits(body, config_.expected_uap);
    if (!parsed) {
      pos += kSps;  // genuine access code but undecodable header: move on
      continue;
    }
    DecodedBtPacket pkt;
    pkt.lap = *lap;
    pkt.channel_index = idx;
    pkt.packet = std::move(*parsed);
    pkt.start_sample = static_cast<std::int64_t>(pos);
    const std::size_t air_bits = PacketAirBits(
        pkt.packet.header.type,
        pkt.packet.payload.empty() ? 0 : pkt.packet.payload.size());
    pkt.end_sample = static_cast<std::int64_t>(pos + air_bits * kSps);
    (pkt.packet.crc_ok ? c_crc_pass : c_crc_fail).Inc();
    out.push_back(std::move(pkt));
    c_packets.Inc();
    pos += air_bits * kSps;
  }
}

}  // namespace rfdump::phybt
