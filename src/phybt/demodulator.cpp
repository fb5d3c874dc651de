#include "rfdump/phybt/demodulator.hpp"

#include "rfdump/dsp/simd.hpp"
#include "rfdump/util/scratch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/nco.hpp"
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
  stats_.samples_processed += x.size();
  c_samples.Inc(x.size());

  // Cooperative deadline: channelize + filter + discriminate are linear in
  // the window, so charge them up front; the scan loop charges per sync
  // check and per body decode, where adversarial input can burn CPU.
  util::WorkBudget* budget = config_.budget;
  if (budget && !budget->Charge(x.size())) return;

  // Channelize: translate the channel to DC and low-pass to ~1 MHz. All the
  // per-channel buffers come from the thread-local scratch arena — the
  // 79-channel scan reuses one set of allocations instead of 4 per channel.
  struct ChTag {};
  auto& ch = util::Scratch<dsp::cfloat, ChTag>();
  ch.assign(x.begin(), x.end());
  dsp::Nco nco(-VisibleIndexOffsetHz(idx), dsp::kSampleRateHz);
  nco.Mix(ch);
  static const std::vector<float> kChanTaps =
      dsp::DesignLowPass(600e3, dsp::kSampleRateHz, 21);
  dsp::FirFilter lp(kChanTaps);
  struct FilteredTag {};
  auto& filtered = util::Scratch<dsp::cfloat, FilteredTag>();
  filtered.clear();
  lp.Process(ch, filtered);

  // Instantaneous frequency + a cheap in-channel energy track for gating,
  // both via the SIMD kernels (power plane feeds the moving average).
  struct FreqTag {};
  auto& freq = util::Scratch<float, FreqTag>();
  FmDiscriminateInto(filtered, freq);
  struct PowerTag {};
  auto& power = util::Scratch<float, PowerTag>();
  power.resize(filtered.size());
  struct PlaneTag {};
  auto& plane = util::Scratch<float, PlaneTag>();
  plane.resize(filtered.size());
  dsp::simd::Active().power_plane(filtered.data(), filtered.size(),
                                  plane.data());
  {
    dsp::MovingAveragePower ma(16);
    for (std::size_t n = 0; n < filtered.size(); ++n) {
      power[n] = ma.Push(plane[n]);
    }
  }
  // Noise floor in-channel: either derived from the known full-band floor
  // (scaled by the channel filter's noise gain) or estimated as the mean of
  // the lowest decile of the power track, which keeps the estimate anchored
  // to noise even when transmissions occupy most of the scanned window.
  double floor_est = 0.0;
  if (config_.noise_floor_power > 0.0) {
    double tap_energy = 0.0;
    for (float t : kChanTaps) tap_energy += static_cast<double>(t) * t;
    floor_est = config_.noise_floor_power * tap_energy;
  } else {
    std::vector<float> probe;
    probe.reserve(power.size() / 64 + 1);
    for (std::size_t n = 0; n < power.size(); n += 64) {
      probe.push_back(power[n]);
    }
    std::sort(probe.begin(), probe.end());
    const std::size_t decile = std::max<std::size_t>(probe.size() / 10, 1);
    for (std::size_t i = 0; i < decile; ++i) floor_est += probe[i];
    floor_est /= static_cast<double>(decile);
  }
  const float gate = static_cast<float>(std::max(floor_est * 4.0, 1e-12));

  const std::size_t need = kAccessBits * kSps;
  std::size_t pos = 1;  // SliceSymbols needs center >= 1
  while (pos + need < freq.size()) {
    // Gate on channel energy: skip quiet stretches cheaply.
    if (power[pos] < gate) {
      pos += kSps;
      continue;
    }
    // Cheap screen: the 4 preamble symbols must alternate in frequency sign.
    const float p0 = freq[pos];
    const float p1 = freq[pos + kSps];
    const float p2 = freq[pos + 2 * kSps];
    const float p3 = freq[pos + 3 * kSps];
    if (!(std::signbit(p0) != std::signbit(p1) &&
          std::signbit(p1) != std::signbit(p2) &&
          std::signbit(p2) != std::signbit(p3))) {
      ++pos;
      continue;
    }
    ++stats_.sync_checks;
    c_checks.Inc();
    if (budget && !budget->Charge(64 * kSps)) break;
    // Slice the 64 sync bits and verify against the BCH code.
    const util::BitVec sync_bits =
        SliceSymbols(freq, pos + 4 * kSps, 64);
    if (sync_bits.size() < 64) break;
    const std::uint64_t word = util::BitsToUintLsbFirst(sync_bits);
    const auto lap = VerifySyncWord(word, config_.max_sync_errors);
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
    ++stats_.packets_decoded;
    c_packets.Inc();
    pos += air_bits * kSps;
  }
}

}  // namespace rfdump::phybt
