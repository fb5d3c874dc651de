// 802.11b protocol bundle (DESIGN.md §15): feature rows, SIFS/DIFS timing +
// DBPSK/Barker phase detectors (whose whole-peak match also claims peaks
// from other protocols' timing tags), the DSSS demodulator analysis unit, the
// canned unicast-ping scenario op and the PLCP fuzz target.
//
// rfdump-bundle-cli: wifi   (scanned by tests/CMakeLists.txt to derive the
// per-protocol ctest labels — keep in sync with cli_name below)

#include <algorithm>

#include "rfdump/core/fuzz_io.hpp"
#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/timing_detectors.hpp"
#include "rfdump/mac80211/frames.hpp"
#include "rfdump/phy80211/demodulator.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phy80211/plcp.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::core {
namespace {

/// ProtocolEvent::header bit 8: the MPDU was decoded (not header-only).
constexpr std::uint32_t kPayloadDecoded = 1u << 8;

std::vector<std::uint8_t> WifiSeedInput(std::size_t i, util::Xoshiro256& rng) {
  switch (i % 5) {
    case 0: {  // valid header bits (rate/length grid)
      static constexpr phy80211::Rate kRates[] = {
          phy80211::Rate::k1Mbps, phy80211::Rate::k2Mbps,
          phy80211::Rate::k5_5Mbps, phy80211::Rate::k11Mbps};
      phy80211::PlcpHeader h;
      h.rate = kRates[i % 4];
      const std::size_t bytes = 1 + rng.UniformInt(0, 256);
      h.length_us = phy80211::PlcpHeader::DurationUsFor(h.rate, bytes);
      h.service = phy80211::PlcpHeader::ServiceFor(h.rate, bytes);
      const auto bits = phy80211::BuildPlcpBits(h);
      // Mode 0: bit parse.
      return FuzzInput({0}, std::span<const std::uint8_t>(bits).last(48));
    }
    case 1: {  // corrupted header bits
      phy80211::PlcpHeader h;
      h.rate = phy80211::Rate::k2Mbps;
      h.length_us = phy80211::PlcpHeader::DurationUsFor(
          h.rate, 1 + rng.UniformInt(0, 64));
      const auto bits = phy80211::BuildPlcpBits(h);
      auto data = FuzzInput({0}, std::span<const std::uint8_t>(bits).last(48));
      FuzzMutateInput(data, rng);
      return data;
    }
    case 2: {  // random bit-mode bytes (short, long, empty payload)
      std::vector<std::uint8_t> data{0};
      const std::size_t n = rng.UniformInt(0, 96);
      for (std::size_t k = 0; k < n; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 255)));
      }
      return data;
    }
    case 3: {  // modulated frame samples (truncated)
      phy80211::Modulator mod;
      std::vector<std::uint8_t> mpdu(8 + rng.UniformInt(0, 24));
      for (auto& b : mpdu) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto x = mod.Modulate(mpdu, phy80211::Rate::k1Mbps);
      std::vector<std::uint8_t> data{1};  // mode: demodulator
      FuzzAppendSamples(data, x, 1200 + rng.UniformInt(0, 1000));
      return data;
    }
    default: {  // random sample bytes
      std::vector<std::uint8_t> data{1};
      const std::size_t n = 2 * (64 + rng.UniformInt(0, 1024));
      for (std::size_t k = 0; k < n; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 255)));
      }
      return data;
    }
  }
}

int WifiFuzzRun(std::span<const std::uint8_t> data, util::WorkBudget* budget) {
  if (data.empty()) return 0;
  const std::uint8_t mode = data[0];
  const auto payload = data.subspan(1);
  int decodes = 0;
  if (mode % 2 == 0) {
    const auto bits = FuzzBytesToBits(payload);
    const std::span<const std::uint8_t> all(bits);
    // Exact-size parse plus a deliberately wrong-size call (size guard).
    if (const auto h =
            phy80211::ParsePlcpHeader(all.first(std::min<std::size_t>(
                bits.size(), 48)))) {
      ++decodes;
      (void)h->MpduBytes();
      (void)phy80211::PlcpHeader::DurationUsFor(h->rate, h->MpduBytes());
      (void)phy80211::PlcpHeader::ServiceFor(h->rate, h->MpduBytes());
    }
    (void)phy80211::ParsePlcpHeader(all);
  } else {
    phy80211::Demodulator::Config cfg;
    cfg.budget = budget;
    phy80211::Demodulator demod(cfg);
    decodes +=
        static_cast<int>(demod.DecodeAll(FuzzBytesToSamples(payload)).size());
  }
  return decodes;
}

ProtocolBundle MakeWifiBundle() {
  ProtocolBundle b;
  b.protocol = Protocol::kWifi80211b;
  b.name = "802.11b";
  b.cli_name = "wifi";
  b.features = {
      {Protocol::kWifi80211b, "802.11b (1 Mbps)", 20.0, 10.0,
       Modulation::kDbpsk, "Barker", 22.0, 1e6},
      {Protocol::kWifi80211b, "802.11b (2 Mbps)", 20.0, 10.0,
       Modulation::kDqpsk, "Barker", 22.0, 1e6},
      {Protocol::kWifi80211b, "802.11b (5.5 Mbps)", 20.0, 10.0,
       Modulation::kCck, "CCK", 22.0, 1.375e6},
      {Protocol::kWifi80211b, "802.11b (11 Mbps)", 20.0, 10.0,
       Modulation::kCck, "CCK", 22.0, 1.375e6},
  };
  b.default_enabled = true;
  b.naive_member = true;
  b.oracle_scored = true;
  b.detect_rank = 0;

  b.make_detectors = [] {
    ProtocolDetectors d;
    auto timing = std::make_shared<WifiTimingDetector>();
    d.on_peaks = [timing](std::span<const Peak> fresh) {
      return timing->OnPeaks(fresh);
    };
    const DbpskPhaseDetector phase;
    d.on_peak = [phase](const Peak& p, dsp::const_sample_span span) {
      return phase.OnPeak(p, span);
    };
    d.claims_peak = [phase](dsp::const_sample_span span) {
      return phase.MatchesWholePeak(span);
    };
    return d;
  };

  b.analysis_plan = [](const AnalysisConfig&) {
    return AnalysisPlan{.units = 1};
  };
  b.run_unit = [](const AnalysisUnitContext& ctx, int) -> AnalysisCommit {
    phy80211::Demodulator::Config cfg;
    cfg.budget = ctx.budget;
    phy80211::Demodulator wifi(cfg);
    std::vector<ProtocolEvent> events;
    for (auto& f : wifi.DecodeAll(ctx.span)) {
      ProtocolEvent e;
      e.protocol = Protocol::kWifi80211b;
      e.start_sample = f.start_sample + ctx.start_sample;
      e.end_sample = f.end_sample + ctx.start_sample;
      e.crc_ok = f.fcs_ok;
      e.payload = std::move(f.mpdu);
      e.header = static_cast<std::uint32_t>(f.header.rate) |
                 (f.payload_decoded ? kPayloadDecoded : 0u);
      events.push_back(std::move(e));
    }
    return {std::move(events)};
  };
  b.describe = [](const ProtocolEvent& e) {
    std::string info = "802.11b    ";
    info += phy80211::RateName(static_cast<phy80211::Rate>(e.header & 0xFF));
    if (e.crc_ok) {
      if (const auto mac = mac80211::ParseFrame(e.payload)) {
        info += ' ';
        info += mac80211::FrameKindName(mac->kind);
        if (mac->kind == mac80211::FrameKind::kData) {
          info += ' ';
          info += mac80211::ToString(mac->addr2);
          info += " > ";
          info += mac80211::ToString(mac->addr1);
          info += " (";
          info += std::to_string(e.payload.size());
          info += " B)";
        }
      } else {
        info += " undecodable MAC frame";
      }
    } else if ((e.header & kPayloadDecoded) != 0) {
      info += " BAD FCS";
    } else {
      info += " header only (rate beyond decoder)";
    }
    return info;
  };

  b.canned_traffic = [](emu::Ether& ether, std::int64_t start, double off) {
    traffic::WifiPingConfig cfg;
    cfg.count = 4;
    cfg.interval_us = 10'000.0;
    cfg.snr_db = 25.0 + off;
    return traffic::GenerateUnicastPing(ether, cfg, start).end_sample;
  };
  b.canned_at = 8'000;

  b.fuzz_name = "phy80211-plcp";
  b.fuzz_corpus_dir = "phy80211_plcp";
  b.fuzz_run = WifiFuzzRun;
  b.fuzz_seed_input = WifiSeedInput;
  return b;
}

[[maybe_unused]] const bool kRegistered =
    RegisterProtocolBundle(MakeWifiBundle());

}  // namespace
}  // namespace rfdump::core
