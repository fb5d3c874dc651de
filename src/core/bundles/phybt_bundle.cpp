// Bluetooth BR protocol bundle (DESIGN.md §15): slot-timing and GFSK phase
// detectors, the per-visible-channel demodulator fan out, the canned l2ping
// scenario op and the packet fuzz target.
//
// rfdump-bundle-cli: bt   (scanned by tests/CMakeLists.txt to derive the
// per-protocol ctest labels — keep in sync with cli_name below)

#include <cstdio>

#include "rfdump/core/fuzz_io.hpp"
#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/timing_detectors.hpp"
#include "rfdump/phybt/demodulator.hpp"
#include "rfdump/phybt/hopping.hpp"
#include "rfdump/phybt/modulator.hpp"
#include "rfdump/phybt/packet.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::core {
namespace {

std::vector<std::uint8_t> BtSeedInput(std::size_t i, util::Xoshiro256& rng) {
  switch (i % 5) {
    case 0: {  // valid packet bits, straight parse mode
      phybt::DeviceAddress addr{0x9E8B33, 0x47};
      phybt::PacketHeader h;
      h.type = (i % 2 == 0) ? phybt::PacketType::kDh1
                            : phybt::PacketType::kDh3;
      std::vector<std::uint8_t> payload(1 + rng.UniformInt(0, 17));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto bits = phybt::BuildPacketBits(
          addr, h, payload, static_cast<std::uint8_t>(rng.UniformInt(0, 63)));
      // Mode 1: ParsePacketBits.
      return FuzzInput({1}, std::span<const std::uint8_t>(bits).subspan(68));
    }
    case 1: {  // mutated packet bits
      phybt::DeviceAddress addr{0x9E8B33, 0x47};
      phybt::PacketHeader h;
      const auto bits = phybt::BuildPacketBits(addr, h, {}, 0);
      auto data =
          FuzzInput({1}, std::span<const std::uint8_t>(bits).subspan(68));
      FuzzMutateInput(data, rng);
      return data;
    }
    case 2: {  // sync word + trailing bits, verify mode
      const std::uint64_t word = phybt::SyncWord(
          static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFF)));
      std::vector<std::uint8_t> data{
          static_cast<std::uint8_t>(rng.UniformInt(0, 255) & ~0x03u)};
      data[0] = static_cast<std::uint8_t>((data[0] / 3) * 3);  // mode 0
      for (int k = 0; k < 8; ++k) {
        data.push_back(static_cast<std::uint8_t>(word >> (8 * k)));
      }
      const std::size_t n = rng.UniformInt(0, 200);
      for (std::size_t k = 0; k < n; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 1)));
      }
      return data;
    }
    case 3: {  // modulated burst samples
      phybt::DeviceAddress addr{0x9E8B33, 0x47};
      phybt::PacketHeader h;
      std::vector<std::uint8_t> payload(1 + rng.UniformInt(0, 9));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      // clk values land on different hop channels; skip off-band ones.
      phybt::BtBurst burst;
      for (int tries = 0; tries < 32 && burst.samples.empty(); ++tries) {
        burst = phybt::ModulatePacket(
            addr, h, payload,
            static_cast<std::uint32_t>(rng.UniformInt(0, 4095)));
      }
      std::vector<std::uint8_t> data{2};  // mode: full demodulator
      FuzzAppendSamples(data, burst.samples, 1600);
      return data;
    }
    default: {  // random sample bytes
      std::vector<std::uint8_t> data{2};
      const std::size_t n = 2 * (64 + rng.UniformInt(0, 1024));
      for (std::size_t k = 0; k < n; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 255)));
      }
      return data;
    }
  }
}

int BtFuzzRun(std::span<const std::uint8_t> data, util::WorkBudget* budget) {
  if (data.empty()) return 0;
  const std::uint8_t mode = data[0];
  const auto payload = data.subspan(1);
  int decodes = 0;
  switch (mode % 3) {
    case 0: {
      if (payload.size() >= 8) {
        std::uint64_t word = 0;
        for (int i = 0; i < 8; ++i) {
          word |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
        }
        const int max_errors = (mode >> 4) % 3;
        if (const auto lap = phybt::VerifySyncWord(word, max_errors)) {
          ++decodes;
          (void)phybt::SyncWord(*lap);
        }
      }
      const std::uint8_t uap = payload.empty() ? 0x47 : payload[0];
      if (phybt::ParsePacketBits(FuzzBytesToBits(payload.size() > 8
                                                     ? payload.subspan(8)
                                                     : payload),
                                 uap)) {
        ++decodes;
      }
      break;
    }
    case 1: {
      if (const auto pkt =
              phybt::ParsePacketBits(FuzzBytesToBits(payload), 0x47)) {
        ++decodes;
        (void)phybt::PacketAirBits(pkt->header.type, pkt->payload.size());
      }
      break;
    }
    default: {
      phybt::Demodulator::Config cfg;
      cfg.budget = budget;
      cfg.max_sync_errors = mode >> 6;  // 0..3
      phybt::Demodulator demod(cfg);
      decodes +=
          static_cast<int>(demod.DecodeAll(FuzzBytesToSamples(payload)).size());
      break;
    }
  }
  return decodes;
}

ProtocolBundle MakeBtBundle() {
  ProtocolBundle b;
  b.protocol = Protocol::kBluetooth;
  b.name = "Bluetooth";
  b.cli_name = "bt";
  b.features = {
      {Protocol::kBluetooth, "Bluetooth (1 Mbps)", 625.0, 625.0,
       Modulation::kGfsk, "FHSS", 1.0, 1e6},
  };
  b.default_enabled = true;
  b.naive_member = true;
  b.oracle_scored = true;
  b.detect_rank = 1;

  b.make_detectors = [] {
    ProtocolDetectors d;
    auto timing = std::make_shared<BluetoothTimingDetector>();
    d.on_peaks = [timing](std::span<const Peak> fresh) {
      return timing->OnPeaks(fresh);
    };
    d.on_peak = [](const Peak& p, dsp::const_sample_span span) {
      return GfskPhaseDetector().OnPeak(p, span);
    };
    return d;
  };

  b.analysis_plan = [](const AnalysisConfig&) {
    // One unit per visible channel; the multi-channel scan stops early once
    // the interval's budget expires.
    return AnalysisPlan{.units = phybt::kVisibleChannels,
                        .check_budget = true};
  };
  b.run_unit = [](const AnalysisUnitContext& ctx, int unit) -> AnalysisCommit {
    phybt::Demodulator::Config cfg;
    cfg.channel_index = unit;
    cfg.expected_uap = ctx.analysis->bt_uap;
    cfg.noise_floor_power = ctx.noise_floor_power;
    cfg.budget = ctx.budget;
    phybt::Demodulator bt(cfg);
    std::vector<ProtocolEvent> events;
    for (auto& p : bt.DecodeAll(ctx.span)) {
      ProtocolEvent e;
      e.protocol = Protocol::kBluetooth;
      e.start_sample = p.start_sample + ctx.start_sample;
      e.end_sample = p.end_sample + ctx.start_sample;
      e.channel = p.channel_index;
      e.crc_ok = p.packet.crc_ok;
      e.payload = std::move(p.packet.payload);
      e.header = (p.lap & 0xFFFFFFu) |
                 (static_cast<std::uint32_t>(p.packet.header.type) << 24);
      events.push_back(std::move(e));
    }
    return {std::move(events)};
  };
  b.describe = [](const ProtocolEvent& e) {
    char buf[160];
    std::snprintf(
        buf, sizeof(buf), "bluetooth  LAP %06x ch %d %s %zu B crc %s",
        e.header & 0xFFFFFFu, e.channel,
        phybt::PacketTypeName(static_cast<phybt::PacketType>(e.header >> 24)),
        e.payload.size(), e.crc_ok ? "ok" : "BAD");
    return std::string(buf);
  };

  b.canned_traffic = [](emu::Ether& ether, std::int64_t start, double off) {
    traffic::L2PingConfig cfg;
    cfg.count = 16;
    cfg.snr_db = 25.0 + off;
    return traffic::GenerateL2Ping(ether, cfg, start).end_sample;
  };

  b.fuzz_name = "phybt-packet";
  b.fuzz_corpus_dir = "phybt_packet";
  b.fuzz_run = BtFuzzRun;
  b.fuzz_seed_input = BtSeedInput;
  return b;
}

[[maybe_unused]] const bool kRegistered =
    RegisterProtocolBundle(MakeBtBundle());

}  // namespace
}  // namespace rfdump::core
