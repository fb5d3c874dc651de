// BLE advertising protocol bundle (DESIGN.md §15) — the registry's proof
// case: registering this one translation unit gives BLE scenario generation,
// oracle precision/recall scoring, differential-sweep membership and a fuzz
// corpus with zero edits to those layers.
//
// Detection reuses the GFSK phase detector (BLE 1M advertising is plain GFSK
// at 1 Msym/s, indistinguishable from Bluetooth BR at the phase-statistics
// level); the analysis stage disambiguates by access-address correlation.
//
// rfdump-bundle-cli: ble   (scanned by tests/CMakeLists.txt to derive the
// per-protocol ctest labels — keep in sync with cli_name below)

#include <algorithm>

#include "rfdump/core/fuzz_io.hpp"
#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/phyble/adv.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::core {
namespace {

std::vector<std::uint8_t> BleSeedInput(std::size_t i, util::Xoshiro256& rng) {
  const int channel = phyble::kAdvChannels[i % 3];
  switch (i % 4) {
    case 0: {  // valid whitened PDU bits, straight parse mode
      std::vector<std::uint8_t> payload(rng.UniformInt(0, 37));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto bits = phyble::BuildAdvBits(
          channel, phyble::AdvPduType::kAdvNonconnInd, payload);
      // Bit-parse mode sees the post-access-address section; the upper mode
      // nibble selects the dewhitening channel.
      return FuzzInput({static_cast<std::uint8_t>(((i % 3) << 4) | 0)},
                       std::span<const std::uint8_t>(bits).subspan(
                           phyble::kPreambleBits + phyble::kAccessBits));
    }
    case 1: {  // mutated PDU bits
      std::vector<std::uint8_t> payload(1 + rng.UniformInt(0, 20));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto bits = phyble::BuildAdvBits(
          channel, phyble::AdvPduType::kAdvInd, payload);
      auto data = FuzzInput({static_cast<std::uint8_t>(((i % 3) << 4) | 0)},
                            std::span<const std::uint8_t>(bits).subspan(
                                phyble::kPreambleBits + phyble::kAccessBits));
      FuzzMutateInput(data, rng);
      return data;
    }
    case 2: {  // modulated burst samples, full demodulator mode
      std::vector<std::uint8_t> payload(1 + rng.UniformInt(0, 30));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto burst = phyble::ModulateAdv(
          channel, phyble::AdvPduType::kAdvNonconnInd, payload);
      std::vector<std::uint8_t> data{1};
      FuzzAppendSamples(data, burst.samples, 4000);
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

int BleFuzzRun(std::span<const std::uint8_t> data, util::WorkBudget* budget) {
  if (data.empty()) return 0;
  const std::uint8_t mode = data[0];
  const auto payload = data.subspan(1);
  int decodes = 0;
  if (mode % 2 == 0) {
    const int channel = phyble::kAdvChannels[(mode >> 4) % 3];
    const auto bits = FuzzBytesToBits(payload);
    if (const auto pdu = phyble::ParseAdvBits(bits, channel)) {
      ++decodes;
      (void)phyble::AdvAirBits(pdu->payload.size());
      (void)phyble::AdvPduTypeName(pdu->type);
    }
    // Size-guard call on a deliberately short prefix.
    (void)phyble::ParseAdvBits(
        std::span<const std::uint8_t>(bits).first(
            std::min<std::size_t>(bits.size(), 16)),
        channel);
  } else {
    phyble::AdvDemodulator::Config cfg;
    cfg.budget = budget;
    phyble::AdvDemodulator demod(cfg);
    decodes +=
        static_cast<int>(demod.DecodeAll(FuzzBytesToSamples(payload)).size());
  }
  return decodes;
}

ProtocolBundle MakeBleBundle() {
  ProtocolBundle b;
  b.protocol = Protocol::kBleAdv;
  b.name = "BLE-adv";
  b.cli_name = "ble";
  b.features = {
      // T_IFS (150 us) stands in for SIFS; advertising uses no slotted MAC.
      {Protocol::kBleAdv, "BLE advertising (1 Mbps)", 0.0, 150.0,
       Modulation::kGfsk, "-", 2.0, 1e6},
  };
  // Opt-in: BLE predates nothing — it is the registry-era protocol, enabled
  // per pipeline via EnableBundle(Protocol::kBleAdv) / --protocols ble.
  b.default_enabled = false;
  b.naive_member = true;
  b.oracle_scored = true;
  b.detect_rank = 4;

  b.make_detectors = [] {
    ProtocolDetectors d;
    d.on_peak = [](const Peak& p, dsp::const_sample_span span)
        -> std::optional<Detection> {
      auto tag = GfskPhaseDetector().OnPeak(p, span);
      if (!tag) return std::nullopt;
      tag->protocol = Protocol::kBleAdv;
      tag->detector = "ble-gfsk";
      return tag;
    };
    return d;
  };

  b.analysis_plan = [](const AnalysisConfig&) {
    // One unit per advertising channel.
    return AnalysisPlan{.units = 3, .check_budget = true};
  };
  b.run_unit = [](const AnalysisUnitContext& ctx, int unit) -> AnalysisCommit {
    phyble::AdvDemodulator::Config cfg;
    cfg.channel = phyble::kAdvChannels[unit % 3];
    cfg.noise_floor_power = ctx.noise_floor_power;
    cfg.budget = ctx.budget;
    phyble::AdvDemodulator demod(cfg);
    auto advs = demod.DecodeAll(ctx.span);
    std::vector<ProtocolEvent> events;
    events.reserve(advs.size());
    for (auto& a : advs) {
      ProtocolEvent e;
      e.protocol = Protocol::kBleAdv;
      e.start_sample = a.start_sample + ctx.start_sample;
      e.end_sample = a.end_sample + ctx.start_sample;
      e.channel = a.channel;
      e.crc_ok = a.pdu.crc_ok;
      e.payload = std::move(a.pdu.payload);
      events.push_back(std::move(e));
    }
    return {std::move(events)};
  };

  b.canned_traffic = [](emu::Ether& ether, std::int64_t start, double off) {
    traffic::BleAdvConfig cfg;
    cfg.count = 3;
    cfg.snr_db = 25.0 + off;
    return traffic::GenerateBleAdv(ether, cfg, start).end_sample;
  };

  b.fuzz_name = "phyble-adv";
  b.fuzz_corpus_dir = "phyble_adv";
  b.fuzz_run = BleFuzzRun;
  b.fuzz_seed_input = BleSeedInput;
  return b;
}

[[maybe_unused]] const bool kRegistered =
    RegisterProtocolBundle(MakeBleBundle());

}  // namespace
}  // namespace rfdump::core
