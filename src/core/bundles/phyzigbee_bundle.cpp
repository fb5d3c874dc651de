// ZigBee (802.15.4) protocol bundle (DESIGN.md §15): IFS timing detector,
// the correlation frame decoder analysis unit, the canned sensor-report
// scenario op and the O-QPSK fuzz target.
//
// rfdump-bundle-cli: zigbee   (scanned by tests/CMakeLists.txt to derive the
// per-protocol ctest labels — keep in sync with cli_name below)

#include <algorithm>
#include <optional>

#include "rfdump/core/fuzz_io.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/timing_detectors.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/phyzigbee/phy.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::core {
namespace {

std::vector<std::uint8_t> ZigbeeSeedInput(std::size_t i,
                                          util::Xoshiro256& rng) {
  switch (i % 3) {
    case 0: {  // modulated frame samples
      std::vector<std::uint8_t> psdu(3 + rng.UniformInt(0, 29));
      for (auto& b : psdu) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto x = phyzigbee::ModulateFrame(psdu);
      std::vector<std::uint8_t> data{0};
      FuzzAppendSamples(data, x, kMaxFuzzSamples);
      return data;
    }
    case 1: {  // truncated/mutated frame samples
      std::vector<std::uint8_t> psdu(4);
      for (auto& b : psdu) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      const auto x = phyzigbee::ModulateFrame(psdu);
      std::vector<std::uint8_t> data{0};
      FuzzAppendSamples(data, x, 400 + rng.UniformInt(0, 2000));
      FuzzMutateInput(data, rng);
      return data;
    }
    default: {  // random sample bytes
      std::vector<std::uint8_t> data{0};
      const std::size_t n = 2 * (64 + rng.UniformInt(0, 1024));
      for (std::size_t k = 0; k < n; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 255)));
      }
      return data;
    }
  }
}

int ZigbeeFuzzRun(std::span<const std::uint8_t> data,
                  util::WorkBudget* budget) {
  if (data.empty()) return 0;
  const auto payload = data.subspan(1);  // first byte reserved (mode unused)
  int decodes = 0;
  const auto x = FuzzBytesToSamples(payload);
  if (const auto frame = phyzigbee::DecodeFrame(x, budget)) {
    ++decodes;
    (void)phyzigbee::FrameAirtimeUs(frame->psdu.size());
  }
  // Also exercise the chip expansion on raw bytes (cheap, pure).
  if (!payload.empty()) {
    (void)phyzigbee::BytesToChips(
        payload.first(std::min<std::size_t>(payload.size(), 64)));
  }
  return decodes;
}

ProtocolBundle MakeZigbeeBundle() {
  ProtocolBundle b;
  b.protocol = Protocol::kZigbee;
  b.name = "ZigBee";
  b.cli_name = "zigbee";
  b.features = {
      {Protocol::kZigbee, "802.15.4 (ZigBee)", 320.0, 192.0,
       Modulation::kOqpsk, "DSSS-32", 5.0, 62.5e3},
  };
  // Opt-in (EnableBundle(Protocol::kZigbee) / --protocols zigbee), so shed
  // stage 1 drops it.
  b.default_enabled = false;
  b.naive_member = false;
  b.oracle_scored = true;
  // After microwave: the historical Detect() ran the microwave timing
  // detector before the ZigBee one.
  b.detect_rank = 3;

  b.make_detectors = [] {
    ProtocolDetectors d;
    auto timing = std::make_shared<ZigbeeTimingDetector>();
    d.on_peaks = [timing](std::span<const Peak> fresh) {
      return timing->OnPeaks(fresh);
    };
    return d;
  };

  b.analysis_plan = [](const AnalysisConfig&) {
    return AnalysisPlan{.units = 1};
  };
  b.run_unit = [](const AnalysisUnitContext& ctx, int) -> AnalysisCommit {
    static obs::Counter& c_attempts = obs::Registry::Default().GetCounter(
        "rfdump_phyzigbee_decode_attempts_total");
    static obs::Counter& c_frames = obs::Registry::Default().GetCounter(
        "rfdump_phyzigbee_frames_total");
    c_attempts.Inc();
    std::optional<phyzigbee::DecodedZbFrame> frame =
        phyzigbee::DecodeFrame(ctx.span, ctx.budget);
    if (!frame) return {};
    c_frames.Inc();
    std::vector<ProtocolEvent> events(1);
    ProtocolEvent& e = events.front();
    e.protocol = Protocol::kZigbee;
    e.start_sample = frame->start_sample + ctx.start_sample;
    e.end_sample = frame->end_sample + ctx.start_sample;
    e.crc_ok = frame->crc_ok;
    e.payload = std::move(frame->psdu);
    return {std::move(events)};
  };

  b.canned_traffic = [](emu::Ether& ether, std::int64_t start, double off) {
    traffic::ZigbeeConfig cfg;
    cfg.count = 6;
    cfg.snr_db = 20.0 + off;
    cfg.interval_us = 0.0;  // LIFS-spaced so the timing detector fires
    return traffic::GenerateZigbee(ether, cfg, start).end_sample;
  };

  b.fuzz_name = "phyzigbee";
  b.fuzz_corpus_dir = "phyzigbee";
  b.fuzz_run = ZigbeeFuzzRun;
  b.fuzz_seed_input = ZigbeeSeedInput;
  return b;
}

[[maybe_unused]] const bool kRegistered =
    RegisterProtocolBundle(MakeZigbeeBundle());

}  // namespace
}  // namespace rfdump::core
