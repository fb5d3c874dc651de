// Protocol-extensibility demonstration (the paper's scaling claim, §2.2):
// adding a protocol to RFDump costs one cheap metadata detector, because the
// expensive protocol-agnostic work (peak detection) is shared. This example
// monitors the same 4-protocol ether with 1, 2, 3 and 4 protocol detectors
// enabled and prints the marginal detection-stage cost of each addition.

#include <algorithm>
#include <cstdio>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

int main() {
  // An ether with all four technologies active.
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 10;
  wifi.interval_us = 30000.0;
  rfdump::traffic::L2PingConfig bt;
  bt.count = 50;
  rfdump::traffic::ZigbeeConfig zb;
  zb.count = 30;
  rfdump::traffic::MicrowaveConfig mw;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 16000);
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bt, 20000);
  const auto zs = rfdump::traffic::GenerateZigbee(ether, zb, 24000);
  const auto end =
      std::max({ws.end_sample, bs.end_sample, zs.end_sample}) + 16000;
  rfdump::traffic::GenerateMicrowave(ether, mw, 0, end);
  const auto x = ether.Render(end);
  std::printf("ether: %.3f s with 802.11b + Bluetooth + ZigBee + microwave\n\n",
              static_cast<double>(x.size()) / dsp::kSampleRateHz);

  struct Step {
    const char* name;
    bool timing, phase, microwave, zigbee;
  };
  const Step steps[] = {
      {"1: 802.11 timing only", true, false, false, false},
      {"2: + phase (802.11 + BT)", true, true, false, false},
      {"3: + microwave timing", true, true, true, false},
      {"4: + ZigBee timing", true, true, true, true},
  };

  std::printf("%-28s %12s %12s %10s\n", "detectors enabled", "detect s",
              "peak s", "tags");
  double prev_detect = 0.0;
  for (const Step& s : steps) {
    core::RFDumpPipeline::Config cfg;
    cfg.timing_detectors = s.timing;
    cfg.phase_detectors = s.phase;
    if (s.microwave) cfg.EnableBundle(core::Protocol::kMicrowave);
    if (s.zigbee) cfg.EnableBundle(core::Protocol::kZigbee);
    cfg.analysis.demodulate = false;
    core::RFDumpPipeline pipeline(cfg);
    const auto report = pipeline.Process(x);
    // Detection only (demodulate = false): every charged slot is a detect
    // stage.
    const double detect = report.costs.Seconds();
    const double peak = report.costs[core::Stage::kPeak].seconds();
    std::printf("%-28s %12.4f %12.4f %10zu", s.name, detect, peak,
                report.detections.size());
    if (prev_detect > 0.0) {
      std::printf("   (%+.0f%% vs previous)",
                  100.0 * (detect - prev_detect) / prev_detect);
    }
    std::printf("\n");
    prev_detect = detect;
  }
  std::printf("\nThe shared peak-detection cost dominates and is paid once;\n"
              "each additional protocol's metadata detector adds only a\n"
              "small increment — the architecture scales to 5-10 protocols.\n");
  return 0;
}
