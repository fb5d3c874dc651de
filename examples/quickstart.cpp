// Quickstart: synthesize a heterogeneous ether (802.11b + Bluetooth +
// microwave oven), run the RFDump monitoring pipeline on it, and print a
// tcpdump-style listing of everything observed — the paper's headline
// use-case in ~100 lines.
//
//   ./example_quickstart            # synthesize + monitor
//   ./example_quickstart trace.iq   # also save the IQ trace for re-analysis

#include <cstdio>
#include <string>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/trace/trace.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

int main(int argc, char** argv) {
  // 1. Build a 0.4 s slice of a busy 2.4 GHz band.
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 12;
  wifi.interval_us = 25000.0;
  wifi.snr_db = 22.0;
  rfdump::traffic::L2PingConfig bt;
  bt.count = 40;
  bt.snr_db = 22.0;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 16000);
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bt, 24000);
  const auto x = ether.Render(std::max(ws.end_sample, bs.end_sample) + 16000);
  std::printf("ether: %.3f s at %.0f Msps, %zu transmissions (%.0f%% busy)\n",
              static_cast<double>(x.size()) / dsp::kSampleRateHz,
              dsp::kSampleRateHz / 1e6, ether.truth().size(),
              100.0 * rfdump::emu::MediumUtilization(
                          ether.truth(), static_cast<std::int64_t>(x.size())));

  if (argc > 1) {
    rfdump::trace::WriteIqTrace(argv[1], x);
    std::printf("trace written to %s\n", argv[1]);
  }

  // 2. Monitor it with the full RFDump pipeline (detectors + demodulators).
  core::RFDumpPipeline pipeline;
  const auto report = pipeline.Process(x);

  // 3. Print what the ether contained, tcpdump-style.
  std::printf("\n%-12s %-10s %s\n", "time", "proto", "info");
  std::printf("------------------------------------------------------------\n");
  for (const auto& e : report.events) {
    // Each protocol bundle renders its own decodes (rate, MAC addresses,
    // LAP, packet type, ...).
    const auto* bundle = core::ProtocolRegistry::Instance().Find(e.protocol);
    if (bundle == nullptr || !bundle->describe) continue;
    const double t = static_cast<double>(e.start_sample) / dsp::kSampleRateHz;
    std::printf("%12.6f %s\n", t, bundle->describe(e).c_str());
  }

  // 4. Where did the time go?
  std::printf("\nper-stage wall time (stage time / real time = %.2f):\n",
              report.CpuOverRealTime());
  report.costs.ForEach([](core::Stage s, const core::StageSlot& c) {
    if (!c.charged()) return;
    std::printf("  %-24s %8.4f s\n", core::StageName(s), c.seconds());
  });
  return 0;
}
