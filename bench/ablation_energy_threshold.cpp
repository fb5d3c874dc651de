// Ablation: energy-gate threshold (paper §4.3 uses noise floor + 4 dB).
// Lower gates forward more noise to the demodulators (wasted work, false
// peaks); higher gates start missing low-SNR packets. This sweep shows the
// miss rate / forwarded-samples trade-off at a mid-knee SNR.

#include "bench_common.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/core/timing_detectors.hpp"

namespace {
namespace core = rfdump::core;
}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation - energy gate threshold (paper default: +4 dB)");

  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = bench::Scaled(60);
  cfg.interval_us = 15000.0;
  cfg.snr_db = 7.0;  // mid-knee: gate choice decides hits vs misses
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);
  const auto total = static_cast<std::int64_t>(x.size());

  std::printf("%10s %8s %16s %16s\n", "gate (dB)", "peaks", "SIFS miss",
              "FP sample rate");
  for (double gate : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
    core::PeakDetector::Config pcfg;
    pcfg.gate_db = gate;
    const auto peaks = core::DetectPeaks(x, pcfg);
    core::WifiTimingDetector timing;
    const auto detections = timing.OnPeaks(peaks);
    const auto score = core::ScoreDetections(
        ether.truth(), core::Protocol::kWifi80211b, detections, total,
        "80211-sifs-timing");
    std::printf("%9.1f%s %8zu %16s %16s\n", gate, gate == 4.0 ? "*" : " ",
                peaks.size(),
                bench::FmtRate(score.MissRate()).c_str(),
                bench::FmtRate(score.FalsePositiveRate(total)).c_str());
  }
  std::printf("\nlow gates produce noise peaks (splitting real timing gaps\n"
              "and forwarding junk); high gates miss the packets outright.\n");
  return 0;
}
