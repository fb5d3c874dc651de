// Ablation: peak-detector averaging window (paper §4.3). The paper picked
// 20 samples (2.5 us): long enough that noise does not split one packet into
// several peaks, short enough to resolve the 10 us SIFS gap between a data
// frame and its ACK. This sweep measures both failure modes.

#include "bench_common.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/core/timing_detectors.hpp"

namespace {
namespace core = rfdump::core;
}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation - peak averaging window (paper default: 20 = 2.5 us)");

  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = bench::Scaled(60);
  cfg.interval_us = 15000.0;
  cfg.snr_db = 8.0;  // near the knee, where the window choice matters
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);
  const auto total = static_cast<std::int64_t>(x.size());
  const auto truth_packets =
      core::VisibleTruthWithin(ether.truth(), core::Protocol::kWifi80211b,
                               total)
          .size();

  std::printf("true packets: %zu\n\n", truth_packets);
  std::printf("%8s %8s %16s\n", "window", "peaks", "SIFS-timing miss");
  for (std::size_t window : {5u, 10u, 20u, 40u, 80u, 160u}) {
    core::PeakDetector::Config pcfg;
    pcfg.averaging_window = window;
    const auto peaks = core::DetectPeaks(x, pcfg);
    core::WifiTimingDetector timing;
    const auto detections = timing.OnPeaks(peaks);
    const auto score = core::ScoreDetections(
        ether.truth(), core::Protocol::kWifi80211b, detections, total,
        "80211-sifs-timing");
    std::printf("%7zu%s %8zu %16s\n", window, window == 20 ? "*" : " ",
                peaks.size(),
                bench::FmtRate(score.MissRate()).c_str());
  }
  std::printf("\ntiny windows split packets at low SNR (peak count inflates);"
              "\nhuge windows smear the SIFS gap (misses rise).\n");
  return 0;
}
