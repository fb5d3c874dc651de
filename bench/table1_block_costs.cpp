// Table 1: CPU time / real time of individual GNU-Radio-style blocks.
//
// Paper (2.13 GHz Core 2 Duo):     802.11 demod 0.6x, Bluetooth demod 0.7x,
//                                  peak/energy detection 0.05x.
// We reproduce the *ordering and ratios*: both demodulators are ~10x or more
// the cost of peak/energy detection.

#include <functional>

#include "bench_common.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/obs/stopwatch.hpp"
#include "rfdump/phy80211/demodulator.hpp"
#include "rfdump/phybt/demodulator.hpp"

namespace {

namespace dsp = rfdump::dsp;

double Time(const std::function<void()>& fn) {
  const rfdump::obs::Stopwatch watch;
  fn();
  return watch.Seconds();
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table 1 - CPU time / real time of individual blocks");

  // Representative capture: unicast pings at ~30% utilization.
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wcfg;
  wcfg.count = bench::Scaled(60);
  wcfg.interval_us = 14000.0;
  wcfg.snr_db = 25.0;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wcfg, 8000);
  rfdump::traffic::L2PingConfig bcfg;
  bcfg.count = bench::Scaled(40);
  bcfg.snr_db = 25.0;
  rfdump::traffic::GenerateL2Ping(ether, bcfg, 12000);
  const auto x = ether.Render(ws.end_sample + 8000);
  const double real_seconds =
      static_cast<double>(x.size()) / dsp::kSampleRateHz;
  const double util =
      rfdump::emu::MediumUtilization(ether.truth(),
                                     static_cast<std::int64_t>(x.size()));
  std::printf("capture: %.3f s of ether at %.0f Msps, utilization %.0f%%\n\n",
              real_seconds, dsp::kSampleRateHz / 1e6, util * 100.0);

  // 802.11 demodulation over the full stream.
  std::size_t wifi_decoded = 0;
  const double t_wifi = Time([&] {
    rfdump::phy80211::Demodulator demod;
    wifi_decoded = demod.DecodeAll(x).size();
  });

  // Bluetooth demodulation (all 8 visible channels) over the full stream.
  std::size_t bt_pkts = 0;
  const double t_bt = Time([&] {
    rfdump::phybt::Demodulator demod;
    bt_pkts = demod.DecodeAll(x).size();
  });

  // Peak / energy detection.
  std::size_t peaks = 0;
  const double t_peak =
      Time([&] { peaks = rfdump::core::DetectPeaks(x).size(); });

  std::printf("%-34s %14s %10s\n", "GNU Radio Block", "CPU/Real time",
              "output");
  std::printf("%-34s %14.3f %7zu frames\n", "802.11 demodulation (1 Mbps)",
              t_wifi / real_seconds, wifi_decoded);
  std::printf("%-34s %14.3f %7zu pkts\n", "Bluetooth demodulation (8 ch)",
              t_bt / real_seconds, bt_pkts);
  std::printf("%-34s %14.3f %7zu peaks\n", "Peak/Energy detection",
              t_peak / real_seconds, peaks);
  std::printf("\npaper: 0.6 / 0.7 / 0.05  (2.13 GHz Core 2 Duo, 1 core)\n");
  std::printf("demod-to-peak cost ratios: 802.11 %.0fx, Bluetooth %.0fx\n",
              t_wifi / t_peak, t_bt / t_peak);
  return 0;
}
