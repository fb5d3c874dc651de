// Bluetooth / Wi-Fi coexistence accounting: run both protocols through one
// monitored band and report, per protocol, how much airtime each consumed and
// how often they collided — the cross-technology visibility a single-NIC
// monitor cannot provide.

#include <algorithm>
#include <cstdio>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

int main() {
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 16;
  wifi.interval_us = 30000.0;
  wifi.snr_db = 24.0;
  rfdump::traffic::L2PingConfig bt;
  bt.count = 70;
  bt.snr_db = 24.0;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 16000);
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bt, 20000);
  const auto x = ether.Render(std::max(ws.end_sample, bs.end_sample) + 16000);
  const auto total = static_cast<std::int64_t>(x.size());
  const double secs = static_cast<double>(total) / dsp::kSampleRateHz;

  core::RFDumpPipeline pipeline;
  const auto report = pipeline.Process(x);

  // Airtime per protocol from the detector view.
  std::int64_t wifi_air = 0, bt_air = 0;
  for (const auto& d : report.dispatched) {
    if (d.protocol == core::Protocol::kWifi80211b) {
      wifi_air += d.end_sample - d.start_sample;
    } else if (d.protocol == core::Protocol::kBluetooth) {
      bt_air += d.end_sample - d.start_sample;
    }
  }
  const auto packets = [&](core::Protocol p) {
    return static_cast<std::size_t>(std::count_if(
        report.events.begin(), report.events.end(),
        [p](const core::ProtocolEvent& e) { return e.protocol == p; }));
  };
  std::printf("monitored %.3f s of the 2.4 GHz band\n\n", secs);
  std::printf("%-12s %10s %10s %12s\n", "protocol", "packets", "airtime",
              "share");
  std::printf("%-12s %10zu %9.1fms %11.1f%%\n", "802.11b",
              packets(core::Protocol::kWifi80211b),
              static_cast<double>(wifi_air) / dsp::kSampleRateHz * 1e3,
              100.0 * static_cast<double>(wifi_air) /
                  static_cast<double>(total));
  std::printf("%-12s %10zu %9.1fms %11.1f%%\n", "bluetooth",
              packets(core::Protocol::kBluetooth),
              static_cast<double>(bt_air) / dsp::kSampleRateHz * 1e3,
              100.0 * static_cast<double>(bt_air) /
                  static_cast<double>(total));

  // Collision accounting from ground truth (the emulator knows).
  std::size_t collisions = 0;
  for (const auto& a : ether.truth()) {
    if (!a.visible || a.protocol != core::Protocol::kBluetooth) continue;
    for (const auto& b : ether.truth()) {
      if (!b.visible || b.protocol != core::Protocol::kWifi80211b) continue;
      if (a.start_sample < b.end_sample && b.start_sample < a.end_sample) {
        ++collisions;
        break;
      }
    }
  }
  std::printf("\ncross-technology collisions (BT packets hit by Wi-Fi): %zu\n",
              collisions);

  // Note the visibility limit the paper discusses: 8 of 79 hop channels.
  std::size_t bt_total = 0, bt_visible = 0;
  for (const auto& t : ether.truth()) {
    if (t.protocol != core::Protocol::kBluetooth) continue;
    ++bt_total;
    if (t.visible) ++bt_visible;
  }
  std::printf("Bluetooth hops visible in the 8 MHz capture: %zu/%zu "
              "(expect ~8/79 = %.0f%%)\n",
              bt_visible, bt_total, 100.0 * 8.0 / 79.0);
  return 0;
}
