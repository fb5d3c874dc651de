// Wi-Fi diagnosis — the paper's motivating scenario (§2.1): "when diagnosing
// Wi-Fi problems, a full picture is critical because non-Wi-Fi users can
// reduce network capacity or cause high packet error rates".
//
// A single-NIC tool sees only that Wi-Fi frames are being lost. RFDump sees
// the microwave oven bursts that collide with them. This example runs both
// views over the same ether and prints the diagnosis.

#include <cstdio>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

int main() {
  // A Wi-Fi ping session sharing the band with a microwave oven.
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 20;
  wifi.interval_us = 16000.0;
  wifi.snr_db = 22.0;
  rfdump::traffic::MicrowaveConfig oven;
  oven.snr_db = 26.0;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 16000);
  rfdump::traffic::GenerateMicrowave(ether, oven, 0, ws.end_sample + 16000);
  const auto x = ether.Render(ws.end_sample + 16000);
  const auto total = static_cast<std::int64_t>(x.size());

  // Monitor with microwave detection enabled.
  core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(core::Protocol::kMicrowave);
  core::RFDumpPipeline pipeline(cfg);
  const auto report = pipeline.Process(x);

  // The single-protocol view: how many Wi-Fi frames decoded cleanly?
  const auto wifi_truth = core::VisibleTruthWithin(
      ether.truth(), core::Protocol::kWifi80211b, total);
  std::size_t ok = 0;
  for (const auto& e : report.events) {
    if (e.protocol == core::Protocol::kWifi80211b && e.crc_ok) ++ok;
  }
  std::printf("802.11-only view: %zu/%zu frames decoded cleanly -> "
              "\"the network is lossy, cause unknown\"\n",
              ok, wifi_truth.size());

  // The RFDump view: who else is in the ether?
  std::size_t mw_bursts = 0;
  std::int64_t mw_samples = 0;
  for (const auto& d : report.detections) {
    if (d.protocol == core::Protocol::kMicrowave) {
      ++mw_bursts;
      mw_samples += d.end_sample - d.start_sample;
    }
  }
  std::printf("RFDump view: %zu microwave-oven bursts occupying %.0f%% of "
              "the band's airtime\n",
              mw_bursts,
              100.0 * static_cast<double>(mw_samples) /
                  static_cast<double>(total));

  // Correlate: which lost frames overlapped an oven burst?
  std::size_t lost = 0, lost_during_mw = 0;
  for (const auto& t : wifi_truth) {
    bool decoded = false;
    for (const auto& e : report.events) {
      if (e.protocol == core::Protocol::kWifi80211b && e.crc_ok &&
          std::llabs(e.start_sample - t.start_sample) < 400) {
        decoded = true;
        break;
      }
    }
    if (decoded) continue;
    ++lost;
    for (const auto& mw : ether.truth()) {
      if (mw.protocol != core::Protocol::kMicrowave || !mw.visible) continue;
      if (t.start_sample < mw.end_sample && mw.start_sample < t.end_sample) {
        ++lost_during_mw;
        break;
      }
    }
  }
  std::printf("diagnosis: %zu lost frames, %zu of them during oven bursts "
              "(%.0f%%)\n",
              lost, lost_during_mw,
              lost ? 100.0 * static_cast<double>(lost_during_mw) /
                         static_cast<double>(lost)
                   : 0.0);
  std::printf("=> the interference source is the microwave oven, not the "
              "Wi-Fi link.\n");
  return 0;
}
