// Ablation: Bluetooth session cache (paper §4.4). The slot-timing detector
// consults a small cache of active sessions before searching the peak-start
// history; the cache turns the common case into O(cache) instead of
// O(history). This bench measures hit rates and detector time with the cache
// disabled and at several sizes.

#include "bench_common.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/core/timing_detectors.hpp"
#include "rfdump/obs/stopwatch.hpp"

namespace {
namespace core = rfdump::core;
}  // namespace

int main() {
  bench::PrintHeader("Ablation - Bluetooth session cache");

  // Two interleaved Bluetooth sessions plus Wi-Fi chatter stressing the
  // history search.
  rfdump::emu::Ether ether;
  rfdump::traffic::L2PingConfig b1;
  b1.count = bench::Scaled(400);
  b1.flow_id = 10;
  rfdump::traffic::L2PingConfig b2;
  b2.count = bench::Scaled(400);
  b2.address = {0x55AA11, 0x21};
  b2.clk_start = 5000;
  b2.flow_id = 11;
  rfdump::traffic::WifiPingConfig w;
  w.count = bench::Scaled(20);
  w.interval_us = 60000.0;
  const auto s1 = rfdump::traffic::GenerateL2Ping(ether, b1, 8000);
  rfdump::traffic::GenerateL2Ping(ether, b2, 8000 + 2500);
  rfdump::traffic::GenerateUnicastPing(ether, w, 16000);
  const auto x = ether.Render(s1.end_sample + 8000);
  const auto total = static_cast<std::int64_t>(x.size());

  // Peak detection once, shared by all configurations.
  const auto peaks = core::DetectPeaks(x);

  std::printf("%12s %10s %12s %14s %12s %10s\n", "cache size", "hits",
              "history srch", "detector time", "miss rate", "tags");
  for (std::size_t cache : {0u, 1u, 2u, 4u, 8u}) {
    core::BluetoothTimingDetector::Config cfg;
    cfg.cache_size = cache;
    core::BluetoothTimingDetector timing(cfg);
    const rfdump::obs::Stopwatch watch;
    std::vector<core::Detection> detections;
    // Feed peaks one at a time to model the streaming pattern.
    for (const auto& p : peaks) {
      auto d = timing.OnPeaks(std::span<const core::Peak>(&p, 1));
      detections.insert(detections.end(), d.begin(), d.end());
    }
    const double secs = watch.Seconds();
    const auto score = core::ScoreDetections(
        ether.truth(), core::Protocol::kBluetooth, detections, total,
        "bt-slot-timing");
    std::printf("%9zu%s %10llu %12llu %13.5fs %12s %10zu\n", cache,
                cache == 4 ? "*" : " ",
                static_cast<unsigned long long>(timing.cache_hits()),
                static_cast<unsigned long long>(timing.history_searches()),
                secs, bench::FmtRate(score.MissRate()).c_str(),
                detections.size());
  }
  std::printf("\nwith the cache, repeat packets of an active session hit in\n"
              "O(cache) and the full history search runs only on new "
              "sessions.\n");
  return 0;
}
