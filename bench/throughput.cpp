// Headline throughput: how many times faster than real time the full
// rfdump pipeline chews through 8 Msps ether, at analysis widths 1/4/8.
//
// This is the repo's first headline x-realtime number (ROADMAP: "no
// x-realtime throughput measured"): a Table-3-style traffic mix (the
// richest dispatched-interval population) is rendered once, then the whole
// pipeline — detection cascade + demodulator bank — runs end-to-end per
// width, best-of-3. Results land in BENCH_throughput.json; there is no
// hard gate (absolute numbers are machine-dependent), the bench only
// fails if a width produces a different report than the serial run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rfdump/core/executor.hpp"
#include "rfdump/obs/obs.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

}  // namespace

int main() {
  bench::PrintHeader("Pipeline throughput vs real time (8 Msps equivalent)");

  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wcfg;
  wcfg.count = bench::Scaled(40);
  wcfg.interval_us = 14000.0;
  wcfg.snr_db = 25.0;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wcfg, 8000);
  rfdump::traffic::L2PingConfig bcfg;
  bcfg.count = bench::Scaled(60);
  bcfg.snr_db = 25.0;
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bcfg, 12000);
  const auto x = ether.Render(std::max(ws.end_sample, bs.end_sample) + 8000);
  const double real_seconds =
      static_cast<double>(x.size()) / dsp::kSampleRateHz;
  std::printf("capture: %.3f s of ether (%zu samples @ %.0f Msps)\n\n",
              real_seconds, x.size(), dsp::kSampleRateHz / 1e6);

  const int widths[] = {1, 4, 8};
  constexpr int kReps = 3;  // best-of: squeezes out scheduler noise
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  struct Row {
    int threads = 0;
    double wall_seconds = 0.0;
    double x_realtime = 0.0;
    bool skipped = false;  // width > hardware threads: no scaling signal
  };
  std::vector<Row> rows;
  std::size_t serial_wifi = 0, serial_bt = 0, serial_det = 0;
  bool identical = true;

  for (const int width : widths) {
    // A width the host cannot actually provision would just timeslice one
    // core and report a meaningless "parallel" row; record it as skipped so
    // the JSON carries no fake scaling signal (width 1 always runs).
    if (width > 1 && static_cast<unsigned>(width) > hw) {
      rows.push_back({width, 0.0, 0.0, true});
      std::printf("--threads %-2d  skipped (only %u hardware thread%s)\n",
                  width, hw, hw == 1 ? "" : "s");
      continue;
    }
    core::Executor executor(width);
    core::RFDumpPipeline::Config cfg;
    cfg.EnableBundle(core::Protocol::kMicrowave);
    cfg.executor = &executor;
    core::RFDumpPipeline pipeline(cfg);
    (void)pipeline.Process(x);  // warm caches before timing

    double best = 1e300;
    core::MonitorReport report;
    for (int r = 0; r < kReps; ++r) {
      rfdump::obs::Stopwatch w;
      auto rep = pipeline.Process(x);
      best = std::min(best, w.Seconds());
      report = std::move(rep);
    }
    const double xrt = best > 0.0 ? real_seconds / best : 0.0;
    rows.push_back({width, best, xrt, false});
    const std::size_t wifi =
        bench::CountEvents(report, core::Protocol::kWifi80211b);
    const std::size_t bt =
        bench::CountEvents(report, core::Protocol::kBluetooth);
    std::printf("--threads %-2d  wall %8.4f s  ->  %6.2fx real time "
                "(%zu wifi / %zu bt / %zu detections)\n",
                width, best, xrt, wifi, bt, report.detections.size());
    if (width == 1) {
      serial_wifi = wifi;
      serial_bt = bt;
      serial_det = report.detections.size();
    } else if (wifi != serial_wifi || bt != serial_bt ||
               report.detections.size() != serial_det) {
      identical = false;
    }
  }

  double headline = 0.0;
  for (const auto& r : rows) {
    if (!r.skipped) headline = std::max(headline, r.x_realtime);
  }
  std::printf("\nheadline: %.2fx real time (best provisioned width on %u "
              "hardware threads)\n", headline, hw);
  std::printf("reports identical across widths: %s\n",
              identical ? "PASS" : "FAIL");

  std::vector<std::string> width_objs;
  for (const auto& r : rows) {
    if (r.skipped) {
      width_objs.push_back(bench::JsonObj({
          {"threads", bench::JsonInt(r.threads)},
          {"skipped", "true"},
          {"reason", bench::JsonStr("width exceeds hardware_threads")},
      }));
      continue;
    }
    width_objs.push_back(bench::JsonObj({
        {"threads", bench::JsonInt(r.threads)},
        {"wall_seconds", bench::JsonNum(r.wall_seconds)},
        {"x_realtime", bench::JsonNum(r.x_realtime)},
    }));
  }
  bench::WriteBenchJson(
      "throughput",
      bench::JsonObj({
          {"bench", bench::JsonStr("throughput")},
          {"scale", bench::JsonNum(bench::Scale())},
          {"sample_rate_hz", bench::JsonNum(dsp::kSampleRateHz)},
          {"capture_seconds", bench::JsonNum(real_seconds)},
          {"hardware_threads", bench::JsonInt(hw)},
          {"widths", bench::JsonArr(width_objs)},
          {"headline_x_realtime", bench::JsonNum(headline)},
      }));
  return identical ? 0 : 1;
}
