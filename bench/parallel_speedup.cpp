// Parallel analysis speedup (DESIGN.md §10): the demodulator bank fanned
// out over a work-stealing executor must (a) produce a MonitorReport whose
// result-bearing fields are bit-identical to the serial run — parallelism is
// only allowed to move wall time — and (b) cut the analysis-stage wall time
// by >= 2x at 4 workers on hardware that actually has them.
//
// Strategy: build the Table-3 traffic mix (Wi-Fi pings + a Bluetooth ACL
// session, the workload with the richest dispatched-interval population),
// run Detect() once, then time AnalyzeDetections() over the same detection
// output at widths 1 and 4. Result equality is a hard gate everywhere; the
// speedup gate only applies when std::thread::hardware_concurrency() >= 4 —
// on smaller hosts (CI containers) the bench reports the ratio and SKIPs
// that gate, because a 1-core box cannot demonstrate parallel speedup.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rfdump/core/executor.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/testing/differential.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

/// Result-bearing fields only: the stage table's wall_ns is timing and
/// legitimately differs across widths.
bool SameResults(const core::MonitorReport& a, const core::MonitorReport& b,
                 std::string& why) {
  if (a.samples_total != b.samples_total) { why = "samples_total"; return false; }
  if (a.detections.size() != b.detections.size()) { why = "detections"; return false; }
  if (a.dispatched.size() != b.dispatched.size()) { why = "dispatched"; return false; }
  if (rfdump::testing::ExactFingerprint(a) !=
      rfdump::testing::ExactFingerprint(b)) {
    why = "events";
    return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader("Parallel analysis speedup (Table-3 traffic mix)");

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

  core::RFDumpPipeline::Config cfg;
  core::RFDumpPipeline pipeline(cfg);

  // Detection runs once; both widths analyze the *same* detection output.
  const auto det = pipeline.Detect(x);
  std::printf("capture: %.3f s of ether, %zu dispatched intervals\n\n",
              real_seconds, det.report.dispatched.size());

  constexpr int kReps = 3;  // best-of: squeezes out scheduler noise
  const auto time_width = [&](int width, core::MonitorReport& out) {
    core::Executor executor(width);
    double best = 1e300;
    for (int r = 0; r < kReps; ++r) {
      auto copy = det;  // AnalyzeDetections consumes its input
      rfdump::obs::Stopwatch w;
      auto report = core::AnalyzeDetections(std::move(copy), x, &executor);
      best = std::min(best, w.Seconds());
      out = std::move(report);
    }
    return best;
  };

  core::MonitorReport serial_report, parallel_report;
  const double t1 = time_width(1, serial_report);
  const double t4 = time_width(4, parallel_report);
  const double speedup = t4 > 0.0 ? t1 / t4 : 0.0;

  std::printf("%-32s %8.4f s  (%.3fx real time)\n", "analysis, --threads 1",
              t1, t1 / real_seconds);
  std::printf("%-32s %8.4f s  (%.3fx real time)\n", "analysis, --threads 4",
              t4, t4 / real_seconds);
  std::printf("%-32s %8.2fx\n\n", "speedup", speedup);

  // Hard gate at every width: bit-identical result-bearing report fields.
  std::string why;
  const bool identical = SameResults(serial_report, parallel_report, why);
  std::printf("parallel report identical to serial: %s%s%s\n",
              identical ? "yes" : "NO (", identical ? "" : why.c_str(),
              identical ? "" : ")");
  std::printf("  %zu wifi frames / %zu bt packets / %zu detections\n",
              bench::CountEvents(serial_report, core::Protocol::kWifi80211b),
              bench::CountEvents(serial_report, core::Protocol::kBluetooth),
              serial_report.detections.size());

  // Under ThreadSanitizer the run is a race check, not a timing experiment:
  // instrumentation skews the two widths unevenly, so only the equality
  // gate applies.
  bool tsan = false;
#if defined(__SANITIZE_THREAD__)
  tsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  tsan = true;
#endif
#endif

  const unsigned hw = std::thread::hardware_concurrency();
  bool pass = identical;
  if (tsan) {
    std::printf("\n>=2x speedup gate: SKIP (ThreadSanitizer build — timing "
                "is not meaningful)\n");
  } else if (hw >= 4) {
    const bool fast_enough = speedup >= 2.0;
    std::printf("\n>=2x speedup at 4 workers (%u hardware threads): %s\n",
                hw, fast_enough ? "PASS" : "FAIL");
    pass = pass && fast_enough;
  } else {
    std::printf("\n>=2x speedup gate: SKIP (%u hardware thread%s — cannot "
                "demonstrate parallel speedup on this host)\n",
                hw, hw == 1 ? "" : "s");
  }
  std::printf("result equality: %s\n", identical ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
