// Ablation: sampling in the fast detectors (paper §3.1 proposes it, the
// prototype never implemented it: "Our current prototype implements energy
// detection but does not use sampling"). Our DBPSK prefix scan supports a
// window stride: examine only every k-th window of a burst. This sweep
// measures the detection-cost saving against the boundary-resolution loss
// (extra samples forwarded per CCK packet whose DBPSK prefix ends between
// probed windows).

#include "bench_common.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/obs/stopwatch.hpp"

namespace {
namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation - detector sampling (DBPSK prefix-scan window stride)");

  // Campus-style trace: long 1 Mbps frames (whole-burst scans, where the
  // stride saves the most) plus CCK frames (where it costs resolution).
  rfdump::emu::Ether ether;
  rfdump::traffic::CampusConfig cfg;
  cfg.duration_sec = 0.3 + bench::Scale() * 0.4;
  cfg.include_bluetooth = false;
  rfdump::traffic::GenerateCampus(ether, cfg, 4000);
  const auto x = ether.Render(
      static_cast<std::int64_t>((cfg.duration_sec + 0.01) *
                                dsp::kSampleRateHz));
  const auto total = static_cast<std::int64_t>(x.size());

  // Shared peak detection.
  const auto peaks = core::DetectPeaks(x);

  std::printf("%8s %12s %12s %16s %14s\n", "stride", "scan time", "tags",
              "fwd samples", "miss rate");
  for (std::size_t stride : {1u, 2u, 4u, 8u, 16u}) {
    core::DbpskPhaseDetector::Config dcfg;
    dcfg.scan_stride_windows = stride;
    core::DbpskPhaseDetector phase(dcfg);
    std::vector<core::Detection> detections;
    const rfdump::obs::Stopwatch watch;
    for (const auto& p : peaks) {
      const auto s = static_cast<std::size_t>(std::max<std::int64_t>(
          p.start_sample, 0));
      const auto e = static_cast<std::size_t>(std::min<std::int64_t>(
          p.end_sample, total));
      if (e <= s) continue;
      if (auto d = phase.OnPeak(p, dsp::const_sample_span(x).subspan(s, e - s))) {
        detections.push_back(*d);
      }
    }
    const double secs = watch.Seconds();
    const auto merged = core::MergeDetections(detections, 0, total);
    const auto score = core::ScoreDetections(
        ether.truth(), core::Protocol::kWifi80211b, detections, total,
        "dbpsk-phase", /*min_overlap=*/0.1);
    std::printf("%7zu%s %11.4fs %12zu %16lld %14s\n", stride,
                stride == 1 ? "*" : " ", secs, detections.size(),
                static_cast<long long>(core::CoverageSamples(merged)),
                bench::FmtRate(score.MissRate()).c_str());
  }
  std::printf("\nlarger strides cut scan cost with little accuracy loss; the\n"
              "price is coarser CCK prefix boundaries (more samples\n"
              "forwarded). The paper proposed exactly this trade (3.1).\n");
  return 0;
}
