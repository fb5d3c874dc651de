// Fault tolerance and graceful degradation: the robustness counterpart to
// Figure 9. A fixed 802.11 ping workload is replayed through increasingly
// hostile front ends (USB-overrun drops, ADC clipping, NaN bursts) and
// monitored with the fault-tolerant streaming path; then the same workload
// is monitored under shrinking CPU budgets to show the load-shedding
// staircase (full pipeline -> optional detectors off -> confident-tags-only
// demod -> detection-only).
//
// Reads like: gaps are reported exactly, decode rate degrades in proportion
// to the samples actually lost (not catastrophically), and the shedding
// controller trades fidelity for CPU in the paper's priority order.

#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/emu/frontend.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;

struct Workload {
  dsp::SampleVec samples;
  std::size_t truth_frames = 0;
};

Workload MakeWorkload() {
  emu::Ether ether(emu::Ether::Config{}, 12);
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = bench::Scaled(40);
  cfg.interval_us = 12000.0;
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  Workload w;
  w.samples = ether.Render(session.end_sample + 8000);
  w.truth_frames = session.packets;
  return w;
}

struct RunResult {
  std::size_t decoded = 0;
  std::size_t gaps = 0;
  std::int64_t lost = 0;
  std::uint64_t sanitized = 0;
  double load = 0.0;
  int max_stage = 0;
};

RunResult Run(const Workload& w, const emu::FrontEnd::Config& fcfg,
              double budget) {
  emu::FrontEnd fe(w.samples, fcfg, 7);
  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 400'000;
  mcfg.cpu_budget = budget;
  if (fcfg.clip_amplitude > 0.0f) {
    mcfg.pipeline.saturation_amplitude = fcfg.clip_amplitude;
  }
  struct WifiCounter final : core::ResultSink {
    std::size_t frames = 0;
    void OnEvent(const core::ProtocolEvent& e) override {
      if (e.protocol == core::Protocol::kWifi80211b) ++frames;
    }
  } wifi;
  mcfg.sink = &wifi;
  core::StreamingMonitor monitor(mcfg);
  RunResult r;
  while (!fe.Done()) {
    const auto seg = fe.NextSegment();
    if (!seg.samples.empty()) monitor.PushSegment(seg.start_sample, seg.samples);
  }
  monitor.Flush();
  r.decoded = wifi.frames;
  r.gaps = monitor.gaps().size();
  for (const auto& g : monitor.gaps()) r.lost += g.missing;
  for (const auto& h : monitor.health()) {
    r.sanitized += h.sanitized_samples;
    r.max_stage = std::max(r.max_stage, h.shed_stage);
  }
  r.load = monitor.CpuOverRealTime();
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("Fault tolerance & graceful degradation (robustness)");
  const auto w = MakeWorkload();
  std::printf("workload: %zu ground-truth 802.11 frames over %.2f s\n\n",
              w.truth_frames,
              static_cast<double>(w.samples.size()) / dsp::kSampleRateHz);

  std::printf("-- impairment sweep (no CPU budget) --\n");
  std::printf("%-22s %8s %6s %10s %10s %8s\n", "front end", "decoded",
              "gaps", "lost-smpl", "sanitized", "load");
  struct Level {
    const char* name;
    double drops;
    double nans;
    float clip;
  };
  const Level levels[] = {
      {"ideal", 0.0, 0.0, 0.0f},
      {"mild (1 drop/s)", 1.0, 2.0, 0.0f},
      {"moderate (+clip)", 4.0, 10.0, 22.0f},
      {"hostile (8 drop/s)", 8.0, 40.0, 18.0f},
  };
  std::vector<std::string> impairment_rows;
  for (const auto& lvl : levels) {
    emu::FrontEnd::Config fcfg;
    fcfg.drops_per_second = lvl.drops;
    fcfg.nonfinite_per_second = lvl.nans;
    fcfg.clip_amplitude = lvl.clip;
    fcfg.duplicates_per_second = lvl.drops > 0 ? 1.0 : 0.0;
    const auto r = Run(w, fcfg, /*budget=*/0.0);
    std::printf("%-22s %4zu/%-3zu %6zu %10lld %10llu %8.3f\n", lvl.name,
                r.decoded, w.truth_frames, r.gaps,
                static_cast<long long>(r.lost),
                static_cast<unsigned long long>(r.sanitized), r.load);
    impairment_rows.push_back(bench::JsonObj({
        {"front_end", bench::JsonStr(lvl.name)},
        {"decoded", bench::JsonInt(static_cast<long long>(r.decoded))},
        {"gaps", bench::JsonInt(static_cast<long long>(r.gaps))},
        {"lost_samples", bench::JsonInt(r.lost)},
        {"sanitized_samples",
         bench::JsonInt(static_cast<long long>(r.sanitized))},
        {"load", bench::JsonNum(r.load)},
    }));
  }

  std::printf("\n-- load shedding sweep (ideal front end) --\n");
  std::printf("%-22s %8s %10s %8s\n", "budget (cpu/real)", "decoded",
              "max-stage", "load");
  const double budgets[] = {0.0, 1.5, 0.75, 0.30, 0.10, 0.02};
  std::vector<std::string> shedding_rows;
  for (const double b : budgets) {
    const auto r = Run(w, emu::FrontEnd::Config{}, b);
    char name[32];
    if (b == 0.0) {
      std::snprintf(name, sizeof(name), "unlimited");
    } else {
      std::snprintf(name, sizeof(name), "%.2f", b);
    }
    std::printf("%-22s %4zu/%-3zu %10d %8.3f\n", name, r.decoded,
                w.truth_frames, r.max_stage, r.load);
    shedding_rows.push_back(bench::JsonObj({
        {"budget", bench::JsonNum(b)},
        {"decoded", bench::JsonInt(static_cast<long long>(r.decoded))},
        {"max_shed_stage", bench::JsonInt(r.max_stage)},
        {"load", bench::JsonNum(r.load)},
    }));
  }

  bench::WriteBenchJson(
      "fault_tolerance",
      bench::JsonObj({
          {"bench", bench::JsonStr("fault_tolerance")},
          {"scale", bench::JsonNum(bench::Scale())},
          {"truth_frames",
           bench::JsonInt(static_cast<long long>(w.truth_frames))},
          {"impairment_sweep", bench::JsonArr(impairment_rows)},
          {"shedding_sweep", bench::JsonArr(shedding_rows)},
      }));
  return 0;
}
