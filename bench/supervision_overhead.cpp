// Supervision overhead: proves the stage-boundary budget (<1% of block CPU,
// DESIGN.md §9) on the Table-1 workload.
//
// Strategy (same contract as obs_overhead): (a) microbenchmark the two
// primitives the clean path pays for — WorkBudget::Charge at the
// demodulators' check quanta, and one Admit + Finish boundary around no
// work (lock, breaker check, budget arm, outcome accounting) — then (b)
// count how many of each one supervised pipeline pass over the Table-1
// capture really performs (Supervisor::Counts). The product is
// supervision's share of the measured block CPU. A results-equality check
// guards against the cheaper failure mode: a supervisor that is fast
// because it silently changed what gets decoded.

#include <cstdint>
#include <cstdio>

#include "bench_common.hpp"
#include "rfdump/core/supervisor.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/util/work_budget.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace obs = rfdump::obs;
namespace util = rfdump::util;

double NsPerOp(double seconds, std::uint64_t ops) {
  return ops > 0 ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

}  // namespace

int main() {
  bench::PrintHeader("Supervision overhead on the Table-1 workload");

  // --- Primitive costs -----------------------------------------------------
  // Charge() on an armed, non-expiring budget: the per-quantum cost the
  // demodulator loops pay (one relaxed load + fetch_add + two compares).
  util::WorkBudget budget;
  budget.Arm({.max_samples = 0, .max_cpu_seconds = 0.0});
  constexpr std::uint64_t kChargeOps = 20'000'000;
  obs::Stopwatch w;
  std::uint64_t live = 0;
  for (std::uint64_t i = 0; i < kChargeOps; ++i) {
    live += budget.Charge(32) ? 1 : 0;
  }
  const double t_charge = NsPerOp(w.Seconds(), kChargeOps);

  // One full stage boundary around no work, as the analysis stage opens and
  // closes it per interval: breaker check + budget arm (Admit), then
  // outcome/window accounting (Finish) — two short critical sections.
  core::Supervisor sup;
  const dsp::SampleVec dummy(64);
  constexpr std::uint64_t kSuperviseOps = 1'000'000;
  w.Reset();
  for (std::uint64_t i = 0; i < kSuperviseOps; ++i) {
    auto admission = sup.Admit(core::Protocol::kWifi80211b, 0, 64, dummy);
    sup.Finish(*admission, core::Outcome::kOk, {}, dummy);
  }
  const double t_supervise = NsPerOp(w.Seconds(), kSuperviseOps);

  std::printf("%-38s %8.2f ns/op  (%llu live)\n",
              "WorkBudget::Charge (armed, clean)", t_charge,
              static_cast<unsigned long long>(live));
  std::printf("%-38s %8.2f ns/op\n\n", "Admit()+Finish() boundary, no work",
              t_supervise);

  // --- Event volume + pipeline cost on the Table-1 capture -----------------
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

  core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(core::Protocol::kMicrowave);

  // Unsupervised baseline (results reference + cache warmup).
  core::RFDumpPipeline baseline(cfg);
  const auto unsup = baseline.Process(x);

  // Supervised pass, clean path: generous (but armed) deadline so every
  // Charge() does real comparisons, nothing expires.
  core::Supervisor::Config scfg;
  scfg.demod_limits.max_samples = ~0ull >> 1;
  core::Supervisor supervisor(scfg);
  cfg.supervisor = &supervisor;
  core::RFDumpPipeline supervised_pipeline(cfg);
  w.Reset();
  const auto sup_report = supervised_pipeline.Process(x);
  const double pipeline_seconds = w.Seconds();

  const auto counts = supervisor.counts();
  const double supervision_seconds =
      (static_cast<double>(counts.budget_checks) * t_charge +
       static_cast<double>(counts.invocations) * t_supervise) *
      1e-9;
  const double share =
      pipeline_seconds > 0.0 ? supervision_seconds / pipeline_seconds : 0.0;

  std::printf("capture: %.3f s of ether; supervised pipeline CPU %.3f s "
              "(%.3fx real time)\n",
              real_seconds, pipeline_seconds,
              pipeline_seconds / real_seconds);
  std::printf("supervised invocations: %llu; deadline checks: %llu "
              "(%.1f per 1k samples)\n",
              static_cast<unsigned long long>(counts.invocations),
              static_cast<unsigned long long>(counts.budget_checks),
              1000.0 * static_cast<double>(counts.budget_checks) /
                  static_cast<double>(x.size()));
  std::printf("estimated supervision cost: %.6f s = %.4f%% of block CPU\n",
              supervision_seconds, share * 100.0);

  // Clean-path equivalence: supervision must not change what gets decoded.
  const bool same_results =
      sup_report.events.size() == unsup.events.size() &&
      counts.ok == counts.invocations;
  std::printf("clean-path results identical to unsupervised: %s "
              "(%zu wifi / %zu bt, all outcomes ok)\n",
              same_results ? "yes" : "NO",
              bench::CountEvents(sup_report, core::Protocol::kWifi80211b),
              bench::CountEvents(sup_report, core::Protocol::kBluetooth));

  const bool pass = share < 0.01 && same_results;
  std::printf("\nbudget <1%% of block CPU: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
