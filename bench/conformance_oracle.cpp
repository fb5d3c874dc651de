// Conformance-harness cost model (DESIGN.md §11): what a CI gate actually
// pays per seed. Four rows:
//   render       — ScenarioBuilder -> IQ samples + truth (emulator cost)
//   rfdump       — one RFDumpPipeline pass over the rendered scenario
//   oracle       — ScoreReport matching decodes against truth records
//   differential — the full 4-architecture differential (dominated by the
//                  two naive passes; the paper's efficiency argument shows
//                  up here as the naive/rfdump cost ratio)
// The oracle row must be noise next to the pipeline rows: scoring is
// bookkeeping, not DSP, and a slow oracle would cap how many seeds CI can
// afford to sweep.

#include <cstdint>
#include <cstdio>

#include "bench_common.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/testing/differential.hpp"
#include "rfdump/testing/oracle.hpp"

namespace {

namespace core = rfdump::core;
namespace rft = rfdump::testing;

}  // namespace

int main() {
  bench::PrintHeader("Conformance harness cost per seed (canned mixed mix)");

  const auto seeds_to_run =
      static_cast<std::uint64_t>(bench::Scaled(8));
  double t_render = 0.0, t_pipeline = 0.0, t_oracle = 0.0, t_diff = 0.0;
  std::size_t truth_total = 0, decode_total = 0;
  rfdump::obs::Stopwatch w;

  for (std::uint64_t seed = 1; seed <= seeds_to_run; ++seed) {
    w.Reset();
    const auto scenario = rft::CannedMixedScenario(seed);
    t_render += w.Seconds();

    core::RFDumpPipeline::Config cfg;
    cfg.EnableBundle(core::Protocol::kZigbee);
    w.Reset();
    const auto report = core::RFDumpPipeline(cfg).Process(scenario.samples);
    t_pipeline += w.Seconds();

    w.Reset();
    const auto conf = rft::ScoreReport(scenario, report);
    t_oracle += w.Seconds();
    for (const auto& p : conf.protocols) {
      truth_total += p.truth_packets;
      decode_total += p.decoded;
    }

    w.Reset();
    const auto diff = rft::RunDifferential(scenario);
    t_diff += w.Seconds();
    if (!diff.ok()) {
      std::printf("DIFFERENTIAL MISMATCH (bench workload!):\n%s",
                  diff.Summary().c_str());
      return 1;
    }
  }

  const double n = static_cast<double>(seeds_to_run);
  std::printf("\n%-14s %12s %16s\n", "stage", "ms/seed", "share of diff");
  const auto row = [&](const char* name, double total) {
    std::printf("%-14s %12.2f %15.1f%%\n", name, 1e3 * total / n,
                t_diff > 0.0 ? 100.0 * total / t_diff : 0.0);
  };
  row("render", t_render);
  row("rfdump", t_pipeline);
  row("oracle", t_oracle);
  row("differential", t_diff);
  std::printf(
      "\n%llu seeds, %zu truth records, %zu decodes scored; oracle cost "
      "%.2f us per (truth x decode) candidate set\n",
      static_cast<unsigned long long>(seeds_to_run), truth_total, decode_total,
      truth_total > 0 ? 1e6 * t_oracle / static_cast<double>(truth_total)
                      : 0.0);
  const double per_seed = (t_render + t_diff) / n;
  std::printf("full differential gate: %.1f ms/seed -> %.0f seeds/minute "
              "of CI budget\n",
              1e3 * per_seed, per_seed > 0.0 ? 60.0 / per_seed : 0.0);
  return 0;
}
