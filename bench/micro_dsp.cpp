// google-benchmark microbenches of the DSP primitives, each reported with a
// derived "x real time" counter against the 8 Msps front-end rate. These are
// the per-sample costs Table 1 and Figure 9 are built from.
//
// main() first runs the scalar-vs-SIMD kernel speedup table (DESIGN.md §16)
// and writes it to BENCH_micro_dsp.json; the binary exits nonzero unless at
// least two of {barker, energy, fir, gfsk-discriminator} reach a 2x speedup
// over the scalar conformance tier. The google-benchmark suites run after.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "rfdump/channel/channel.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/dsp/barker.hpp"
#include "rfdump/dsp/fft.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/resampler.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/phyzigbee/phy.hpp"
#include "rfdump/util/rng.hpp"

namespace dsp = rfdump::dsp;

namespace {

dsp::SampleVec NoiseBuffer(std::size_t n, std::uint64_t seed) {
  dsp::SampleVec x(n);
  rfdump::util::Xoshiro256 rng(seed);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  return x;
}

void SetRealTimeRate(benchmark::State& state, std::size_t samples_per_iter) {
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(samples_per_iter) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["x_realtime"] = benchmark::Counter(
      static_cast<double>(samples_per_iter) *
          static_cast<double>(state.iterations()) / dsp::kSampleRateHz,
      benchmark::Counter::kIsRate);
}

void BM_Fft256(benchmark::State& state) {
  dsp::FftPlan plan(256);
  auto x = NoiseBuffer(256, 1);
  for (auto _ : state) {
    plan.Forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  SetRealTimeRate(state, 256);
}
BENCHMARK(BM_Fft256);

void BM_FirFilter21(benchmark::State& state) {
  dsp::FirFilter fir(dsp::DesignLowPass(600e3, 8e6, 21));
  const auto x = NoiseBuffer(8192, 2);
  dsp::SampleVec out;
  for (auto _ : state) {
    out.clear();
    fir.Process(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  SetRealTimeRate(state, x.size());
}
BENCHMARK(BM_FirFilter21);

void BM_PhaseDiff(benchmark::State& state) {
  const auto x = NoiseBuffer(8192, 3);
  for (auto _ : state) {
    auto d = dsp::PhaseDiff(x);
    benchmark::DoNotOptimize(d.data());
  }
  SetRealTimeRate(state, x.size());
}
BENCHMARK(BM_PhaseDiff);

void BM_Resampler11over8(benchmark::State& state) {
  dsp::RationalResampler rs(11, 8);
  const auto x = NoiseBuffer(8192, 4);
  dsp::SampleVec out;
  for (auto _ : state) {
    out.clear();
    rs.Process(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  SetRealTimeRate(state, x.size());
}
BENCHMARK(BM_Resampler11over8);

void BM_BarkerCorrelate(benchmark::State& state) {
  const auto x = NoiseBuffer(8192, 5);
  for (auto _ : state) {
    auto c = dsp::CorrelateChips(x, dsp::kBarker11);
    benchmark::DoNotOptimize(c.data());
  }
  SetRealTimeRate(state, x.size());
}
BENCHMARK(BM_BarkerCorrelate);

void BM_PeakDetector(benchmark::State& state) {
  const auto x = NoiseBuffer(65536, 6);
  for (auto _ : state) {
    rfdump::core::PeakDetector det;
    for (std::size_t at = 0; at < x.size(); at += rfdump::core::kChunkSamples) {
      const auto meta = det.PushChunk(
          dsp::const_sample_span(x).subspan(
              at, std::min(rfdump::core::kChunkSamples, x.size() - at)),
          static_cast<std::int64_t>(at));
      benchmark::DoNotOptimize(meta.completed.size());
    }
  }
  SetRealTimeRate(state, x.size());
}
BENCHMARK(BM_PeakDetector);

void BM_GfskModulate(benchmark::State& state) {
  rfdump::util::BitVec bits(366);
  rfdump::util::Xoshiro256 rng(7);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  for (auto _ : state) {
    auto burst = rfdump::phybt::GfskModulate(bits);
    benchmark::DoNotOptimize(burst.data());
  }
  SetRealTimeRate(state, 366 * rfdump::phybt::kSamplesPerSymbol);
}
BENCHMARK(BM_GfskModulate);

void BM_PhaseInfo(benchmark::State& state) {
  const auto x = NoiseBuffer(2048, 8);
  for (auto _ : state) {
    auto info = rfdump::core::ComputePhaseInfo(x, 2048, 4);
    benchmark::DoNotOptimize(&info);
  }
  SetRealTimeRate(state, 2048);
}
BENCHMARK(BM_PhaseInfo);

void BM_Awgn(benchmark::State& state) {
  dsp::SampleVec x(8192);
  rfdump::util::Xoshiro256 rng(9);
  for (auto _ : state) {
    rfdump::channel::AddAwgn(x, 1.0, rng);
    benchmark::DoNotOptimize(x.data());
  }
  SetRealTimeRate(state, x.size());
}
BENCHMARK(BM_Awgn);

// ------------------------------------------------- kernel speedup table
// Times each dsp::simd kernel once through the scalar table and once through
// the dispatch tier — the best supported one, or the one RFDUMP_SIMD names
// (function pointers taken directly from Table(), so the global dispatch
// state is untouched) — and writes the per-kernel speedups to
// BENCH_micro_dsp.json.

namespace simd = rfdump::dsp::simd;

/// Best-of-reps seconds per call of `f` (amortized over `inner` calls).
template <class F>
double TimeKernel(F&& f, int inner = 64, int reps = 5) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    rfdump::obs::Stopwatch w;
    for (int i = 0; i < inner; ++i) f();
    best = std::min(best, w.Seconds() / inner);
  }
  return best;
}

struct KernelRow {
  const char* kernel = "";
  bool gate_member = false;  // counts toward the 2-of-4 speedup gate
  double scalar_ns_per_sample = 0.0;
  double simd_ns_per_sample = 0.0;
  double speedup = 0.0;
};

int RunSpeedupTable() {
  bench::PrintHeader("DSP kernel speedup: scalar conformance tier vs best "
                     "dispatch tier");
  const simd::Tier best_tier = simd::ActiveTier();
  const simd::Kernels& scalar = simd::Table(simd::Tier::kScalar);
  const simd::Kernels& fast = simd::Table(best_tier);
  std::printf("dispatch tier: %s\n\n", simd::TierName(best_tier));

  constexpr std::size_t kN = 8192;
  const auto x = NoiseBuffer(kN, 42);
  const auto taps = dsp::DesignLowPass(600e3, dsp::kSampleRateHz, 21);
  dsp::SampleVec cout_buf(kN);
  std::vector<float> fout_buf(kN);

  std::vector<KernelRow> rows;
  auto measure = [&](const char* name, bool gate_member, auto&& run) {
    KernelRow row;
    row.kernel = name;
    row.gate_member = gate_member;
    row.scalar_ns_per_sample =
        TimeKernel([&] { run(scalar); }) * 1e9 / static_cast<double>(kN);
    row.simd_ns_per_sample =
        TimeKernel([&] { run(fast); }) * 1e9 / static_cast<double>(kN);
    row.speedup = row.simd_ns_per_sample > 0.0
                      ? row.scalar_ns_per_sample / row.simd_ns_per_sample
                      : 0.0;
    std::printf("%-20s scalar %7.3f ns/sample  %s %7.3f ns/sample  -> "
                "%5.2fx%s\n",
                name, row.scalar_ns_per_sample, simd::TierName(best_tier),
                row.simd_ns_per_sample, row.speedup,
                gate_member ? "  [gate]" : "");
    rows.push_back(row);
  };

  measure("barker", true, [&](const simd::Kernels& k) {
    k.correlate_chips(x.data(), kN - dsp::kBarker11.size() + 1,
                      dsp::kBarker11.data(), dsp::kBarker11.size(),
                      cout_buf.data());
    benchmark::DoNotOptimize(cout_buf.data());
  });
  measure("energy", true, [&](const simd::Kernels& k) {
    double e = k.sum_finite_power(x.data(), kN);
    benchmark::DoNotOptimize(e);
  });
  measure("fir", true, [&](const simd::Kernels& k) {
    k.fir_complex(x.data(), kN - taps.size() + 1, taps.data(), taps.size(),
                  cout_buf.data());
    benchmark::DoNotOptimize(cout_buf.data());
  });
  measure("gfsk-discriminator", true, [&](const simd::Kernels& k) {
    k.phase_diff(x.data(), kN, fout_buf.data());
    benchmark::DoNotOptimize(fout_buf.data());
  });
  measure("instant-phase", false, [&](const simd::Kernels& k) {
    k.instant_phase(x.data(), kN, fout_buf.data());
    benchmark::DoNotOptimize(fout_buf.data());
  });
  measure("power-plane", false, [&](const simd::Kernels& k) {
    k.power_plane(x.data(), kN, fout_buf.data());
    benchmark::DoNotOptimize(fout_buf.data());
  });
  measure("health-scan", false, [&](const simd::Kernels& k) {
    std::uint64_t nonfinite = 0, saturated = 0;
    k.health_scan(x.data(), kN, 0.98f * 64.0f, &nonfinite, &saturated);
    benchmark::DoNotOptimize(nonfinite + saturated);
  });
  measure("conj-mul-sum", false, [&](const simd::Kernels& k) {
    dsp::cfloat s = k.conj_mul_sum(x.data(), kN);
    benchmark::DoNotOptimize(&s);
  });
  // The whole GFSK channel front end (mix, FIR, discriminator, power track,
  // floor, slicer plane) per channel-sample. It dispatches through
  // simd::Active(), so the row forces each tier for its timing.
  const rfdump::phybt::GfskChannel gfsk_channel(-3.5e6);
  measure("gfsk-channel", false, [&](const simd::Kernels& k) {
    simd::ForceTier(k.tier);
    float gate = gfsk_channel.Process(x, 0.0).gate;
    benchmark::DoNotOptimize(gate);
  });
  // The occupancy screen the scanners run before that front end, per
  // channel-sample of noise at the configured floor: no stretch passes, so it
  // reads the whole span, as on every channel it screens out. It is not in
  // the kernel table, so both columns time the same code.
  measure("gfsk-screen", false, [&](const simd::Kernels&) {
    const bool occupied = gfsk_channel.Occupied(x, 1.0);
    benchmark::DoNotOptimize(occupied);
  });
  // The ZigBee sync search per sample of frame-free 802.11b air (a 2 Mbps
  // frame over noise), where no offset passes the preamble screen. Also
  // dispatches through simd::Active(), so it forces each tier too.
  dsp::SampleVec air = rfdump::phy80211::Modulator().Modulate(
      std::vector<std::uint8_t>(1000, 0x5A), rfdump::phy80211::Rate::k2Mbps);
  air.resize(kN);
  rfdump::util::Xoshiro256 air_rng(7);
  rfdump::channel::AddAwgn(air, 1e-2, air_rng);
  measure("zigbee-sync", false, [&](const simd::Kernels& k) {
    simd::ForceTier(k.tier);
    const bool found = rfdump::phyzigbee::DecodeFrame(air).has_value();
    benchmark::DoNotOptimize(found);
  });
  // The 11/8 resampler of every 802.11 unit per input sample: the resample
  // kernel plus RationalResampler's history handling. Process dispatches
  // through simd::Active() as well.
  dsp::RationalResampler resampler(11, 8);
  dsp::SampleVec resampled;
  resampled.reserve(kN * 11 / 8 + 8);
  measure("resampler", false, [&](const simd::Kernels& k) {
    simd::ForceTier(k.tier);
    resampled.clear();
    resampler.Process(x, resampled);
    benchmark::DoNotOptimize(resampled.data());
  });
  simd::ClearForcedTier();

  int gate_hits = 0;
  for (const auto& r : rows) {
    if (r.gate_member && r.speedup >= 2.0) ++gate_hits;
  }
  const bool gate_ok = gate_hits >= 2;
  std::printf("\ngate: %d of 4 gate kernels at >=2x (need 2): %s\n", gate_hits,
              gate_ok ? "PASS" : "FAIL");

  std::vector<std::string> kernel_objs;
  for (const auto& r : rows) {
    kernel_objs.push_back(bench::JsonObj({
        {"kernel", bench::JsonStr(r.kernel)},
        {"gate_member", r.gate_member ? "true" : "false"},
        {"scalar_ns_per_sample", bench::JsonNum(r.scalar_ns_per_sample)},
        {"simd_ns_per_sample", bench::JsonNum(r.simd_ns_per_sample)},
        {"speedup", bench::JsonNum(r.speedup)},
    }));
  }
  bench::WriteBenchJson(
      "micro_dsp",
      bench::JsonObj({
          {"bench", bench::JsonStr("micro_dsp")},
          {"samples", bench::JsonInt(static_cast<long long>(kN))},
          {"best_tier", bench::JsonStr(simd::TierName(best_tier))},
          {"kernels", bench::JsonArr(kernel_objs)},
          {"gate_kernels_at_2x", bench::JsonInt(gate_hits)},
          {"gate_passed", gate_ok ? "true" : "false"},
      }));
  std::printf("\n");
  return gate_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int gate = RunSpeedupTable();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gate;
}
