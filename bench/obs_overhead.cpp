// Observability overhead: proves the instrumentation budget (<2% of block
// CPU, DESIGN.md §8) on the Table-1 workload. It also prices Counter::Inc
// under contention (min(4, allowed CPUs) writers on one counter), the cost
// that per-scan tallies keep off the per-candidate path; that figure is
// reported, not gated.
//
// Strategy: a single binary cannot compile both RFDUMP_OBS modes, so the
// bench (a) microbenchmarks each primitive the hot paths actually use
// (Counter::Inc, Histogram::Observe, a TraceSpan with the tracer disabled —
// the production default) and (b) counts how many such events one pipeline
// pass over the Table-1 capture really emits (registry deltas). The product
// is the instrumentation's share of the measured block CPU. Run with
// -DRFDUMP_OBS=OFF the primitives compile to no-ops and the share is ~0.

// Fleet mode (DESIGN.md §13) prices what the fleet observability layer
// adds to the *session* hot path — wire-propagated trace context under
// disabled LinkedSpans plus per-heartbeat MetricsMsg snapshots — by
// differencing two otherwise identical single-sensor fleet loops
// (federation on vs off) and charging the result against the same block
// CPU denominator. Both costs together must stay under the 2% budget.

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rfdump/net/fleet.hpp"
#include "rfdump/obs/obs.hpp"

namespace {

namespace obs = rfdump::obs;
namespace dsp = rfdump::dsp;

/// Counts counter *mutations* (Inc calls) since the last ResetAll(), from
/// the registry's exposition text. Every counter in the codebase increments
/// by 1 per call — value == call count — EXCEPT the `*_samples_total` and
/// `*_nanoseconds_total` families, which do one bulk Inc(n) per entry point
/// (per pipeline pass / per demod region / per stage-table export); those
/// contribute one atomic op per call, not per sample or nanosecond, and are
/// charged separately by the caller. The BT/BLE `*_sync_checks_total`
/// tallies publish one Inc(n) per scan but are counted here at their value,
/// which overstates their cost and keeps the estimate conservative.
std::uint64_t PerCallCounterEvents() {
  std::istringstream in(obs::Registry::Default().ExpositionText());
  std::uint64_t events = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    const auto brace = name.find('{');
    if (brace != std::string::npos) name.resize(brace);
    if (name.size() < 6 || name.compare(name.size() - 6, 6, "_total") != 0) {
      continue;
    }
    if (name.ends_with("_samples_total") ||
        name.ends_with("_nanoseconds_total")) {
      continue;  // bulk Inc(n): one op per call site invocation, see caller
    }
    events += static_cast<std::uint64_t>(std::atof(line.c_str() + space + 1));
  }
  return events;
}

double NsPerOp(double seconds, std::uint64_t ops) {
  return ops > 0 ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

/// CPUs this process may run on (sched_getaffinity), at least 1.
int AllowedCpuCount() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Counter::Inc as each of `writers` threads sees it while all of them
/// increment the same counter at once: wall time over per-thread ops. This
/// is what a per-candidate Inc costs when concurrent analysis units share
/// one counter's cache line.
double ContendedIncNs(obs::Counter& c, int writers, std::uint64_t ops) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < ops; ++i) c.Inc();
    });
  }
  while (ready.load() < writers) {
  }
  obs::Stopwatch w;
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  return NsPerOp(w.Seconds(), ops);
}

/// One single-sensor fleet pumped for `ticks` lockstep ticks, publishing a
/// small event batch every tick (fault-free links, so both runs see the
/// same frame schedule). Returns wall seconds; reports snapshots shipped.
double FleetLoopSeconds(bool federation, int ticks,
                        std::uint64_t* snapshots_out) {
  namespace net = rfdump::net;
  net::Fleet::Config fcfg;
  fcfg.sensors.resize(1);
  fcfg.sensors[0].id = 0;
  fcfg.sensors[0].seed = 9;
  if (federation) fcfg.sensors[0].session.metrics_every_n_heartbeats = 1;
  net::Fleet fleet(fcfg);
  fleet.Run(4);  // connect before timing

  std::vector<net::EventRecord> batch(8);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].protocol = rfdump::core::Protocol::kWifi80211b;
    batch[i].payload_bytes = 64;
    batch[i].crc_ok = true;
  }
  obs::Stopwatch w;
  for (int t = 0; t < ticks; ++t) {
    for (auto& e : batch) {
      e.start_sample = static_cast<std::int64_t>(t) * 8000;
      e.end_sample = e.start_sample + 640;
    }
    fleet.Publish(0, static_cast<std::int64_t>(t) * 8000, batch);
    fleet.Tick();
  }
  const double s = w.Seconds();
  if (snapshots_out != nullptr) {
    *snapshots_out = fleet.session(0).stats().metrics_snapshots;
  }
  return s;
}

}  // namespace

int main() {
  bench::PrintHeader("Observability overhead on the Table-1 workload");
#if RFDUMP_OBS_ENABLED
  std::printf("compiled mode: RFDUMP_OBS=ON (instrumentation live)\n\n");
#else
  std::printf("compiled mode: RFDUMP_OBS=OFF (instrumentation compiled out)\n\n");
#endif

  // --- Primitive costs -----------------------------------------------------
  obs::Counter& c = obs::Registry::Default().GetCounter("bench_scratch_total");
  obs::Histogram& hist = obs::Registry::Default().GetHistogram(
      "bench_scratch_hist", {0.1, 0.5, 1.0, 2.0});

  constexpr std::uint64_t kIncOps = 20'000'000;
  obs::Stopwatch w;
  for (std::uint64_t i = 0; i < kIncOps; ++i) c.Inc();
  const double t_inc = NsPerOp(w.Seconds(), kIncOps);

  constexpr std::uint64_t kObsOps = 5'000'000;
  w.Reset();
  for (std::uint64_t i = 0; i < kObsOps; ++i) {
    hist.Observe(static_cast<double>(i & 3) * 0.4);
  }
  const double t_observe = NsPerOp(w.Seconds(), kObsOps);

  constexpr std::uint64_t kSpanOps = 20'000'000;
  w.Reset();
  for (std::uint64_t i = 0; i < kSpanOps; ++i) {
    RFDUMP_TRACE_SPAN("bench/disabled");
  }
  const double t_span_off = NsPerOp(w.Seconds(), kSpanOps);

  obs::Tracer::Default().Enable(1 << 12);
  constexpr std::uint64_t kSpanOnOps = 2'000'000;
  w.Reset();
  for (std::uint64_t i = 0; i < kSpanOnOps; ++i) {
    RFDUMP_TRACE_SPAN("bench/enabled");
  }
  const double t_span_on = NsPerOp(w.Seconds(), kSpanOnOps);
  obs::Tracer::Default().Disable();

  const int writers = std::min(4, AllowedCpuCount());
  constexpr std::uint64_t kContendedOps = 2'000'000;
  const double t_inc_contended =
      ContendedIncNs(c, writers, kContendedOps);

  std::printf("%-38s %8.2f ns/op\n", "Counter::Inc (relaxed fetch_add)", t_inc);
  std::printf("%-38s %8.2f ns/op\n",
              ("Counter::Inc, " + std::to_string(writers) +
               " concurrent writers")
                  .c_str(),
              t_inc_contended);
  std::printf("%-38s %8.2f ns/op\n", "Histogram::Observe (4 buckets)",
              t_observe);
  std::printf("%-38s %8.2f ns/op\n", "TraceSpan, tracer disabled (default)",
              t_span_off);
  std::printf("%-38s %8.2f ns/op\n\n", "TraceSpan, tracer enabled", t_span_on);

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

  rfdump::core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(rfdump::core::Protocol::kMicrowave);
  {
    rfdump::core::RFDumpPipeline warmup(cfg);
    (void)warmup.Process(x);  // touch caches, resolve metric statics
  }
  obs::Registry::Default().ResetAll();
  w.Reset();
  rfdump::core::RFDumpPipeline pipeline(cfg);
  const auto report = pipeline.Process(x);
  const double pipeline_seconds = w.Seconds();
  const std::uint64_t per_call_events = PerCallCounterEvents();

  // Bulk Inc(n) call sites (`*_samples_total`) fire at region granularity —
  // at most once per 200-sample chunk is a generous upper bound — plus the
  // stage-table export's two Inc(n) per slot. Spans sit at stage
  // granularity: one site per charged stage-table slot.
  const std::uint64_t bulk_calls =
      obs::Registry::Default().CounterValue("rfdump_peaks_chunks_total") +
      2 * rfdump::core::kStageCount;
  std::uint64_t span_sites = 0;
  report.costs.ForEach([&](rfdump::core::Stage, const auto& c) {
    span_sites += c.charged() ? 1 : 0;
  });
  const std::uint64_t events = per_call_events + bulk_calls;

  const double instr_seconds =
      (static_cast<double>(events) * t_inc +
       static_cast<double>(span_sites) * t_span_off) *
      1e-9;
  const double share =
      pipeline_seconds > 0.0 ? instr_seconds / pipeline_seconds : 0.0;

  std::printf("capture: %.3f s of ether; pipeline CPU %.3f s (%.3fx real "
              "time)\n", real_seconds, pipeline_seconds,
              pipeline_seconds / real_seconds);
  std::printf("counter events in one pass: %llu (%.1f per 1k samples)\n",
              static_cast<unsigned long long>(events),
              1000.0 * static_cast<double>(events) /
                  static_cast<double>(x.size()));
  std::printf("estimated instrumentation cost: %.6f s = %.4f%% of block CPU\n",
              instr_seconds, share * 100.0);
  const bool pass = share < 0.02;
  std::printf("\nbudget <2%% of block CPU: %s\n", pass ? "PASS" : "FAIL");

  // --- Fleet mode: session-path cost of the fleet observability layer ------
  // Difference two identical single-sensor fleet loops: federation on
  // (a MetricsMsg snapshot with every heartbeat, the densest cadence the
  // CLI uses) minus federation off. The diff is the full round trip —
  // delta selection, encode, CRC, aggregator parse + ApplyMetrics. The
  // trace-context cost is NOT in the diff (the wire format always carries
  // it); it is charged as the disabled-LinkedSpan walk, 3 spans per block
  // (flush -> publish -> fuse). Both are scaled to one second of ether
  // (1000 ticks; a 50 ms block cadence = 20 blocks) and charged against
  // the pipeline CPU the same second of ether costs.
  const int kFleetTicks = static_cast<int>(bench::Scaled(16'000));
  std::uint64_t snapshots = 0;
  double t_fed_on = 1e300, t_fed_off = 1e300;
  for (int r = 0; r < 3; ++r) {  // best-of: squeezes out scheduler noise
    t_fed_off = std::min(t_fed_off, FleetLoopSeconds(false, kFleetTicks,
                                                     nullptr));
    t_fed_on = std::min(t_fed_on, FleetLoopSeconds(true, kFleetTicks,
                                                   &snapshots));
  }
  const double metrics_per_tick =
      std::max(0.0, (t_fed_on - t_fed_off) / kFleetTicks);
  const double ns_per_snapshot =
      snapshots > 0
          ? std::max(0.0, t_fed_on - t_fed_off) * 1e9 /
                static_cast<double>(snapshots)
          : 0.0;
  constexpr double kTicksPerEtherSecond = 1000.0;  // 1 ms fleet ticks
  constexpr double kBlocksPerEtherSecond = 20.0;   // 50 ms blocks
  const double fleet_instr_per_second =
      kTicksPerEtherSecond * metrics_per_tick +
      kBlocksPerEtherSecond * 3.0 * t_span_off * 1e-9;
  const double pipeline_per_second =
      real_seconds > 0.0 ? pipeline_seconds / real_seconds : 0.0;
  const double fleet_share = pipeline_per_second > 0.0
                                 ? fleet_instr_per_second / pipeline_per_second
                                 : 0.0;

  std::printf("\nfleet mode (%d ticks, %llu metrics snapshots):\n",
              kFleetTicks, static_cast<unsigned long long>(snapshots));
  std::printf("%-38s %8.2f ns\n", "metrics snapshot round trip",
              ns_per_snapshot);
  std::printf("fleet obs cost per ether-second: %.6f s vs pipeline %.3f s "
              "= %.4f%%\n",
              fleet_instr_per_second, pipeline_per_second,
              fleet_share * 100.0);
  const bool fleet_pass = fleet_share < 0.02;
  std::printf("fleet budget <2%% of block CPU: %s\n",
              fleet_pass ? "PASS" : "FAIL");

  bench::WriteBenchJson(
      "obs_overhead",
      bench::JsonObj({
          {"bench", bench::JsonStr("obs_overhead")},
          {"obs_enabled", bench::JsonInt(RFDUMP_OBS_ENABLED)},
          {"counter_inc_ns", bench::JsonNum(t_inc)},
          {"counter_inc_contended_ns", bench::JsonNum(t_inc_contended)},
          {"contended_writers", bench::JsonInt(writers)},
          {"histogram_observe_ns", bench::JsonNum(t_observe)},
          {"span_disabled_ns", bench::JsonNum(t_span_off)},
          {"span_enabled_ns", bench::JsonNum(t_span_on)},
          {"pipeline_share", bench::JsonNum(share)},
          {"metrics_snapshot_ns", bench::JsonNum(ns_per_snapshot)},
          {"fleet_share", bench::JsonNum(fleet_share)},
          {"budget", bench::JsonNum(0.02)},
          {"pass", bench::JsonInt(pass && fleet_pass ? 1 : 0)},
      }));
  return pass && fleet_pass ? 0 : 1;
}
