// Parallel analysis executor tests (DESIGN.md §10): whatever the executor
// width, a monitoring run must produce *identical* results — parallelism may
// only move wall time. The sweep covers the batch pipeline and the streaming
// monitor (clean and impaired input), the supervisor's no-poisoning
// guarantee under a crashing demodulator, the ResultSink, and
// Config::Validate.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/emu/frontend.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;

namespace {

constexpr int kWidths[] = {1, 2, 8};

/// Busy 2.4 GHz band: Wi-Fi pings, a Bluetooth ACL session and a ZigBee
/// burst interleaved — enough dispatched intervals that the parallel path
/// actually fans out across protocols and Bluetooth channels.
dsp::SampleVec MixedEther(std::uint64_t seed) {
  emu::Ether ether(emu::Ether::Config{}, seed);
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 6;
  wifi.interval_us = 25000.0;
  wifi.snr_db = 25.0;
  rfdump::traffic::L2PingConfig bt;
  bt.count = 24;
  rfdump::traffic::ZigbeeConfig zb;
  zb.count = 10;
  zb.snr_db = 20.0;
  zb.interval_us = 0.0;  // LIFS-spaced, so the ZigBee timing detector fires
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 8000);
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bt, 16000);
  const auto zs = rfdump::traffic::GenerateZigbee(ether, zb, 24000);
  const auto end = std::max(ws.end_sample, std::max(bs.end_sample,
                                                    zs.end_sample));
  return ether.Render(end + 8000);
}

// ------------------------------------------------------------- fingerprints
// Every result-bearing field, serialized. Stage wall time / block_load style
// timing fields are the only report contents allowed to differ across
// widths, so they are the only ones left out.

std::string Fp(const core::ProtocolEvent& e) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s ch%d %lld %lld %d %08x %zu ",
                core::ProtocolName(e.protocol), e.channel,
                static_cast<long long>(e.start_sample),
                static_cast<long long>(e.end_sample), e.crc_ok ? 1 : 0,
                e.header, e.payload.size());
  std::string out = buf;
  for (const auto b : e.payload) out += std::to_string(b) + ",";
  return out;
}

std::string Fp(const core::Detection& d) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "det %s %lld %lld %.6f %s",
                core::ProtocolName(d.protocol),
                static_cast<long long>(d.start_sample),
                static_cast<long long>(d.end_sample),
                static_cast<double>(d.confidence), d.detector);
  return buf;
}

/// Result-bearing content of a MonitorReport (everything except timing).
std::vector<std::string> Fingerprint(const core::MonitorReport& r) {
  std::vector<std::string> out;
  out.push_back("samples " + std::to_string(r.samples_total));
  out.push_back("counts " + std::to_string(r.detections.size()) + " " +
                std::to_string(r.dispatched.size()) + " " +
                std::to_string(r.events.size()));
  for (const auto& d : r.detections) out.push_back(Fp(d));
  for (const auto& d : r.dispatched) out.push_back(Fp(d));
  for (const auto& e : r.events) out.push_back(Fp(e));
  return out;
}

std::vector<std::string> Fingerprint(const core::CollectingSink& s) {
  std::vector<std::string> out;
  for (const auto& d : s.detections) out.push_back(Fp(d));
  for (const auto& e : s.events) out.push_back(Fp(e));
  return out;
}

bool Decoded(const core::MonitorReport& r, core::Protocol p) {
  return std::any_of(r.events.begin(), r.events.end(),
                     [p](const auto& e) { return e.protocol == p; });
}

// ------------------------------------------------------------ batch pipeline

TEST(Parallel, PipelineReportIdenticalAcrossWidths) {
  const auto x = MixedEther(/*seed=*/11);

  std::vector<std::string> baseline;
  std::vector<std::string> sink_baseline;
  for (const int width : kWidths) {
    core::Executor executor(width);
    EXPECT_EQ(executor.serial(), width == 1);
    core::CollectingSink sink;
    core::RFDumpPipeline::Config cfg;
    cfg.EnableBundle(core::Protocol::kZigbee);
    const auto report = core::AnalyzeDetections(
        core::RFDumpPipeline(cfg).Detect(x), x, &executor, &sink);
    const auto fp = Fingerprint(report);
    const auto sink_fp = Fingerprint(sink);
    if (width == 1) {
      // The serial run must actually exercise every protocol, or identical
      // empty reports would pass vacuously.
      EXPECT_TRUE(Decoded(report, core::Protocol::kWifi80211b));
      EXPECT_TRUE(Decoded(report, core::Protocol::kBluetooth));
      EXPECT_TRUE(Decoded(report, core::Protocol::kZigbee));
      EXPECT_EQ(sink.health.size(), report.health.size());
      baseline = fp;
      sink_baseline = sink_fp;
    } else {
      EXPECT_EQ(fp, baseline) << "report diverged at --threads " << width;
      EXPECT_EQ(sink_fp, sink_baseline)
          << "sink emission diverged at --threads " << width;
    }
  }
}

TEST(Parallel, NaivePipelineIdenticalAcrossWidths) {
  const auto x = MixedEther(/*seed=*/23);
  std::vector<std::string> baseline;
  for (const int width : kWidths) {
    core::Executor executor(width);
    core::NaivePipeline::Config cfg;
    cfg.energy_gate = true;
    cfg.executor = &executor;
    const auto report = core::NaivePipeline(cfg).Process(x);
    const auto fp = Fingerprint(report);
    if (width == 1) {
      EXPECT_TRUE(Decoded(report, core::Protocol::kWifi80211b));
      EXPECT_TRUE(Decoded(report, core::Protocol::kBluetooth));
      baseline = fp;
    } else {
      EXPECT_EQ(fp, baseline) << "naive report diverged at width " << width;
    }
  }
}

// Stage samples are counts, not timings, so they must be exact at every
// width: health and peak charge every input sample once, and each analysis
// slot charges every dispatched interval once per unit run.
TEST(Parallel, StageSamplesExactAtEveryWidth) {
  const auto x = MixedEther(/*seed=*/11);
  const auto& registry = core::ProtocolRegistry::Instance();
  std::vector<std::uint64_t> baseline;
  for (const int width : {1, 4}) {
    core::Executor executor(width);
    core::RFDumpPipeline::Config cfg;
    cfg.EnableBundle(core::Protocol::kZigbee);
    cfg.executor = &executor;
    const auto report = core::RFDumpPipeline(cfg).Process(x);
    EXPECT_EQ(report.costs[core::Stage::kHealth].samples, x.size());
    EXPECT_EQ(report.costs[core::Stage::kPeak].samples, x.size());

    std::array<std::uint64_t, core::kProtocolCount> expected{};
    for (const auto& d : report.dispatched) {
      const auto* bundle = registry.Find(d.protocol);
      if (bundle == nullptr || !bundle->analysis_plan) continue;
      const int units = bundle->analysis_plan(cfg.analysis).units;
      expected[static_cast<std::size_t>(d.protocol)] +=
          static_cast<std::uint64_t>(d.end_sample - d.start_sample) *
          static_cast<std::uint64_t>(std::max(units, 0));
    }
    EXPECT_GT(expected[static_cast<std::size_t>(core::Protocol::kBluetooth)],
              0u);
    for (std::size_t id = 0; id < core::kProtocolCount; ++id) {
      const auto p = static_cast<core::Protocol>(id);
      EXPECT_EQ(report.costs[core::AnalysisStage(p)].samples, expected[id])
          << core::StageName(core::AnalysisStage(p)) << " at width " << width;
    }

    std::vector<std::uint64_t> samples;
    report.costs.ForEach([&](core::Stage, const core::StageSlot& c) {
      samples.push_back(c.samples);
    });
    if (width == 1) {
      baseline = samples;
    } else {
      EXPECT_EQ(samples, baseline) << "stage samples moved at width " << width;
    }

    // Streaming: every processed sample (overlap re-reads included) is
    // health-scanned exactly once.
    core::StreamingMonitor::Config mcfg;
    mcfg.block_samples = 400'000;
    mcfg.overlap_samples = 160'000;
    mcfg.threads = width;
    core::StreamingMonitor monitor(mcfg);
    monitor.Push(x);
    monitor.Flush();
    EXPECT_GT(monitor.samples_processed(), x.size());
    EXPECT_EQ(monitor.costs()[core::Stage::kHealth].samples,
              monitor.samples_processed())
        << "streaming at threads=" << width;
  }
}

// --------------------------------------------------------- streaming monitor

struct StreamRun {
  std::vector<std::string> results;  // sink contents, in emission order
  std::size_t gaps = 0;
  std::uint64_t blocks = 0;
  std::uint64_t samples = 0;
};

StreamRun RunStreaming(const dsp::SampleVec& x, int threads, bool impair) {
  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 400'000;
  mcfg.overlap_samples = 160'000;
  mcfg.threads = threads;
  core::CollectingSink sink;
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  if (impair) {
    emu::FrontEnd::Config fcfg;
    fcfg.drops_per_second = 25.0;
    fcfg.drop_min_samples = 4'000;
    fcfg.drop_max_samples = 20'000;
    fcfg.nonfinite_per_second = 15.0;
    fcfg.duplicates_per_second = 3.0;
    fcfg.clip_amplitude = 24.0f;
    emu::FrontEnd fe(x, fcfg, /*seed=*/17);
    while (!fe.Done()) {
      const auto seg = fe.NextSegment();
      if (!seg.samples.empty()) monitor.PushSegment(seg.start_sample,
                                                    seg.samples);
    }
  } else {
    // Uneven segment sizes so block boundaries land mid-delivery.
    const auto all = dsp::const_sample_span(x);
    std::size_t pos = 0;
    std::size_t n = 70'001;
    while (pos < all.size()) {
      const std::size_t take = std::min(n, all.size() - pos);
      monitor.Push(all.subspan(pos, take));
      pos += take;
      n = (n % 150'000) + 35'000;
    }
  }
  monitor.Flush();
  StreamRun run;
  run.results = Fingerprint(sink);
  run.gaps = monitor.gaps().size();
  run.blocks = monitor.summary().blocks;
  run.samples = monitor.summary().samples;
  return run;
}

TEST(Parallel, StreamingIdenticalAcrossWidthsCleanTrace) {
  const auto x = MixedEther(/*seed=*/31);
  const auto base = RunStreaming(x, 1, /*impair=*/false);
  ASSERT_FALSE(base.results.empty());
  EXPECT_GT(base.blocks, 2u);
  for (const int width : {2, 8}) {
    const auto run = RunStreaming(x, width, /*impair=*/false);
    EXPECT_EQ(run.results, base.results) << "diverged at threads=" << width;
    EXPECT_EQ(run.blocks, base.blocks);
    EXPECT_EQ(run.samples, base.samples);
  }
}

TEST(Parallel, StreamingIdenticalAcrossWidthsImpairedTrace) {
  // The full fault-tolerant path — gaps, duplicate buffers, NaN bursts,
  // clipping — pipelined across ingest and analysis threads must emit the
  // same frames as the serial monitor.
  const auto x = MixedEther(/*seed=*/47);
  const auto base = RunStreaming(x, 1, /*impair=*/true);
  ASSERT_FALSE(base.results.empty());
  EXPECT_GT(base.gaps, 0u);
  for (const int width : {2, 8}) {
    const auto run = RunStreaming(x, width, /*impair=*/true);
    EXPECT_EQ(run.results, base.results) << "diverged at threads=" << width;
    EXPECT_EQ(run.gaps, base.gaps);
    EXPECT_EQ(run.blocks, base.blocks);
    EXPECT_EQ(run.samples, base.samples);
  }
}

// -------------------------------------------------- supervised parallel run

TEST(Parallel, ThrowingUnitDoesNotPoisonSiblings) {
  // A demodulator crashing on one worker must not take down the sibling
  // tasks of the same batch: Wi-Fi (and the other Bluetooth channel units)
  // still produce their results, and the supervisor records the crash as a
  // contained exception — identically at every width.
  const auto x = MixedEther(/*seed=*/53);

  std::vector<std::string> baseline;
  std::uint64_t baseline_exceptions = 0;
  for (const int width : kWidths) {
    core::Supervisor::Config scfg;
    scfg.breaker_window = 1'000'000;  // keep the breaker out of this test
    scfg.breaker_trip_failures = 1'000'000;
    scfg.fault_hook = [](core::Protocol p, std::int64_t,
                         rfdump::util::WorkBudget&) {
      if (p == core::Protocol::kBluetooth) {
        throw std::runtime_error("injected demodulator crash");
      }
    };
    core::Supervisor supervisor(scfg);
    core::Executor executor(width);
    core::RFDumpPipeline::Config cfg;
    cfg.supervisor = &supervisor;
    cfg.executor = &executor;
    const auto report = core::RFDumpPipeline(cfg).Process(x);

    const auto counts = supervisor.counts();
    EXPECT_GT(counts.exception, 0u) << "fault hook never fired";
    // The crashed units' output is gone; the sibling Wi-Fi analysis is not.
    EXPECT_FALSE(Decoded(report, core::Protocol::kBluetooth));
    EXPECT_TRUE(Decoded(report, core::Protocol::kWifi80211b))
        << "sibling Wi-Fi analysis was poisoned at width " << width;
    const auto fp = Fingerprint(report);
    if (width == 1) {
      baseline = fp;
      baseline_exceptions = counts.exception;
    } else {
      EXPECT_EQ(fp, baseline) << "supervised report diverged at " << width;
      EXPECT_EQ(counts.exception, baseline_exceptions);
    }
  }
}

TEST(Parallel, UnsupervisedThrowPropagatesFromWait) {
  // Without a supervisor there is no containment: the first failing unit's
  // exception surfaces from Process() — from the merge point, not from a
  // worker thread.
  core::Executor executor(4);
  core::Executor::Batch batch(&executor);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    batch.Run([&ran, i] {
      if (i == 5) throw std::runtime_error("boom");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(batch.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 15);  // siblings all ran to completion
}

TEST(Parallel, ExecutorSerialRunsInline) {
  core::Executor executor(1);
  EXPECT_TRUE(executor.serial());
  EXPECT_EQ(executor.threads(), 1);
  core::Executor::Batch batch(&executor);
  int order = 0;
  int first = -1, second = -1;
  batch.Run([&] { first = order++; });
  batch.Run([&] { second = order++; });
  batch.Wait();
  EXPECT_EQ(first, 0);  // inline mode: submission order, immediate
  EXPECT_EQ(second, 1);
}

TEST(Parallel, ExecutorRunsEveryTaskOnce) {
  core::Executor executor(8);
  std::vector<std::atomic<int>> hits(500);
  core::Executor::Batch batch(&executor);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    batch.Run([&hits, i] { hits[i].fetch_add(1); });
  }
  batch.Wait();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

// ------------------------------------------------------- config validation

TEST(Parallel, StreamingConfigValidateRejectsBadConfigs) {
  const auto bad = [](auto mutate) {
    core::StreamingMonitor::Config cfg;
    mutate(cfg);
    EXPECT_THROW(core::StreamingMonitor m(cfg), std::invalid_argument);
  };
  bad([](auto& c) { c.overlap_samples = c.block_samples; });
  bad([](auto& c) { c.overlap_samples = c.block_samples + 1; });
  bad([](auto& c) { c.block_samples = 0; });
  bad([](auto& c) { c.threads = 0; });
  bad([](auto& c) { c.threads = -3; });
  bad([](auto& c) { c.max_queue_blocks = 0; });
  bad([](auto& c) { c.cpu_budget = -0.5; });
  bad([](auto& c) { c.supervisor.demod_limits.max_cpu_seconds = -1.0; });
  // The defaults and a widened config are valid.
  core::StreamingMonitor::Config ok;
  EXPECT_NO_THROW(ok.Validate());
  ok.threads = 4;
  ok.max_queue_blocks = 3;
  EXPECT_NO_THROW(ok.Validate());
}

// ------------------------------------------------------------- result sink

TEST(Parallel, PushIsPushSegmentWithAutoTimestamp) {
  const auto x = MixedEther(/*seed=*/7);
  const auto all = dsp::const_sample_span(x);
  const std::size_t half = x.size() / 2;

  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 400'000;
  mcfg.overlap_samples = 160'000;

  core::CollectingSink a;
  {
    auto cfg = mcfg;
    cfg.sink = &a;
    core::StreamingMonitor m(cfg);
    m.Push(all.first(half));
    m.Push(all.subspan(half));
    m.Flush();
  }
  core::CollectingSink b;
  {
    auto cfg = mcfg;
    cfg.sink = &b;
    core::StreamingMonitor m(cfg);
    m.PushSegment(0, all.first(half));
    m.PushSegment(static_cast<std::int64_t>(half), all.subspan(half));
    m.Flush();
  }
  ASSERT_FALSE(Fingerprint(a).empty());
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
}

// A sink that trips if the monitor ever delivers two results concurrently.
// The ResultSink threading contract promises emitters serialise all calls —
// that guarantee is what lets CollectingSink (and any user sink) stay
// lock-free, so it gets verified directly at every executor width instead
// of trusted. Violations are counted atomically rather than EXPECTed in the
// hot path: if the contract *were* broken, gtest's failure machinery would
// itself be racing.
class ReentryGuardSink final : public core::ResultSink {
 public:
  core::CollectingSink inner;
  std::atomic<int> overlaps{0};

  void OnEvent(const core::ProtocolEvent& e) override {
    const Guard g(this);
    inner.OnEvent(e);
  }
  void OnDetection(const core::Detection& d) override {
    const Guard g(this);
    inner.OnDetection(d);
  }
  void OnHealth(const core::HealthReport& h) override {
    const Guard g(this);
    inner.OnHealth(h);
  }

 private:
  struct Guard {
    explicit Guard(ReentryGuardSink* s) : s_(s) {
      if (s_->busy_.exchange(true, std::memory_order_acquire)) {
        s_->overlaps.fetch_add(1, std::memory_order_relaxed);
      }
      // Widen the race window so a violation cannot slip through unseen
      // (atomic loads, so the loop survives optimisation).
      for (int spin = 0; spin < 200; ++spin) {
        (void)s_->busy_.load(std::memory_order_relaxed);
      }
    }
    ~Guard() { s_->busy_.store(false, std::memory_order_release); }
    ReentryGuardSink* s_;
  };

  std::atomic<bool> busy_{false};
};

TEST(Parallel, CollectingSinkUnderConcurrentDelivery) {
  // A pipelined monitor (worker threads + queued blocks) must deliver to one
  // unsynchronised CollectingSink exactly what the serial run produces: same
  // results, same order, never two calls at once.
  const auto x = MixedEther(/*seed=*/23);
  std::vector<std::string> baseline;
  for (const int width : kWidths) {
    core::StreamingMonitor::Config mcfg;
    mcfg.block_samples = 400'000;
    mcfg.overlap_samples = 160'000;
    mcfg.threads = width;
    mcfg.max_queue_blocks = 3;  // analysis overlaps ingest across blocks
    ReentryGuardSink sink;
    mcfg.sink = &sink;
    core::StreamingMonitor monitor(mcfg);
    monitor.Push(x);
    monitor.Flush();

    EXPECT_EQ(sink.overlaps.load(), 0)
        << "concurrent sink delivery at --threads " << width;
    const auto fp = Fingerprint(sink.inner);
    ASSERT_FALSE(fp.empty());
    if (width == kWidths[0]) {
      baseline = fp;
    } else {
      EXPECT_EQ(fp, baseline) << "sink results diverged at width " << width;
    }
  }
}

}  // namespace
