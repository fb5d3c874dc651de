// Fault-tolerance tests for the streaming path: an impaired front end (USB
// overrun drops, ADC saturation, NaN bursts, duplicate buffers) must yield a
// monitor that reports every gap, decodes what it honestly can, never emits
// a frame spanning missing samples, and sheds load gracefully under
// overload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/emu/frontend.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;

namespace {

struct Scenario {
  dsp::SampleVec samples;
  std::vector<emu::TruthRecord> wifi_truth;
};

Scenario MakeScenario(std::size_t pings, std::uint64_t seed) {
  emu::Ether ether(emu::Ether::Config{}, seed);
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = pings;
  cfg.interval_us = 25000.0;
  cfg.snr_db = 25.0;
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  Scenario s;
  s.samples = ether.Render(session.end_sample + 8000);
  s.wifi_truth = ether.VisibleTruth(core::Protocol::kWifi80211b);
  return s;
}

core::StreamingMonitor::Config SmallBlocks() {
  core::StreamingMonitor::Config cfg;
  cfg.block_samples = 400'000;
  cfg.overlap_samples = 160'000;
  return cfg;
}

/// Every emitted 802.11 decode.
class WifiFrames final : public core::ResultSink {
 public:
  void OnEvent(const core::ProtocolEvent& e) override {
    if (e.protocol == core::Protocol::kWifi80211b) frames.push_back(e);
  }
  std::vector<core::ProtocolEvent> frames;
};

/// Feeds every front-end delivery into the monitor and flushes.
void Drive(emu::FrontEnd& fe, core::StreamingMonitor& monitor) {
  while (!fe.Done()) {
    const auto seg = fe.NextSegment();
    if (!seg.samples.empty()) {
      monitor.PushSegment(seg.start_sample, seg.samples);
    }
  }
  monitor.Flush();
}

bool Intersects(std::int64_t a0, std::int64_t a1, std::int64_t b0,
                std::int64_t b1) {
  return a0 < b1 && b0 < a1;
}

/// Sums a per-protocol labeled counter family over every protocol.
std::uint64_t SumProtocolFamily(const std::string& family) {
  static constexpr core::Protocol kAll[] = {
      core::Protocol::kUnknown, core::Protocol::kWifi80211b,
      core::Protocol::kBluetooth, core::Protocol::kZigbee,
      core::Protocol::kMicrowave};
  std::uint64_t sum = 0;
  for (const auto p : kAll) {
    sum += rfdump::obs::Registry::Default().CounterValue(
        family + "{protocol=\"" + core::ProtocolName(p) + "\"}");
  }
  return sum;
}

TEST(StreamingFault, GapsReportedFramesHonest) {
  const auto scenario = MakeScenario(/*pings=*/12, /*seed=*/21);
  const auto n = static_cast<std::int64_t>(scenario.samples.size());

  emu::FrontEnd::Config fcfg;
  fcfg.drops_per_second = 12.0;        // a few overruns across the capture
  fcfg.drop_min_samples = 4'000;
  fcfg.drop_max_samples = 30'000;
  fcfg.nonfinite_per_second = 20.0;    // frequent short corruption bursts
  fcfg.clip_amplitude = 20.0f;         // light ADC saturation of the signal
  fcfg.duplicates_per_second = 4.0;
  emu::FrontEnd fe(scenario.samples, fcfg, /*seed=*/17);

  auto mcfg = SmallBlocks();
  mcfg.pipeline.saturation_amplitude = fcfg.clip_amplitude;
  WifiFrames sink;
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  const auto& frames = sink.frames;
  Drive(fe, monitor);

  // 1. Every injected overrun the host could possibly observe (i.e. followed
  //    by at least one more delivery) is reported, position- and size-exact.
  const auto drops = fe.FaultsOf(emu::FaultKind::kDrop);
  std::vector<emu::FaultRecord> observable;
  for (const auto& d : drops) {
    if (d.end_sample < n) observable.push_back(d);
  }
  ASSERT_FALSE(observable.empty());
  ASSERT_EQ(monitor.gaps().size(), observable.size());
  for (std::size_t i = 0; i < observable.size(); ++i) {
    EXPECT_EQ(monitor.gaps()[i].at, observable[i].start_sample);
    EXPECT_EQ(monitor.gaps()[i].missing, observable[i].length());
  }

  // 2. The HealthReport stream accounts for every gap and for the sanitized
  //    (non-finite) input.
  std::uint32_t gap_count = 0;
  std::int64_t gap_samples = 0;
  std::uint64_t sanitized = 0;
  std::int64_t overlap = 0;
  bool saw_saturation = false;
  for (const auto& h : monitor.health()) {
    gap_count += h.gap_count;
    gap_samples += h.gap_samples;
    sanitized += h.sanitized_samples;
    overlap += h.overlap_samples;
    if (h.saturation_fraction > 0.0) saw_saturation = true;
    EXPECT_EQ(h.nonfinite_samples, 0u);  // sanitization runs before pipeline
  }
  std::int64_t injected_gap_samples = 0;
  for (const auto& d : observable) injected_gap_samples += d.length();
  EXPECT_EQ(gap_count, observable.size());
  EXPECT_EQ(gap_samples, injected_gap_samples);
  EXPECT_GT(sanitized, 0u);
  EXPECT_GT(overlap, 0);  // duplicate deliveries were discarded, not decoded
  EXPECT_TRUE(saw_saturation);

  // 3. No decoded frame spans missing samples.
  for (const auto& f : frames) {
    for (const auto& g : monitor.gaps()) {
      EXPECT_FALSE(f.start_sample < g.at && f.end_sample > g.at)
          << "frame [" << f.start_sample << "," << f.end_sample
          << ") spans the gap at " << g.at;
    }
  }

  // 4. >= 90% of the frames in ping exchanges untouched by point faults
  //    decode. (Frames pair through SIFS/DIFS timing, so corruption anywhere
  //    inside an exchange can cost the whole exchange; exchanges are
  //    independent of each other.)
  std::vector<emu::FaultRecord> point_faults = drops;
  for (const auto& b : fe.FaultsOf(emu::FaultKind::kNonFinite)) {
    point_faults.push_back(b);
  }
  std::map<std::uint64_t, std::vector<const emu::TruthRecord*>> exchanges;
  for (const auto& t : scenario.wifi_truth) {
    exchanges[t.packet_id].push_back(&t);
  }
  std::size_t untouched_frames = 0, untouched_decoded = 0;
  const std::int64_t margin = 2'000;  // 250 us guard around each exchange
  for (const auto& [seq, recs] : exchanges) {
    std::int64_t lo = recs.front()->start_sample, hi = recs.front()->end_sample;
    for (const auto* r : recs) {
      lo = std::min(lo, r->start_sample);
      hi = std::max(hi, r->end_sample);
    }
    bool touched = false;
    for (const auto& fr : point_faults) {
      if (Intersects(lo - margin, hi + margin, fr.start_sample,
                     fr.end_sample)) {
        touched = true;
      }
    }
    if (touched) continue;
    for (const auto* r : recs) {
      ++untouched_frames;
      for (const auto& f : frames) {
        if (std::llabs(f.start_sample - r->start_sample) <= 32) {
          ++untouched_decoded;
          break;
        }
      }
    }
  }
  ASSERT_GT(untouched_frames, 0u);
  EXPECT_GE(static_cast<double>(untouched_decoded),
            0.9 * static_cast<double>(untouched_frames))
      << untouched_decoded << " of " << untouched_frames;
}

TEST(StreamingFault, FrameStraddlingGapIsAGapNotAFrame) {
  const auto scenario = MakeScenario(/*pings=*/1, /*seed=*/5);
  // Cut the stream in the middle of the first DATA frame.
  const auto& data = scenario.wifi_truth.front();
  const std::int64_t cut =
      data.start_sample + (data.end_sample - data.start_sample) / 2;
  const std::int64_t resume = cut + 5'000;  // 5k samples lost

  WifiFrames sink;
  auto mcfg = SmallBlocks();
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  const auto& frames = sink.frames;
  const auto all = dsp::const_sample_span(scenario.samples);
  monitor.PushSegment(0, all.first(static_cast<std::size_t>(cut)));
  monitor.PushSegment(resume, all.subspan(static_cast<std::size_t>(resume)));
  monitor.Flush();

  // The gap is reported...
  ASSERT_EQ(monitor.gaps().size(), 1u);
  EXPECT_EQ(monitor.gaps()[0].at, cut);
  EXPECT_EQ(monitor.gaps()[0].missing, resume - cut);
  // ...and the severed frame is not decoded (nothing overlaps the gap).
  for (const auto& f : frames) {
    EXPECT_FALSE(Intersects(f.start_sample, f.end_sample, cut, resume))
        << "decoded a frame across the gap";
    EXPECT_FALSE(std::llabs(f.start_sample - data.start_sample) <= 32)
        << "decoded the severed frame";
  }
}

TEST(StreamingFault, SheddingEngagesAndRecoversWithHysteresis) {
  const auto scenario = MakeScenario(/*pings=*/10, /*seed=*/33);

  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 100'000;  // many small blocks => many decisions
  mcfg.overlap_samples = 40'000;
  mcfg.cpu_budget = 1e-9;        // impossible budget: every block overruns
  mcfg.shed_resume_blocks = 2;
  core::CollectingSink sink;
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  const auto& detections = sink.detections;

  const auto all = dsp::const_sample_span(scenario.samples);
  const std::size_t half = scenario.samples.size() / 2;
  std::size_t pos = 0;
  // First half under an impossible budget: the controller must ratchet to
  // detection-only.
  while (pos < half) {
    const std::size_t nseg = std::min<std::size_t>(50'000, half - pos);
    monitor.Push(all.subspan(pos, nseg));
    pos += nseg;
  }
  EXPECT_EQ(monitor.shed_stage(), core::kShedStageMax);
  const std::size_t blocks_at_engage = monitor.health().size();

  // Second half under a generous budget: stages must be restored, one at a
  // time, each only after shed_resume_blocks consecutive calm blocks.
  monitor.set_cpu_budget(1e9);
  while (pos < scenario.samples.size()) {
    const std::size_t nseg =
        std::min<std::size_t>(50'000, scenario.samples.size() - pos);
    monitor.Push(all.subspan(pos, nseg));
    pos += nseg;
  }
  monitor.Flush();
  EXPECT_EQ(monitor.shed_stage(), 0);

  const auto& health = monitor.health();
  // Engagement ratchets one stage per overloaded block: 0,1,2,3,3,...
  ASSERT_GE(blocks_at_engage, 4u);
  EXPECT_EQ(health[0].shed_stage, 0);
  EXPECT_EQ(health[1].shed_stage, 1);
  EXPECT_EQ(health[2].shed_stage, 2);
  EXPECT_EQ(health[3].shed_stage, 3);
  // Recovery honors hysteresis: each downward transition is preceded by at
  // least shed_resume_blocks blocks at the higher stage.
  int last_stage = core::kShedStageMax;
  int run = 0;
  for (std::size_t i = blocks_at_engage; i < health.size(); ++i) {
    const int stage = health[i].shed_stage;
    if (stage < last_stage) {
      EXPECT_EQ(stage, last_stage - 1) << "skipped a stage at block " << i;
      EXPECT_GE(run, mcfg.shed_resume_blocks)
          << "recovered without hysteresis at block " << i;
      run = 1;
      last_stage = stage;
    } else {
      ++run;
    }
  }
  // Detection-only blocks still produce detections (the paper's cheap mode):
  // the band was active the whole time, so stage-3 blocks saw traffic.
  bool stage3_block_with_activity = false;
  for (const auto& h : health) {
    if (h.shed_stage != core::kShedStageMax) continue;
    for (const auto& d : detections) {
      if (d.start_sample >= h.block_start &&
          d.start_sample <
              h.block_start + static_cast<std::int64_t>(h.block_samples)) {
        stage3_block_with_activity = true;
      }
    }
  }
  EXPECT_TRUE(stage3_block_with_activity);
}

TEST(StreamingFault, ShedStageOneDropsOptInBundles) {
  // Regression: shed stage 1 used to drop "optional detectors" by clearing
  // per-protocol booleans, which opt-in BLE never had — so BLE kept being
  // tagged, dispatched and decoded until stage 3. Stage 1 keeps only the
  // default-enabled bundles.
  const auto scenario = rfdump::testing::CannedMixedScenario(42);
  class StageSink final : public core::ResultSink {
   public:
    // Health arrives first for each block, so `stage` is the stage of the
    // block whose detections and events follow.
    void OnHealth(const core::HealthReport& h) override {
      stage = h.shed_stage;
      ++blocks;
    }
    void OnDetection(const core::Detection& d) override {
      if (d.protocol != core::Protocol::kBleAdv) return;
      ++(stage > 0 ? ble_tags_shed : ble_tags);
      if (blocks == 1) ++ble_tags_first_block;
    }
    void OnEvent(const core::ProtocolEvent& e) override {
      if (e.protocol == core::Protocol::kBleAdv) {
        ++(stage > 0 ? ble_events_shed : ble_events);
      }
    }
    int stage = 0;
    std::size_t blocks = 0, shed_blocks = 0;
    std::size_t ble_tags = 0, ble_tags_shed = 0, ble_tags_first_block = 0;
    std::size_t ble_events = 0, ble_events_shed = 0;
  };
  const auto run = [&](double cpu_budget, StageSink& sink) {
    core::StreamingMonitor::Config mcfg;
    mcfg.pipeline.EnableBundle(core::Protocol::kBleAdv);
    mcfg.block_samples = 100'000;
    mcfg.overlap_samples = 40'000;
    mcfg.cpu_budget = cpu_budget;
    mcfg.sink = &sink;
    core::StreamingMonitor monitor(mcfg);
    monitor.Push(scenario.samples);
    monitor.Flush();
    for (const auto& h : monitor.health()) sink.shed_blocks += h.shed_stage > 0;
  };

  // Control: unshed, the monitor tags and decodes BLE, all after the first
  // block (which every shed run processes at stage 0).
  StageSink control;
  run(0.0, control);
  ASSERT_GT(control.ble_tags, 0u);
  ASSERT_GT(control.ble_events, 0u);
  ASSERT_EQ(control.ble_tags_first_block, 0u);

  auto& reg = rfdump::obs::Registry::Default();
  const char* const forwarded =
      "rfdump_dispatch_forwarded_total{protocol=\"BLE-adv\"}";
  const auto forwarded0 = reg.CounterValue(forwarded);
  StageSink shed;
  run(1e-9, shed);  // impossible budget: stage >= 1 from the second block on
  ASSERT_GT(shed.shed_blocks, 0u);
  EXPECT_EQ(shed.ble_tags_shed, 0u);
  EXPECT_EQ(shed.ble_events_shed, 0u);
#if RFDUMP_OBS_ENABLED
  EXPECT_EQ(reg.CounterValue(forwarded) - forwarded0, 0u)
      << "BLE intervals dispatched while shed";
#else
  (void)forwarded0;
#endif
}

TEST(StreamingFault, DisablingBudgetRestoresFullPipelineImmediately) {
  // Regression: set_cpu_budget(0) used to leave shed_stage_ stuck at its
  // last value until the next processed block happened to run the shedding
  // controller — so an operator turning shedding *off* kept a degraded
  // pipeline. Disabling the budget must restore stage 0 on the spot.
  const auto scenario = MakeScenario(/*pings=*/6, /*seed=*/61);
  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 100'000;
  mcfg.overlap_samples = 40'000;
  mcfg.cpu_budget = 1e-9;  // impossible: ratchets straight to detect-only
  core::StreamingMonitor monitor(mcfg);

  const auto all = dsp::const_sample_span(scenario.samples);
  const std::size_t half = scenario.samples.size() / 2;
  monitor.Push(all.first(half));
  ASSERT_EQ(monitor.shed_stage(), core::kShedStageMax);
  const std::size_t blocks_before = monitor.health().size();

  monitor.set_cpu_budget(0.0);
  // Restored immediately — not after the next block's load sample.
  EXPECT_EQ(monitor.shed_stage(), 0);

  monitor.Push(all.subspan(half));
  monitor.Flush();
  // Every block processed after the operator disabled shedding ran the full
  // pipeline.
  ASSERT_GT(monitor.health().size(), blocks_before);
  for (std::size_t i = blocks_before; i < monitor.health().size(); ++i) {
    EXPECT_EQ(monitor.health()[i].shed_stage, 0);
  }
  EXPECT_EQ(monitor.shed_stage(), 0);
}

TEST(StreamingFault, DispatchCountersAgreeWithHealthAndFaultLog) {
  // The observability counters, the per-block HealthReports, the cumulative
  // HealthSummary and the front end's ground-truth fault log are four views
  // of the same impaired run; they must agree exactly.
  const auto scenario = MakeScenario(/*pings=*/10, /*seed=*/77);
  const auto n = static_cast<std::int64_t>(scenario.samples.size());

  emu::FrontEnd::Config fcfg;
  fcfg.drops_per_second = 10.0;
  fcfg.drop_min_samples = 4'000;
  fcfg.drop_max_samples = 20'000;
  fcfg.nonfinite_per_second = 15.0;
  fcfg.duplicates_per_second = 3.0;
  emu::FrontEnd fe(scenario.samples, fcfg, /*seed=*/23);

  namespace obs = rfdump::obs;
  auto& reg = obs::Registry::Default();
  const std::uint64_t gaps0 = reg.CounterValue("rfdump_streaming_gaps_total");
  const std::uint64_t gap_samples0 =
      reg.CounterValue("rfdump_streaming_gap_samples_total");
  const std::uint64_t sanitized0 =
      reg.CounterValue("rfdump_streaming_sanitized_samples_total");
  const std::uint64_t detections0 =
      reg.CounterValue("rfdump_detect_detections_total");
  const std::uint64_t tagged0 =
      SumProtocolFamily("rfdump_dispatch_tagged_total");
  const std::uint64_t rejected0 =
      SumProtocolFamily("rfdump_dispatch_rejected_total");
  const std::uint64_t vetoed0 =
      SumProtocolFamily("rfdump_dispatch_vetoed_total");
  const std::uint64_t forwarded0 =
      SumProtocolFamily("rfdump_dispatch_forwarded_total");

  core::StreamingMonitor monitor(SmallBlocks());
  Drive(fe, monitor);

  // HealthReport stream vs cumulative summary (nothing evicted here: the run
  // is far shorter than the default history limit).
  const core::HealthSummary& sum = monitor.summary();
  EXPECT_EQ(sum.blocks, monitor.health().size());
  std::uint64_t h_tagged = 0, h_rejected = 0, h_vetoed = 0, h_forwarded = 0,
                h_sanitized = 0;
  std::uint32_t h_gaps = 0;
  std::int64_t h_gap_samples = 0;
  for (const auto& h : monitor.health()) {
    h_tagged += h.tagged_detections;
    h_rejected += h.rejected_detections;
    h_vetoed += h.vetoed_detections;
    h_forwarded += h.forwarded_intervals;
    h_sanitized += h.sanitized_samples;
    h_gaps += h.gap_count;
    h_gap_samples += h.gap_samples;
  }
  EXPECT_EQ(sum.tagged_detections, h_tagged);
  EXPECT_EQ(sum.rejected_detections, h_rejected);
  EXPECT_EQ(sum.vetoed_detections, h_vetoed);
  EXPECT_EQ(sum.forwarded_intervals, h_forwarded);
  EXPECT_EQ(sum.sanitized_samples, h_sanitized);
  EXPECT_EQ(sum.gap_count, h_gaps);
  EXPECT_EQ(sum.gap_samples, h_gap_samples);
  EXPECT_GT(sum.tagged_detections, 0u);
  EXPECT_GT(sum.vetoed_detections, 0u);  // the ping air raises false BT tags
  EXPECT_GT(sum.forwarded_intervals, 0u);

  // Summary vs the front end's ground-truth fault log.
  std::vector<emu::FaultRecord> observable;
  for (const auto& d : fe.FaultsOf(emu::FaultKind::kDrop)) {
    if (d.end_sample < n) observable.push_back(d);
  }
  std::int64_t injected_gap_samples = 0;
  for (const auto& d : observable) injected_gap_samples += d.length();
  EXPECT_EQ(sum.gap_count, observable.size());
  EXPECT_EQ(sum.gap_samples, injected_gap_samples);

#if RFDUMP_OBS_ENABLED
  // Registry deltas vs the summary: the counters tick in the same code paths
  // that fill the reports, so any disagreement means double- or un-counted
  // events.
  EXPECT_EQ(reg.CounterValue("rfdump_streaming_gaps_total") - gaps0,
            sum.gap_count);
  EXPECT_EQ(reg.CounterValue("rfdump_streaming_gap_samples_total") -
                gap_samples0,
            static_cast<std::uint64_t>(sum.gap_samples));
  EXPECT_EQ(reg.CounterValue("rfdump_streaming_sanitized_samples_total") -
                sanitized0,
            sum.sanitized_samples);
  const std::uint64_t d_tagged =
      SumProtocolFamily("rfdump_dispatch_tagged_total") - tagged0;
  const std::uint64_t d_rejected =
      SumProtocolFamily("rfdump_dispatch_rejected_total") - rejected0;
  const std::uint64_t d_vetoed =
      SumProtocolFamily("rfdump_dispatch_vetoed_total") - vetoed0;
  const std::uint64_t d_forwarded =
      SumProtocolFamily("rfdump_dispatch_forwarded_total") - forwarded0;
  EXPECT_EQ(d_tagged, sum.tagged_detections);
  EXPECT_EQ(d_rejected, sum.rejected_detections);
  EXPECT_EQ(d_vetoed, sum.vetoed_detections);
  EXPECT_EQ(d_forwarded, sum.forwarded_intervals);
  // Every detection is tagged, rejected or vetoed at dispatch.
  EXPECT_EQ(d_tagged + d_rejected + d_vetoed,
            reg.CounterValue("rfdump_detect_detections_total") - detections0);
#else
  (void)gaps0; (void)gap_samples0; (void)sanitized0; (void)detections0;
  (void)tagged0; (void)rejected0; (void)vetoed0; (void)forwarded0;
#endif
}

TEST(StreamingFault, HealthHistoryRingEvictsButSummaryPersists) {
  // Regression for the unbounded health() growth: a long-running monitor
  // keeps only the configured window of per-block reports, while summary()
  // still accounts for every block ever processed.
  const auto scenario = MakeScenario(/*pings=*/6, /*seed=*/9);
  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 100'000;
  mcfg.overlap_samples = 40'000;
  mcfg.health_history_limit = 4;
  core::StreamingMonitor monitor(mcfg);
  monitor.Push(scenario.samples);
  monitor.Flush();

  EXPECT_EQ(monitor.health().size(), 4u);
  EXPECT_GT(monitor.summary().blocks, 4u);
  EXPECT_GT(monitor.summary().samples, 0u);
  EXPECT_GT(monitor.summary().max_block_load, 0.0);
  EXPECT_GT(monitor.summary().MeanLoad(), 0.0);
  // The retained window is the most recent blocks: its first entry starts
  // later than the stream did.
  EXPECT_GT(monitor.health().front().block_start, 0);
}

TEST(StreamingFault, BudgetKeepsLoadNearBudgetOnBusyBand) {
  // Qualitative load check: with shedding enabled at a realistic budget, the
  // per-block load after the controller settles must not sit above budget
  // while the full pipeline would have (stage > 0 implies the controller is
  // actually trading fidelity for CPU).
  const auto scenario = MakeScenario(/*pings=*/8, /*seed=*/44);
  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 200'000;
  mcfg.overlap_samples = 80'000;
  mcfg.cpu_budget = 0.05;  // deliberately tight for this hardware
  core::StreamingMonitor monitor(mcfg);
  monitor.Push(scenario.samples);
  monitor.Flush();
  ASSERT_FALSE(monitor.health().empty());
  // The controller reacted: either the pipeline fit the budget outright or
  // shedding engaged at some point.
  bool engaged = false;
  for (const auto& h : monitor.health()) {
    if (h.shed_stage > 0) engaged = true;
  }
  bool fit = true;
  for (const auto& h : monitor.health()) {
    if (h.block_load > mcfg.cpu_budget) fit = false;
  }
  EXPECT_TRUE(engaged || fit);
}

}  // namespace
