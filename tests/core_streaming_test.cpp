// StreamingMonitor tests: segment-fed monitoring must find exactly what the
// one-shot batch pipeline finds, with no duplicates or losses at block
// boundaries, regardless of segment sizes.

#include <gtest/gtest.h>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

namespace {

struct Scenario {
  dsp::SampleVec samples;
  std::size_t wifi_expected;
};

Scenario MakeScenario(std::size_t pings, std::uint64_t seed) {
  rfdump::emu::Ether ether(rfdump::emu::Ether::Config{}, seed);
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = pings;
  cfg.interval_us = 25000.0;
  cfg.snr_db = 25.0;
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  Scenario s;
  s.samples = ether.Render(session.end_sample + 8000);
  s.wifi_expected = pings * 4;
  return s;
}

core::StreamingMonitor::Config SmallBlocks() {
  core::StreamingMonitor::Config cfg;
  cfg.block_samples = 400'000;   // 50 ms blocks: many boundaries per scenario
  cfg.overlap_samples = 160'000;
  return cfg;
}

/// Start sample of every emitted 802.11 decode, in emission order.
class WifiStarts final : public core::ResultSink {
 public:
  void OnEvent(const core::ProtocolEvent& e) override {
    if (e.protocol == core::Protocol::kWifi80211b) {
      starts.push_back(e.start_sample);
    }
  }
  std::vector<std::int64_t> starts;
};

TEST(Streaming, MatchesBatchResults) {
  const auto scenario = MakeScenario(10, 1);

  WifiStarts batch;
  const dsp::const_sample_span x(scenario.samples);
  core::RFDumpPipeline pipeline;
  (void)core::AnalyzeDetections(pipeline.Detect(x), x, nullptr, &batch);

  WifiStarts streamed;
  auto cfg = SmallBlocks();
  cfg.sink = &streamed;
  core::StreamingMonitor monitor(cfg);
  monitor.Push(scenario.samples);
  monitor.Flush();

  ASSERT_EQ(streamed.starts.size(), batch.starts.size());
  for (std::size_t i = 0; i < streamed.starts.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(streamed.starts[i]),
                static_cast<double>(batch.starts[i]), 32.0)
        << i;
  }
}

TEST(Streaming, RaggedSegmentsNoDuplicatesNoLosses) {
  const auto scenario = MakeScenario(8, 2);
  WifiStarts sink;
  auto cfg = SmallBlocks();
  cfg.sink = &sink;
  core::StreamingMonitor monitor(cfg);
  const auto& starts = sink.starts;
  // Push in deliberately awkward segment sizes.
  std::size_t pos = 0;
  const std::size_t sizes[] = {1, 999, 100'000, 7, 350'000, 123'456};
  std::size_t i = 0;
  while (pos < scenario.samples.size()) {
    const std::size_t n =
        std::min(sizes[i++ % std::size(sizes)], scenario.samples.size() - pos);
    monitor.Push(
        dsp::const_sample_span(scenario.samples).subspan(pos, n));
    pos += n;
  }
  monitor.Flush();

  EXPECT_EQ(starts.size(), scenario.wifi_expected);
  // Strictly increasing starts => no duplicates.
  for (std::size_t k = 1; k < starts.size(); ++k) {
    EXPECT_GT(starts[k], starts[k - 1]) << k;
  }
}

TEST(Streaming, FrameOnBlockBoundaryReportedOnce) {
  // Engineer a frame that straddles the first block boundary.
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = 1;
  cfg.snr_db = 25.0;
  core::StreamingMonitor::Config mcfg = SmallBlocks();
  // Frame is ~35k samples; start it 10k before the boundary.
  const auto start =
      static_cast<std::int64_t>(mcfg.block_samples) - 10'000;
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, start);
  const auto x = ether.Render(session.end_sample + 8000);

  WifiStarts sink;
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  monitor.Push(x);
  monitor.Flush();
  // DATA + ACK + DATA + ACK, each exactly once.
  EXPECT_EQ(sink.starts.size(), 4u);
}

TEST(Streaming, CostsAccumulate) {
  const auto scenario = MakeScenario(4, 3);
  core::StreamingMonitor monitor(SmallBlocks());
  monitor.Push(scenario.samples);
  monitor.Flush();
  // Overlap regions are processed twice, so total processed samples exceed
  // the trace length by (blocks - 1) x overlap.
  EXPECT_GE(monitor.samples_processed(), scenario.samples.size());
  EXPECT_GT(monitor.CpuOverRealTime(), 0.0);
  const auto& peak = monitor.costs()[core::Stage::kPeak];
  EXPECT_GT(peak.wall_ns, 0u);
  EXPECT_EQ(peak.samples, monitor.samples_processed());
}

TEST(Streaming, FlushOnEmptyIsNoop) {
  core::CollectingSink sink;
  core::StreamingMonitor::Config cfg;
  cfg.sink = &sink;
  core::StreamingMonitor monitor(cfg);
  monitor.Flush();
  EXPECT_TRUE(sink.events.empty());
  EXPECT_TRUE(sink.health.empty());
  EXPECT_EQ(monitor.samples_processed(), 0u);
}

TEST(Streaming, FlushTwiceEmitsNothingTwice) {
  const auto scenario = MakeScenario(3, 7);
  WifiStarts sink;
  auto cfg = SmallBlocks();
  cfg.sink = &sink;
  core::StreamingMonitor monitor(cfg);
  monitor.Push(scenario.samples);
  monitor.Flush();
  const auto after_first = sink.starts.size();
  const auto processed = monitor.samples_processed();
  EXPECT_EQ(after_first, scenario.wifi_expected);
  monitor.Flush();  // must be a no-op, not a re-emit
  EXPECT_EQ(sink.starts.size(), after_first);
  EXPECT_EQ(monitor.samples_processed(), processed);
  // The stream can continue after a flush: positions stay absolute.
  monitor.Push(scenario.samples);  // contiguous continuation (arbitrary data)
  monitor.Flush();
  EXPECT_GT(monitor.samples_processed(), processed);
}

TEST(Streaming, SegmentLargerThanBlockPlusOverlap) {
  // One Push bigger than block + overlap must be chopped into the same block
  // schedule, with no duplicate or lost frames.
  const auto scenario = MakeScenario(6, 9);
  auto cfg = SmallBlocks();
  ASSERT_GT(scenario.samples.size(),
            cfg.block_samples + cfg.overlap_samples);
  WifiStarts sink;
  cfg.sink = &sink;
  core::StreamingMonitor monitor(cfg);
  const auto& starts = sink.starts;
  monitor.Push(scenario.samples);  // single oversized segment
  monitor.Flush();
  EXPECT_EQ(starts.size(), scenario.wifi_expected);
  for (std::size_t k = 1; k < starts.size(); ++k) {
    EXPECT_GT(starts[k], starts[k - 1]) << k;
  }
}

}  // namespace
