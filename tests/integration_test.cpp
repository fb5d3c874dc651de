// End-to-end integration: emulated ether -> RFDump / naive pipelines ->
// scoring against ground truth. These tests are small versions of the
// paper's microbenchmarks (Figures 6-8, Table 3) plus trace I/O round trips.

#include <algorithm>
#include <fstream>

#include <gtest/gtest.h>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/mac80211/frames.hpp"
#include "rfdump/trace/trace.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;
namespace traffic = rfdump::traffic;

namespace {

std::vector<core::ProtocolEvent> EventsOf(const core::MonitorReport& report,
                                          core::Protocol protocol) {
  std::vector<core::ProtocolEvent> out;
  for (const auto& e : report.events) {
    if (e.protocol == protocol) out.push_back(e);
  }
  return out;
}

// --------------------------------------------------------- 802.11 unicast

TEST(Integration, UnicastPingDetectedBySifsTiming) {
  emu::Ether ether;
  traffic::WifiPingConfig cfg;
  cfg.count = 10;  // 40 frames
  cfg.snr_db = 25.0;
  const auto session = traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline::Config pcfg;
  pcfg.analysis.demodulate = false;
  core::RFDumpPipeline pipeline(pcfg);
  const auto report = pipeline.Process(x);

  const auto timing = core::ScoreDetections(
      ether.truth(), core::Protocol::kWifi80211b, report.detections,
      static_cast<std::int64_t>(x.size()), "80211-sifs-timing");
  EXPECT_EQ(timing.truth_packets, 40u);
  // SIFS timing must find essentially everything at 25 dB.
  EXPECT_LE(timing.missed, 1u);

  const auto phase = core::ScoreDetections(
      ether.truth(), core::Protocol::kWifi80211b, report.detections,
      static_cast<std::int64_t>(x.size()), "dbpsk-phase");
  EXPECT_LE(phase.missed, 2u);  // ACKs are short; allow slight slack
}

TEST(Integration, UnicastPingLowSnrMissed) {
  emu::Ether ether;
  traffic::WifiPingConfig cfg;
  cfg.count = 5;
  cfg.snr_db = 1.0;  // below the detection knee
  const auto session = traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline::Config pcfg;
  pcfg.analysis.demodulate = false;
  core::RFDumpPipeline pipeline(pcfg);
  const auto report = pipeline.Process(x);
  const auto s = core::ScoreDetections(
      ether.truth(), core::Protocol::kWifi80211b, report.detections,
      static_cast<std::int64_t>(x.size()));
  EXPECT_GT(s.MissRate(), 0.5);
}

TEST(Integration, UnicastPingDemodulatedEndToEnd) {
  emu::Ether ether;
  traffic::WifiPingConfig cfg;
  cfg.count = 5;
  cfg.snr_db = 25.0;
  const auto session = traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline pipeline;  // with demodulation
  const auto report = pipeline.Process(x);
  // 10 data frames + 10 ACKs; demodulator should decode nearly all of them.
  const auto frames = EventsOf(report, core::Protocol::kWifi80211b);
  EXPECT_GE(frames.size(), 16u);
  std::size_t data_frames = 0, fcs_ok = 0, icmp_seen = 0;
  for (const auto& f : frames) {
    if (f.crc_ok) ++fcs_ok;
    const auto mac = rfdump::mac80211::ParseFrame(f.payload);
    if (mac && mac->kind == rfdump::mac80211::FrameKind::kData) {
      ++data_frames;
      if (rfdump::mac80211::ParseIcmpEchoSeq(mac->body)) ++icmp_seen;
    }
  }
  EXPECT_GE(fcs_ok, 16u);
  EXPECT_GE(data_frames, 8u);
  EXPECT_EQ(icmp_seen, data_frames);  // every data frame carries our ICMP body
}

// --------------------------------------------------------- 802.11 broadcast

TEST(Integration, BroadcastFloodDetectedByDifsTiming) {
  emu::Ether ether;
  traffic::WifiBroadcastConfig cfg;
  cfg.count = 30;
  cfg.snr_db = 25.0;
  const auto session = traffic::GenerateBroadcastFlood(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline::Config pcfg;
  pcfg.analysis.demodulate = false;
  core::RFDumpPipeline pipeline(pcfg);
  const auto report = pipeline.Process(x);
  const auto s = core::ScoreDetections(
      ether.truth(), core::Protocol::kWifi80211b, report.detections,
      static_cast<std::int64_t>(x.size()), "80211-difs-timing");
  EXPECT_EQ(s.truth_packets, 30u);
  // First packet has no predecessor gap; everything else must be caught.
  EXPECT_LE(s.missed, 2u);
}

// ----------------------------------------------------------------- l2ping

TEST(Integration, L2PingDetectedByTimingAndPhase) {
  emu::Ether ether;
  traffic::L2PingConfig cfg;
  cfg.count = 120;  // 240 packets, ~24 visible
  cfg.snr_db = 25.0;
  const auto session = traffic::GenerateL2Ping(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline::Config pcfg;
  pcfg.analysis.demodulate = false;
  core::RFDumpPipeline pipeline(pcfg);
  const auto report = pipeline.Process(x);

  const auto visible = core::VisibleTruthWithin(
      ether.truth(), core::Protocol::kBluetooth,
      static_cast<std::int64_t>(x.size()));
  ASSERT_GT(visible.size(), 10u);  // ~8/79 of 240
  ASSERT_LT(visible.size(), 60u);

  const auto phase = core::ScoreDetections(
      ether.truth(), core::Protocol::kBluetooth, report.detections,
      static_cast<std::int64_t>(x.size()), "gfsk-phase");
  EXPECT_EQ(phase.truth_packets, visible.size());
  EXPECT_LE(phase.MissRate(), 0.05);
}

TEST(Integration, L2PingDemodulatedWithSizesMatchingSeq) {
  emu::Ether ether;
  traffic::L2PingConfig cfg;
  cfg.count = 60;
  cfg.snr_db = 30.0;
  const auto session = traffic::GenerateL2Ping(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline pipeline;
  const auto report = pipeline.Process(x);
  const auto visible = core::VisibleTruthWithin(
      ether.truth(), core::Protocol::kBluetooth,
      static_cast<std::int64_t>(x.size()));
  ASSERT_GT(visible.size(), 4u);
  // Most visible packets decode, and the payload size encodes the sequence
  // number (the paper's ground-truthing trick).
  const auto packets = EventsOf(report, core::Protocol::kBluetooth);
  EXPECT_GE(packets.size(), visible.size() * 6 / 10);
  for (const auto& p : packets) {
    if (!p.crc_ok) continue;
    const std::size_t size = p.payload.size();
    EXPECT_GE(size, 225u);
    EXPECT_LT(size, 340u);
  }
}

// ------------------------------------------------------------- traffic mix

// Counts visible truth packets of `protocol` that overlap a visible packet
// of a different protocol (collisions — the paper discounts these, §5.1.5).
std::size_t CountCollisions(const std::vector<emu::TruthRecord>& truth,
                            core::Protocol protocol,
                            std::int64_t total_samples) {
  std::size_t collisions = 0;
  for (const auto& a : truth) {
    if (!a.visible || a.protocol != protocol || a.end_sample > total_samples) {
      continue;
    }
    for (const auto& b : truth) {
      if (!b.visible || b.protocol == protocol) continue;
      if (a.start_sample < b.end_sample && b.start_sample < a.end_sample) {
        ++collisions;
        break;
      }
    }
  }
  return collisions;
}

TEST(Integration, TrafficMixSeparatesProtocols) {
  emu::Ether ether;
  traffic::WifiPingConfig wcfg;
  wcfg.count = 8;
  wcfg.snr_db = 25.0;
  wcfg.interval_us = 60000.0;  // keep utilization moderate
  traffic::L2PingConfig bcfg;
  bcfg.count = 70;
  bcfg.snr_db = 25.0;
  const auto ws = traffic::GenerateUnicastPing(ether, wcfg, 8000);
  const auto bs = traffic::GenerateL2Ping(ether, bcfg, 16000);
  const auto end = std::max(ws.end_sample, bs.end_sample) + 8000;
  const auto x = ether.Render(end);
  const auto total = static_cast<std::int64_t>(x.size());

  core::RFDumpPipeline::Config pcfg;
  pcfg.analysis.demodulate = false;
  core::RFDumpPipeline pipeline(pcfg);
  const auto report = pipeline.Process(x);

  const auto wifi = core::ScoreDetections(
      ether.truth(), core::Protocol::kWifi80211b, report.detections, total);
  const auto bt = core::ScoreDetections(
      ether.truth(), core::Protocol::kBluetooth, report.detections, total);
  // Collisions appear as misses (no collision handling in the detectors,
  // like the paper); discounting them, misses should be near zero.
  const auto wifi_collisions =
      CountCollisions(ether.truth(), core::Protocol::kWifi80211b, total);
  const auto bt_collisions =
      CountCollisions(ether.truth(), core::Protocol::kBluetooth, total);
  EXPECT_LE(wifi.missed, wifi_collisions + 2);
  EXPECT_LE(bt.missed, bt_collisions + 2);
  // False-positive sample rates stay small.
  EXPECT_LE(wifi.FalsePositiveRate(total), 0.05);
  EXPECT_LE(bt.FalsePositiveRate(total), 0.05);
}

// ------------------------------------------------------------ architecture

TEST(Integration, RFDumpCheaperThanNaive) {
  emu::Ether ether;
  traffic::WifiPingConfig cfg;
  cfg.count = 4;
  cfg.snr_db = 25.0;
  cfg.interval_us = 30000.0;  // low utilization
  const auto session = traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::NaivePipeline naive;
  const auto naive_report = naive.Process(x);
  core::RFDumpPipeline rfdump;
  const auto rf_report = rfdump.Process(x);

  // Both find the data frames...
  EXPECT_GE(EventsOf(rf_report, core::Protocol::kWifi80211b).size(), 6u);
  EXPECT_GE(EventsOf(naive_report, core::Protocol::kWifi80211b).size(), 6u);
  // ...but RFDump forwards far fewer samples and burns far less CPU.
  EXPECT_LT(core::CoverageSamples(rf_report.dispatched),
            core::CoverageSamples(naive_report.dispatched) / 2);
  EXPECT_LT(rf_report.costs.Seconds(), naive_report.costs.Seconds() / 2.0);
}

TEST(Integration, EnergyGatedBetweenNaiveAndRFDump) {
  emu::Ether ether;
  traffic::WifiPingConfig cfg;
  cfg.count = 4;
  cfg.snr_db = 25.0;
  cfg.interval_us = 30000.0;
  const auto session = traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::NaivePipeline::Config ecfg;
  ecfg.energy_gate = true;
  core::NaivePipeline energy(ecfg);
  const auto energy_report = energy.Process(x);
  core::NaivePipeline naive;
  const auto naive_report = naive.Process(x);

  EXPECT_LT(energy_report.costs.Seconds(), naive_report.costs.Seconds());
  EXPECT_GE(EventsOf(energy_report, core::Protocol::kWifi80211b).size(), 6u);
}

TEST(Integration, EnergyGateDispatchesEveryPeakOfALongCapture) {
  // 5000 bursts, more than the peak detector's 4096-entry history ring: the
  // energy gate must dispatch the first bursts too, not only the newest.
  constexpr std::size_t kBursts = 5000, kGap = 600, kBurst = 300;
  dsp::SampleVec x(kBursts * (kGap + kBurst), dsp::cfloat{0.0f, 0.0f});
  for (std::size_t b = 0; b < kBursts; ++b) {
    const std::size_t at = b * (kGap + kBurst) + kGap;
    std::fill_n(x.begin() + static_cast<std::ptrdiff_t>(at), kBurst,
                dsp::cfloat{4.0f, 0.0f});
  }
  core::NaivePipeline::Config cfg;
  cfg.energy_gate = true;
  cfg.analysis.demodulate = false;
  const auto report = core::NaivePipeline(cfg).Process(x);

  // Gaps are shorter than two 40 us (320-sample) pads, so every burst merges
  // into one interval per protocol, starting one pad before the first burst.
  std::size_t wifi = 0;
  for (const auto& d : report.dispatched) {
    if (d.protocol != core::Protocol::kWifi80211b) continue;
    ++wifi;
    EXPECT_EQ(d.start_sample, static_cast<std::int64_t>(kGap) - 320);
    EXPECT_EQ(d.end_sample, static_cast<std::int64_t>(x.size()));
  }
  EXPECT_EQ(wifi, 1u);
}

// ----------------------------------------------------------------- trace IO

TEST(Integration, TraceRoundTrip) {
  emu::Ether ether;
  traffic::WifiPingConfig cfg;
  cfg.count = 2;
  const auto session = traffic::GenerateUnicastPing(ether, cfg, 1000);
  const auto x = ether.Render(session.end_sample + 1000);

  const std::string iq_path = "/tmp/rfdump_test_trace.iq";
  const std::string gt_path = "/tmp/rfdump_test_trace.gt";
  rfdump::trace::WriteIqTrace(iq_path, x);
  rfdump::trace::WriteGroundTruth(gt_path, ether.truth());

  double rate = 0.0;
  const auto samples = rfdump::trace::ReadIqTrace(iq_path, &rate);
  EXPECT_DOUBLE_EQ(rate, dsp::kSampleRateHz);
  ASSERT_EQ(samples.size(), x.size());
  EXPECT_EQ(samples[1234], x[1234]);

  const auto truth = rfdump::trace::ReadGroundTruth(gt_path);
  ASSERT_EQ(truth.size(), ether.truth().size());
  EXPECT_EQ(truth[0].kind, ether.truth()[0].kind);
  EXPECT_EQ(truth[0].start_sample, ether.truth()[0].start_sample);
  EXPECT_EQ(truth[0].protocol, ether.truth()[0].protocol);
}

TEST(Integration, TraceRejectsGarbage) {
  const std::string path = "/tmp/rfdump_bad_trace.iq";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a trace";
  }
  EXPECT_THROW((void)rfdump::trace::ReadIqTrace(path), std::runtime_error);
  EXPECT_THROW((void)rfdump::trace::ReadGroundTruth(path),
               std::runtime_error);
  EXPECT_THROW((void)rfdump::trace::ReadIqTrace("/nonexistent/x.iq"),
               std::runtime_error);
}

// ------------------------------------------------------------------ ether

TEST(Integration, MediumUtilizationComputed) {
  std::vector<emu::TruthRecord> truth(2);
  truth[0].start_sample = 0;
  truth[0].end_sample = 250;
  truth[1].start_sample = 200;
  truth[1].end_sample = 500;  // overlap counted once
  EXPECT_NEAR(emu::MediumUtilization(truth, 1000), 0.5, 1e-9);
  truth[1].visible = false;
  EXPECT_NEAR(emu::MediumUtilization(truth, 1000), 0.25, 1e-9);
  EXPECT_EQ(emu::MediumUtilization({}, 1000), 0.0);
}

TEST(Integration, EtherSnrIsRespected) {
  emu::Ether ether;
  dsp::SampleVec burst(5000, dsp::cfloat{1.0f, 0.0f});
  emu::TruthRecord meta;
  meta.protocol = core::Protocol::kWifi80211b;
  ether.AddBurst(burst, 2000, 20.0, meta);
  const auto x = ether.Render(10000);
  // Mean power inside the burst: noise (1.0) + signal (100).
  double in_power = 0.0;
  for (std::size_t i = 2500; i < 6500; ++i) in_power += std::norm(x[i]);
  in_power /= 4000.0;
  EXPECT_NEAR(in_power, 101.0, 8.0);
  // Outside: just noise.
  double out_power = 0.0;
  for (std::size_t i = 8000; i < 10000; ++i) out_power += std::norm(x[i]);
  out_power /= 2000.0;
  EXPECT_NEAR(out_power, 1.0, 0.2);
}

}  // namespace
