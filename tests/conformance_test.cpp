// Conformance harness tests (DESIGN.md §11): scenario-builder seed
// determinism, truth-oracle scoring, the naive-vs-RFDump differential sweep
// (the acceptance gate: zero frame-set mismatches across >= 10 seeds), and
// the quarantine round trip (dump a poisoned interval, reload it with
// testing::ReplayFile, reproduce the recorded outcome).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/testing/differential.hpp"
#include "rfdump/testing/oracle.hpp"
#include "rfdump/testing/replay.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/trace/trace.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;
namespace rft = rfdump::testing;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- scenarios

TEST(Scenario, SameSeedRendersBitIdentical) {
  const auto a = rft::CannedMixedScenario(42);
  const auto b = rft::CannedMixedScenario(42);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  ASSERT_GT(a.samples.size(), 0u);
  EXPECT_EQ(0, std::memcmp(a.samples.data(), b.samples.data(),
                           a.samples.size() * sizeof(dsp::cfloat)));
  ASSERT_EQ(a.truth.size(), b.truth.size());
  for (std::size_t i = 0; i < a.truth.size(); ++i) {
    EXPECT_EQ(a.truth[i].protocol, b.truth[i].protocol);
    EXPECT_EQ(a.truth[i].start_sample, b.truth[i].start_sample);
    EXPECT_EQ(a.truth[i].end_sample, b.truth[i].end_sample);
    EXPECT_EQ(a.truth[i].snr_db, b.truth[i].snr_db);
  }
}

TEST(Scenario, DifferentSeedsRenderDifferentStreams) {
  const auto a = rft::CannedMixedScenario(1);
  const auto b = rft::CannedMixedScenario(2);
  ASSERT_EQ(a.samples.size(), b.samples.size());  // same recipe, same layout
  EXPECT_NE(0, std::memcmp(a.samples.data(), b.samples.data(),
                           a.samples.size() * sizeof(dsp::cfloat)));
}

TEST(Scenario, CannedMixHasAllThreeProtocols) {
  const auto s = rft::CannedMixedScenario(7);
  std::size_t wifi = 0, bt = 0, zb = 0;
  for (const auto& t : s.truth) {
    if (!t.visible) continue;
    if (t.protocol == core::Protocol::kWifi80211b) ++wifi;
    if (t.protocol == core::Protocol::kBluetooth) ++bt;
    if (t.protocol == core::Protocol::kZigbee) ++zb;
  }
  EXPECT_GT(wifi, 0u);
  EXPECT_GT(bt, 0u);
  EXPECT_GT(zb, 0u);
  EXPECT_FALSE(s.impaired());
}

TEST(Scenario, ImpairedBuilderProducesSegmentsAndFaultLog) {
  emu::FrontEnd::Config fe;
  fe.drops_per_second = 50.0;
  fe.nonfinite_per_second = 50.0;
  const auto s = rft::ScenarioBuilder(9, "impaired")
                     .WifiPing({}, 8'000)
                     .Impair(fe)
                     .Render();
  EXPECT_TRUE(s.impaired());
  EXPECT_FALSE(s.segments.empty());
  // Impairment is deterministic from the master seed too.
  const auto s2 = rft::ScenarioBuilder(9, "impaired")
                      .WifiPing({}, 8'000)
                      .Impair(fe)
                      .Render();
  ASSERT_EQ(s.faults.size(), s2.faults.size());
  ASSERT_EQ(s.segments.size(), s2.segments.size());
}

TEST(Scenario, SnrOffsetLowersDecodeRate) {
  // The SNR-sweep knob must actually move the needle: a -30 dB offset
  // drops every burst into the noise.
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 4;
  const auto clean =
      rft::ScenarioBuilder(11, "snr").WifiPing(wifi, 8'000).Render();
  const auto buried = rft::ScenarioBuilder(11, "snr")
                          .SnrOffsetDb(-30.0)
                          .WifiPing(wifi, 8'000)
                          .Render();
  core::RFDumpPipeline pipeline;
  const auto wifi_decodes = [&](const rft::RenderedScenario& sc) {
    const auto events = pipeline.Process(sc.samples).events;
    return std::count_if(events.begin(), events.end(), [](const auto& e) {
      return e.protocol == core::Protocol::kWifi80211b;
    });
  };
  const auto clean_frames = wifi_decodes(clean);
  const auto buried_frames = wifi_decodes(buried);
  EXPECT_GT(clean_frames, 0);
  EXPECT_LT(buried_frames, clean_frames);
}

// ------------------------------------------------------------------- oracle

TEST(Oracle, ScoresRfdumpPipelineOnMixedScenario) {
  const auto s = rft::CannedMixedScenario(3);
  core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(core::Protocol::kZigbee);
  const auto report = core::RFDumpPipeline(cfg).Process(s.samples);
  const auto score = rft::ScoreReport(s, report);

  const auto& wifi = score.Of(core::Protocol::kWifi80211b);
  EXPECT_GT(wifi.truth_packets, 0u);
  EXPECT_GE(wifi.Recall(), 0.75) << score.Summary();
  const auto& bt = score.Of(core::Protocol::kBluetooth);
  EXPECT_GT(bt.truth_packets, 0u);
  EXPECT_GE(bt.Recall(), 0.75) << score.Summary();
  const auto& zb = score.Of(core::Protocol::kZigbee);
  EXPECT_GT(zb.truth_packets, 0u);
  EXPECT_GE(zb.Recall(), 0.75) << score.Summary();

  // Every failure line carries the reproducing seed.
  EXPECT_NE(score.Summary().find("seed=3"), std::string::npos);
  EXPECT_EQ(score.seed, 3u);
}

TEST(Oracle, EmptyReportScoresAsAllMisses) {
  const auto s = rft::CannedMixedScenario(4);
  const auto score = rft::ScoreReport(s, core::MonitorReport{});
  for (const auto& c : score.protocols) {
    EXPECT_EQ(c.matched, 0u);
    EXPECT_EQ(c.missed, c.truth_packets);
    EXPECT_DOUBLE_EQ(c.Recall(), 0.0);
    EXPECT_DOUBLE_EQ(c.MissRate(), 1.0);
    EXPECT_DOUBLE_EQ(c.Precision(), 1.0);  // no decodes, no false claims
  }
}

TEST(Oracle, SpuriousDecodeLowersPrecision) {
  const auto s = rft::CannedMixedScenario(5);
  core::MonitorReport report;
  core::ProtocolEvent fake;
  fake.protocol = core::Protocol::kWifi80211b;
  // Place the "decode" in the tail padding where no truth record lives.
  fake.start_sample = s.duration() - 4'000;
  fake.end_sample = s.duration() - 2'000;
  report.events.push_back(fake);
  const auto score = rft::ScoreReport(s, report);
  const auto& wifi = score.Of(core::Protocol::kWifi80211b);
  EXPECT_EQ(wifi.spurious, 1u);
  EXPECT_DOUBLE_EQ(wifi.Precision(), 0.0);
}

TEST(Oracle, CrcPolicyFiltersBadDecodes) {
  rft::MatchPolicy strict;
  strict.require_crc_ok = true;
  const auto s = rft::CannedMixedScenario(6);
  core::MonitorReport report;
  core::ProtocolEvent bad;
  bad.protocol = core::Protocol::kWifi80211b;
  bad.start_sample = 0;
  bad.end_sample = 1'000;
  bad.crc_ok = false;
  report.events.push_back(bad);
  const auto score = rft::ScoreReport(s, report, strict);
  EXPECT_EQ(score.Of(core::Protocol::kWifi80211b).decoded, 0u);
}

// ------------------------------------------------------- differential oracle

TEST(Differential, TenSeedSweepHasNoFrameSetMismatches) {
  // The PR acceptance gate: across >= 10 seeds of the canned mixed scenario,
  // the naive baseline (both gate modes) and RFDump (widths 1 and N) must
  // decode the same frame sets, modulo the paper's allowed detector false
  // positives; rfdump@1 vs rfdump@N must match exactly.
  static constexpr std::uint64_t kSeeds[] = {101, 102, 103, 104, 105,
                                             106, 107, 108, 109, 110};
  const auto results = rft::RunDifferentialSweep(kSeeds, {});
  ASSERT_EQ(results.size(), std::size(kSeeds));
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.Summary();
    // The architectures actually decoded traffic — an all-empty sweep would
    // pass vacuously.
    EXPECT_GT(r.decodes[0], 0u) << r.Summary();
    EXPECT_GT(r.decodes[2], 0u) << r.Summary();
    // rfdump@1 and rfdump@N decode counts agree (full fingerprint equality
    // is asserted inside RunDifferential).
    EXPECT_EQ(r.decodes[2], r.decodes[3]) << r.Summary();
  }
}

TEST(Differential, ForcedScalarVsForcedSimdFingerprintsBitIdentical) {
  // The SIMD dispatch acceptance gate (DESIGN.md §16): with every registered
  // bundle enabled, a forced-scalar run and a forced-best-tier run of the
  // full pipeline must produce byte-identical result fingerprints on every
  // seed. Skips (trivially passes) on hosts whose best tier is scalar.
  namespace simd = rfdump::dsp::simd;
  const simd::Tier best = simd::DetectBestTier();
  static constexpr std::uint64_t kSeeds[] = {301, 302, 303, 304, 305,
                                             306, 307, 308, 309, 310};
  auto run_with_tier = [](const rft::RenderedScenario& s, simd::Tier tier) {
    simd::ForceTier(tier);
    core::RFDumpPipeline::Config cfg;
    for (const auto& bundle : core::ProtocolRegistry::Instance().bundles()) {
      cfg.EnableBundle(bundle.protocol);
    }
    core::RFDumpPipeline pipeline(cfg);
    auto report = pipeline.Process(s.samples);
    simd::ClearForcedTier();
    return rft::ExactFingerprint(report);
  };
  std::size_t nonempty = 0;
  for (const std::uint64_t seed : kSeeds) {
    const auto scenario = rft::CannedMixedScenario(seed);
    const auto scalar_fp = run_with_tier(scenario, simd::Tier::kScalar);
    for (int t = 1; t < simd::kTierCount; ++t) {
      const auto tier = static_cast<simd::Tier>(t);
      if (!simd::TierSupported(tier)) continue;
      const auto vec_fp = run_with_tier(scenario, tier);
      ASSERT_EQ(scalar_fp.size(), vec_fp.size())
          << "seed=" << seed << " tier=" << simd::TierName(tier);
      for (std::size_t i = 0; i < scalar_fp.size(); ++i) {
        ASSERT_EQ(scalar_fp[i], vec_fp[i])
            << "seed=" << seed << " tier=" << simd::TierName(tier)
            << " line " << i;
      }
    }
    nonempty += !scalar_fp.empty();
  }
  // The sweep decoded something — an all-empty sweep would pass vacuously.
  EXPECT_GT(nonempty, 0u);
  // And the differential actually compared a vector tier on this host (the
  // CI runners are all x86-64, where SSE2 is architecturally guaranteed).
  EXPECT_TRUE(best == simd::Tier::kScalar || simd::TierSupported(best));
}

TEST(Differential, SummaryCarriesReproducingSeed) {
  const auto r = rft::RunDifferential(rft::CannedMixedScenario(55), {});
  EXPECT_NE(r.Summary().find("seed=55"), std::string::npos);
}

TEST(Differential, TruthBackedMissIsAHardMismatch) {
  // Sanity-check the classifier: disable the RFDump runs' wifi demodulator
  // via the shared analysis config? No — the config is shared by all four
  // runs, so instead assert the mechanism on a crafted result: a scenario
  // whose wifi bursts decode everywhere must produce zero truth-backed
  // one-sided clusters, and flipping tolerate_spurious must only ever move
  // entries between `mismatches` and `tolerated`.
  rft::DifferentialPolicy strict;
  strict.tolerate_spurious = false;
  const auto lenient = rft::RunDifferential(rft::CannedMixedScenario(77), {});
  const auto harsh = rft::RunDifferential(rft::CannedMixedScenario(77), strict);
  EXPECT_EQ(lenient.mismatches.size() + lenient.tolerated.size(),
            harsh.mismatches.size() + harsh.tolerated.size());
  EXPECT_TRUE(harsh.tolerated.empty());
}

// ------------------------------------------------------- quarantine roundtrip

TEST(QuarantineRoundTrip, DumpReloadAndReproduceOutcome) {
  const auto s = rft::CannedMixedScenario(88);

  // Poison every 802.11 analysis interval, stream the scenario through the
  // supervised monitor, and dump the quarantine ring like the CLI's
  // `--quarantine DIR` does.
  core::StreamingMonitor::Config mcfg;
  mcfg.block_samples = 400'000;
  mcfg.supervisor.fault_hook = [](core::Protocol p, std::int64_t,
                                  rfdump::util::WorkBudget&) {
    if (p == core::Protocol::kWifi80211b) {
      throw std::runtime_error("injected demodulator crash");
    }
  };
  core::StreamingMonitor monitor(mcfg);
  monitor.Push(s.samples);
  monitor.Flush();
  ASSERT_GT(monitor.supervisor().counts().exception, 0u);

  const fs::path dir =
      fs::path(::testing::TempDir()) / "rfdump_quarantine_roundtrip";
  fs::remove_all(dir);
  const std::size_t written =
      rft::WriteQuarantineDir(dir.string(), monitor.supervisor());
  ASSERT_GT(written, 0u);

  // Reload: every record comes back with its sidecar metadata intact.
  const auto replays = rft::LoadQuarantineDir(dir.string());
  ASSERT_EQ(replays.size(), written);
  for (const auto& r : replays) {
    EXPECT_TRUE(r.has_sidecar) << r.iq_path;
    EXPECT_EQ(r.protocol, core::Protocol::kWifi80211b);
    EXPECT_EQ(r.outcome, core::Outcome::kException);
    EXPECT_EQ(r.error, "injected demodulator crash");
    EXPECT_EQ(r.samples.size(), r.snapshot_samples);
    EXPECT_GT(r.samples.size(), 0u);
    EXPECT_DOUBLE_EQ(r.sample_rate_hz, dsp::kSampleRateHz);
    EXPECT_LT(r.stream_start, r.stream_end);
  }

  // Replay the first snapshot through a freshly supervised pipeline with the
  // same poisoned demodulator: the recorded outcome must reproduce (the
  // snapshot still contains the 802.11 burst that triggered dispatch).
  core::Supervisor::Config scfg;
  scfg.fault_hook = mcfg.supervisor.fault_hook;
  core::Supervisor supervisor(scfg);
  core::RFDumpPipeline::Config pcfg;
  pcfg.supervisor = &supervisor;
  const auto report = core::RFDumpPipeline(pcfg).Process(replays[0].samples);
  EXPECT_GT(supervisor.counts().exception, 0u)
      << "replayed snapshot no longer reproduces the quarantined failure";
  for (const auto& e : report.events) {
    EXPECT_NE(e.protocol, core::Protocol::kWifi80211b);
  }

  fs::remove_all(dir);
}

TEST(QuarantineRoundTrip, LoadReplayWithoutSidecar) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rfdump_replay_bare";
  fs::create_directories(dir);
  const auto s = rft::CannedMixedScenario(12);
  const std::string iq = (dir / "bare.iq").string();
  rfdump::trace::WriteIqTrace(iq, dsp::const_sample_span(s.samples).first(1024));
  const auto r = rft::LoadReplay(iq);
  EXPECT_FALSE(r.has_sidecar);
  EXPECT_EQ(r.samples.size(), 1024u);
  fs::remove_all(dir);
}

TEST(QuarantineRoundTrip, JsonEscapeRoundTripsControlCharacters) {
  EXPECT_EQ(rft::JsonEscape("plain"), "plain");
  EXPECT_EQ(rft::JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(rft::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
