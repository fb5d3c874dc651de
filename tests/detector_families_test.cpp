// The two detector families (DESIGN.md §15). The pipeline's
// timing_detectors/phase_detectors switches apply to every bundle's hooks
// alike, whatever the bundle; and the phase hooks (on_peak, claims_peak) are
// pure functions of one peak, so their verdicts do not depend on the order
// in which peaks reach them — the precondition for running them off the
// serial detect path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rfdump/core/peaks.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

namespace {

/// An oven radiating for 0.1 s, then LIFS-spaced ZigBee reports: air on
/// which both the microwave and the ZigBee timing detectors fire.
dsp::SampleVec OvenThenZigbee() {
  rfdump::emu::Ether ether(rfdump::emu::Ether::Config{}, 11);
  const auto oven_len = static_cast<std::int64_t>(0.1 * dsp::kSampleRateHz);
  rfdump::traffic::GenerateMicrowave(ether, {}, 8000, oven_len);
  rfdump::traffic::ZigbeeConfig zb;
  zb.count = 8;
  zb.snr_db = 20.0;
  zb.interval_us = 0.0;  // LIFS-spaced, so the ZigBee timing detector fires
  const auto zs =
      rfdump::traffic::GenerateZigbee(ether, zb, 16000 + oven_len);
  return ether.Render(zs.end_sample + 8000);
}

std::size_t CountTags(const core::MonitorReport& r, const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(r.detections.begin(), r.detections.end(),
                    [&](const core::Detection& d) { return d.detector == name; }));
}

core::MonitorReport RunOvenThenZigbee(bool timing, bool phase) {
  static const dsp::SampleVec x = OvenThenZigbee();
  core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(core::Protocol::kZigbee);
  cfg.EnableBundle(core::Protocol::kMicrowave);
  cfg.timing_detectors = timing;
  cfg.phase_detectors = phase;
  return core::RFDumpPipeline(cfg).Process(x);
}

TEST(DetectorFamilies, TimingSwitchSilencesEveryBundlesTimingHook) {
  const auto on = RunOvenThenZigbee(/*timing=*/true, /*phase=*/true);
  ASSERT_GT(CountTags(on, "zigbee-ifs-timing"), 0u);
  ASSERT_GT(CountTags(on, "mw-ac-timing"), 0u);

  const auto off = RunOvenThenZigbee(/*timing=*/false, /*phase=*/true);
  EXPECT_EQ(CountTags(off, "zigbee-ifs-timing"), 0u);
  EXPECT_EQ(CountTags(off, "mw-ac-timing"), 0u);
  for (const auto& d : off.detections) {
    EXPECT_FALSE(std::string(d.detector).ends_with("-timing")) << d.detector;
  }
}

TEST(DetectorFamilies, PhaseSwitchSilencesEveryBundlesPhaseHook) {
  const auto x = rfdump::testing::CannedMixedScenario(2).samples;
  core::RFDumpPipeline::Config cfg;
  for (const auto& b : core::ProtocolRegistry::Instance().bundles()) {
    cfg.EnableBundle(b.protocol);
  }
  cfg.phase_detectors = false;
  const auto r = core::RFDumpPipeline(cfg).Process(x);
  ASSERT_FALSE(r.detections.empty());
  for (const auto& d : r.detections) {
    const std::string name = d.detector;
    EXPECT_EQ(name.find("phase"), std::string::npos) << name;
    EXPECT_NE(name, "ble-gfsk");
  }
  EXPECT_EQ(r.health.back().vetoed_detections, 0u);
}

/// Every peak of one canned capture with its clamped sample range, as the
/// pipeline hands them to the phase hooks.
struct PeakWithSpan {
  core::Peak peak;
  dsp::const_sample_span span;
};

std::vector<PeakWithSpan> CannedPeaks(const dsp::SampleVec& samples) {
  const dsp::const_sample_span x(samples);
  core::PeakDetector detector;
  std::vector<core::Peak> peaks;
  for (std::size_t at = 0; at < x.size(); at += core::kChunkSamples) {
    const std::size_t n = std::min(core::kChunkSamples, x.size() - at);
    const auto done =
        detector.PushChunk(x.subspan(at, n), static_cast<std::int64_t>(at))
            .completed;
    peaks.insert(peaks.end(), done.begin(), done.end());
  }
  const auto last = detector.Flush();
  peaks.insert(peaks.end(), last.begin(), last.end());
  std::vector<PeakWithSpan> out;
  const auto size = static_cast<std::int64_t>(x.size());
  for (const auto& p : peaks) {
    const auto s = std::clamp<std::int64_t>(p.start_sample, 0, size);
    const auto e = std::clamp<std::int64_t>(p.end_sample, 0, size);
    if (e <= s) continue;
    out.push_back({p, x.subspan(static_cast<std::size_t>(s),
                                static_cast<std::size_t>(e - s))});
  }
  return out;
}

/// One peak's phase verdicts: the on_peak tag (or "-") and the claim.
std::string Verdict(const core::ProtocolDetectors& hooks,
                    const PeakWithSpan& p) {
  std::string out = "-";
  if (hooks.on_peak) {
    if (const auto d = hooks.on_peak(p.peak, p.span)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s %lld %lld %.6f %s",
                    core::ProtocolName(d->protocol),
                    static_cast<long long>(d->start_sample),
                    static_cast<long long>(d->end_sample),
                    static_cast<double>(d->confidence), d->detector);
      out = buf;
    }
  }
  if (hooks.claims_peak) out += hooks.claims_peak(p.span) ? " claim" : " open";
  return out;
}

TEST(DetectorFamilies, PhaseHooksIgnorePeakOrder) {
  const auto scenario = rfdump::testing::CannedMixedScenario(3);
  const auto peaks = CannedPeaks(scenario.samples);
  ASSERT_GT(peaks.size(), 20u);
  std::size_t tagged = 0, claimed = 0, bundles = 0;
  for (const auto& bundle : core::ProtocolRegistry::Instance().bundles()) {
    if (!bundle.make_detectors) continue;
    const core::ProtocolDetectors hooks = bundle.make_detectors();
    if (!hooks.on_peak && !hooks.claims_peak) continue;
    ++bundles;
    std::vector<std::string> forward(peaks.size());
    for (std::size_t i = 0; i < peaks.size(); ++i) {
      forward[i] = Verdict(hooks, peaks[i]);
    }
    std::vector<std::string> reverse(peaks.size());
    const core::ProtocolDetectors fresh = bundle.make_detectors();
    for (std::size_t i = peaks.size(); i-- > 0;) {
      reverse[i] = Verdict(fresh, peaks[i]);
    }
    std::vector<std::string> again(peaks.size());
    for (std::size_t i = 0; i < peaks.size(); ++i) {
      again[i] = Verdict(hooks, peaks[i]);
    }
    for (std::size_t i = 0; i < peaks.size(); ++i) {
      EXPECT_EQ(reverse[i], forward[i]) << bundle.cli_name << " peak " << i;
      EXPECT_EQ(again[i], forward[i]) << bundle.cli_name << " peak " << i;
      if (forward[i][0] != '-') ++tagged;
      if (forward[i].ends_with(" claim")) ++claimed;
    }
  }
  // 802.11, Bluetooth and BLE carry phase hooks; the canned mix holds
  // traffic each of them tags, and 1 Mbps 802.11 frames the DBPSK claim
  // covers whole.
  EXPECT_GE(bundles, 3u);
  EXPECT_GT(tagged, 0u);
  EXPECT_GT(claimed, 0u);
}

}  // namespace
