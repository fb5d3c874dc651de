// The dispatch veto (DESIGN.md §15): a timing tag on a peak that the 802.11
// DBPSK detector matches end to end, and that the tagged protocol's own phase
// detector did not tag, is logged but not dispatched. Oracle scenarios with
// every bundle enabled; each test pins one condition of the rule.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/dsp/barker.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/mac80211/frames.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phybt/modulator.hpp"
#include "rfdump/testing/oracle.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;
namespace phybt = rfdump::phybt;
namespace phy80211 = rfdump::phy80211;
namespace mac80211 = rfdump::mac80211;
namespace traffic = rfdump::traffic;

constexpr std::int64_t kSlot = 5'000;  // 625 us at 8 Msps
constexpr double kSnrDb = 25.0;

core::MonitorReport RunAllBundles(dsp::const_sample_span x) {
  core::RFDumpPipeline::Config cfg;
  for (const auto& b : core::ProtocolRegistry::Instance().bundles()) {
    cfg.EnableBundle(b.protocol);
  }
  core::RFDumpPipeline pipeline(cfg);
  return pipeline.Process(x);
}

std::size_t DispatchedOf(const core::MonitorReport& r, core::Protocol p) {
  return static_cast<std::size_t>(
      std::count_if(r.dispatched.begin(), r.dispatched.end(),
                    [p](const core::Detection& d) { return d.protocol == p; }));
}

/// The detection `detector` raised on the peak starting at `start`, or null.
const core::Detection* TagAt(const core::MonitorReport& r,
                             std::string_view detector, std::int64_t start) {
  for (const auto& d : r.detections) {
    if (d.start_sample == start && detector == d.detector) return &d;
  }
  return nullptr;
}

/// A Bluetooth DH3 burst on the first clock from `clk` that hops into the
/// captured band.
phybt::BtBurst VisibleBtBurst(std::uint32_t clk) {
  phybt::PacketHeader hdr;
  hdr.type = phybt::PacketType::kDh3;
  std::vector<std::uint8_t> payload(120);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(3 * i + 1);
  }
  for (;; clk += 2) {
    auto burst =
        phybt::ModulatePacket({0x2A96EF, 0x47}, hdr, payload, clk);
    if (!burst.samples.empty()) return burst;
  }
}

/// One Bluetooth packet alone, then four slots later one peak holding an
/// 802.11b 1 Mbps frame carrying `mpdu` and, right behind it, a Bluetooth DH3
/// packet. The Bluetooth timing detector tags the second peak because its
/// start is slot-aligned with the first; the GFSK phase detector does not,
/// because the peak opens with 802.11 chips.
struct WifiThenBt {
  dsp::SampleVec x;
  std::int64_t peak_start = 0;  // where the 802.11 frame starts
  std::int64_t bt_start = 0;
  std::int64_t bt_end = 0;
};

WifiThenBt RenderWifiThenBt(std::span<const std::uint8_t> mpdu) {
  emu::Ether ether(emu::Ether::Config{}, /*seed=*/7);
  WifiThenBt s;
  const auto anchor = VisibleBtBurst(0);
  emu::TruthRecord bt_meta;
  bt_meta.protocol = core::Protocol::kBluetooth;
  ether.AddBurst(anchor.samples, 8'000, kSnrDb, bt_meta);

  s.peak_start = 8'000 + 4 * kSlot;
  const auto frame =
      phy80211::Modulator().Modulate(mpdu, phy80211::Rate::k1Mbps);
  emu::TruthRecord wifi_meta;
  wifi_meta.protocol = core::Protocol::kWifi80211b;
  ether.AddBurst(frame, s.peak_start, kSnrDb, wifi_meta);

  const auto bt = VisibleBtBurst(100);
  s.bt_start = s.peak_start + static_cast<std::int64_t>(frame.size());
  s.bt_end = s.bt_start + static_cast<std::int64_t>(bt.samples.size());
  ether.AddBurst(bt.samples, s.bt_start, kSnrDb, bt_meta);
  s.x = ether.Render(s.bt_end + 16'000);
  return s;
}

/// True when a CRC-valid Bluetooth decode lies inside [start, end).
bool BtDecodedWithin(const core::MonitorReport& r, std::int64_t start,
                     std::int64_t end) {
  return std::any_of(r.events.begin(), r.events.end(),
                     [&](const core::ProtocolEvent& e) {
                       return e.protocol == core::Protocol::kBluetooth &&
                              e.crc_ok && e.start_sample >= start &&
                              e.end_sample <= end;
                     });
}

/// The peak that opens with the 802.11 frame: its Bluetooth timing tag and
/// its DBPSK tag. Both tags start where the peak does (within the peak
/// detector's onset resolution of the frame start).
struct SharedPeak {
  const core::Detection* bt_timing = nullptr;
  const core::Detection* dbpsk = nullptr;
};

SharedPeak FindSharedPeak(const core::MonitorReport& r,
                          const WifiThenBt& s) {
  for (const auto& d : r.detections) {
    if (std::string_view(d.detector) != "bt-slot-timing") continue;
    if (std::llabs(d.start_sample - s.peak_start) > 64) continue;
    return {&d, TagAt(r, "dbpsk-phase", d.start_sample)};
  }
  return {};
}

}  // namespace

// (a) Saturated 802.11b air: the timing detectors still tag Bluetooth and
// ZigBee on it, but every such tag sits on a peak the DBPSK pattern covers
// whole, so no Bluetooth or ZigBee unit runs. The 802.11 decodes are pinned.
TEST(DispatchVeto, Saturated80211AirDispatchesNoBtOrZigbee) {
  emu::Ether ether(emu::Ether::Config{}, /*seed=*/5);
  traffic::WifiBroadcastConfig flood;
  flood.count = 24;
  const auto f = traffic::GenerateBroadcastFlood(ether, flood, 8'000);
  traffic::WifiPingConfig ping;
  ping.rate = phy80211::Rate::k2Mbps;
  ping.count = 12;
  ping.interval_us = 6'300.0;
  const auto p = traffic::GenerateUnicastPing(ether, ping, f.end_sample + 400);
  const auto x = ether.Render(p.end_sample + 16'000);

  const auto r = RunAllBundles(x);
  std::size_t bt_tags = 0, zigbee_tags = 0;
  for (const auto& d : r.detections) {
    bt_tags += d.protocol == core::Protocol::kBluetooth;
    zigbee_tags += d.protocol == core::Protocol::kZigbee;
  }
  ASSERT_GT(bt_tags + zigbee_tags, 0u) << "scenario raises no false tags";
  ASSERT_FALSE(r.health.empty());
  EXPECT_EQ(r.health.back().vetoed_detections, bt_tags + zigbee_tags);
  EXPECT_EQ(DispatchedOf(r, core::Protocol::kBluetooth), 0u);
  EXPECT_EQ(DispatchedOf(r, core::Protocol::kZigbee), 0u);

  // The 802.11 decode set: every frame of the flood and the pings, each
  // with a valid FCS, and nothing else.
  const auto score = rfdump::testing::ScoreReport(
      ether.truth(), static_cast<std::int64_t>(x.size()), r);
  const auto& wifi = score.Of(core::Protocol::kWifi80211b);
  EXPECT_EQ(wifi.truth_packets, 24u + 4 * 12u);
  EXPECT_EQ(wifi.matched, wifi.truth_packets);
  EXPECT_EQ(wifi.spurious, 0u);
  std::size_t wifi_events = 0;
  for (const auto& e : r.events) {
    ASSERT_EQ(e.protocol, core::Protocol::kWifi80211b);
    EXPECT_TRUE(e.crc_ok);
    ++wifi_events;
  }
  EXPECT_EQ(wifi_events, wifi.truth_packets);
}

// (b) A short 802.11 frame opens the peak and a Bluetooth packet follows:
// the DBPSK tag stops where the Bluetooth chips begin, so nothing claims the
// peak and the Bluetooth timing tag is dispatched and decodes.
TEST(DispatchVeto, BtBehindShort80211FrameStillDecodes) {
  // A 14-byte ACK: 304 us.
  const auto s =
      RenderWifiThenBt(mac80211::BuildAckFrame({0x02, 0, 0, 0, 0, 1}));
  const auto r = RunAllBundles(s.x);
  const auto peak = FindSharedPeak(r, s);
  ASSERT_NE(peak.bt_timing, nullptr);
  EXPECT_GE(peak.bt_timing->end_sample, s.bt_end - 64);
  EXPECT_EQ(TagAt(r, "gfsk-phase", peak.bt_timing->start_sample), nullptr);
  ASSERT_NE(peak.dbpsk, nullptr);
  EXPECT_LT(peak.dbpsk->end_sample, peak.bt_timing->end_sample);

  EXPECT_EQ(r.health.back().vetoed_detections, 0u);
  EXPECT_TRUE(BtDecodedWithin(r, s.bt_start - 64, s.bt_end + 64));
}

// (c) An 802.11 frame longer than the DBPSK scan cap (512 us) opens the
// peak: its tag reaches the peak end without looking past the cap, but the
// Bluetooth packet behind it breaks the pattern, so the whole-peak check
// keeps the Bluetooth timing tag.
TEST(DispatchVeto, BtBehindLong80211FrameStillDispatched) {
  // A data frame with a 60-byte body: 896 us.
  const std::vector<std::uint8_t> body(60, 0x5A);
  const auto s = RenderWifiThenBt(mac80211::BuildDataFrame(
      {0x02, 0, 0, 0, 0, 1}, {0x02, 0, 0, 0, 0, 2}, {0x02, 0, 0, 0, 0, 1}, 7,
      body));
  ASSERT_GE(s.bt_start - s.peak_start, 600 * 8);
  const auto r = RunAllBundles(s.x);
  const auto peak = FindSharedPeak(r, s);
  ASSERT_NE(peak.bt_timing, nullptr);
  EXPECT_EQ(TagAt(r, "gfsk-phase", peak.bt_timing->start_sample), nullptr);
  ASSERT_NE(peak.dbpsk, nullptr);
  EXPECT_EQ(peak.dbpsk->end_sample, peak.bt_timing->end_sample);

  EXPECT_EQ(r.health.back().vetoed_detections, 0u);
  const bool dispatched = std::any_of(
      r.dispatched.begin(), r.dispatched.end(), [&](const core::Detection& d) {
        return d.protocol == core::Protocol::kBluetooth &&
               d.start_sample <= s.bt_start && d.end_sample >= s.bt_end;
      });
  EXPECT_TRUE(dispatched);
  EXPECT_TRUE(BtDecodedWithin(r, s.bt_start - 64, s.bt_end + 64));
}

// (d) A burst both phase detectors accept: a carrier plus a slightly weaker
// real Barker-chipped component. Its phase never leaves zero (GFSK-smooth),
// while its lag-1 products follow the Barker flip pattern (DBPSK). The
// second burst is slot-aligned with the first, so it carries a Bluetooth
// timing tag on a peak the DBPSK detector claims whole; gfsk-phase tagged it
// too, so the tag is not vetoed.
TEST(DispatchVeto, PeakTaggedByOwnPhaseDetectorIsNeverVetoed) {
  dsp::SampleVec burst(3'280);  // 410 us
  for (std::size_t n = 0; n < burst.size(); ++n) {
    const float chip = static_cast<float>(dsp::kBarker11[(n % 8) * 11 / 8]);
    burst[n] = dsp::cfloat(1.1f + chip, 0.0f);
  }
  emu::Ether ether(emu::Ether::Config{}, /*seed=*/3);
  emu::TruthRecord meta;
  ether.AddBurst(burst, 8'000, kSnrDb, meta);
  const std::int64_t second = 8'000 + 4 * kSlot;
  ether.AddBurst(burst, second, kSnrDb, meta);
  const auto x = ether.Render(second + 24'000);

  const auto r = RunAllBundles(x);
  const core::Detection* timing = nullptr;
  for (const auto& d : r.detections) {
    if (std::string_view(d.detector) == "bt-slot-timing") timing = &d;
  }
  ASSERT_NE(timing, nullptr);
  EXPECT_LE(std::llabs(timing->start_sample - second), 64);
  const auto* gfsk = TagAt(r, "gfsk-phase", timing->start_sample);
  const auto* dbpsk = TagAt(r, "dbpsk-phase", timing->start_sample);
  ASSERT_NE(gfsk, nullptr);
  ASSERT_NE(dbpsk, nullptr);
  EXPECT_EQ(dbpsk->end_sample, timing->end_sample);
  const auto peak = dsp::const_sample_span(x).subspan(
      static_cast<std::size_t>(timing->start_sample),
      static_cast<std::size_t>(timing->end_sample - timing->start_sample));
  EXPECT_TRUE(core::DbpskPhaseDetector().MatchesWholePeak(peak));

  EXPECT_EQ(r.health.back().vetoed_detections, 0u);
}
