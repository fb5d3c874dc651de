// Protocol-specific detector tests: timing detectors on synthetic peak
// streams, phase detectors on real modulated bursts.

#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/core/timing_detectors.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/phybt/hopping.hpp"
#include "rfdump/util/crc.hpp"
#include "rfdump/util/rng.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace phy = rfdump::phy80211;
namespace bt = rfdump::phybt;
using rfdump::util::Xoshiro256;

namespace {

std::int64_t Us(double us) { return dsp::MicrosToSamples(us); }

core::Peak MakePeak(std::int64_t start, std::int64_t len,
                    float power = 10.0f) {
  core::Peak p;
  p.start_sample = start;
  p.end_sample = start + len;
  p.mean_power = power;
  p.peak_power = power;
  return p;
}

// ------------------------------------------------------------- wifi timing

TEST(WifiTiming, SifsPairTagged) {
  core::WifiTimingDetector det;
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(4192)),                        // DATA
      MakePeak(Us(4192 + 10), Us(304)),             // ACK after SIFS
  };
  const auto d = det.OnPeaks(peaks);
  ASSERT_EQ(d.size(), 2u);  // both the data frame and the ACK are tagged
  EXPECT_EQ(d[0].protocol, core::Protocol::kWifi80211b);
  EXPECT_STREQ(d[0].detector, "80211-sifs-timing");
  EXPECT_EQ(d[0].start_sample, 0);
  EXPECT_EQ(d[1].start_sample, Us(4202));
}

TEST(WifiTiming, DifsBackoffTagged) {
  core::WifiTimingDetector det;
  // Gap = DIFS + 5 slots = 50 + 100 = 150 us.
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(1000)),
      MakePeak(Us(1000 + 150), Us(1000)),
  };
  const auto d = det.OnPeaks(peaks);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_STREQ(d[0].detector, "80211-difs-timing");
}

TEST(WifiTiming, WrongGapNotTagged) {
  core::WifiTimingDetector det;
  // 37 us: neither SIFS nor DIFS+k*20.
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(1000)),
      MakePeak(Us(1000 + 37), Us(1000)),
  };
  EXPECT_TRUE(det.OnPeaks(peaks).empty());
}

TEST(WifiTiming, BackoffBeyondCwRejected) {
  core::WifiTimingDetector det;
  // DIFS + 100 slots is beyond the CW=64 bound.
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(1000)),
      MakePeak(Us(1000 + 50 + 100 * 20), Us(1000)),
  };
  EXPECT_TRUE(det.OnPeaks(peaks).empty());
}

TEST(WifiTiming, ChainOfSifsPairsTagsEveryPair) {
  core::WifiTimingDetector det;
  // DATA -SIFS- ACK -SIFS- DATA: two matching pairs; the shared middle peak
  // is tagged twice and later collapsed by MergeDetections.
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(500)),
      MakePeak(Us(510), Us(300)),
      MakePeak(Us(820), Us(500)),
  };
  const auto d = det.OnPeaks(peaks);
  EXPECT_EQ(d.size(), 4u);
  const auto merged = core::MergeDetections(d, 0, Us(2000));
  EXPECT_EQ(merged.size(), 3u);
}

// -------------------------------------------------------- bluetooth timing

TEST(BtTiming, SlotAlignedPeaksTagged) {
  core::BluetoothTimingDetector det;
  std::vector<core::Peak> peaks;
  // 6 packets in consecutive 625 us slots (~366 us bursts).
  for (int i = 0; i < 6; ++i) {
    peaks.push_back(MakePeak(Us(625.0 * i), Us(366)));
  }
  const auto d = det.OnPeaks(peaks);
  // First packet has no predecessor: the paper reports exactly this
  // first-packet miss (Fig. 8 floor). 5 of 6 tagged.
  EXPECT_EQ(d.size(), 5u);
  for (const auto& det_r : d) {
    EXPECT_EQ(det_r.protocol, core::Protocol::kBluetooth);
  }
}

TEST(BtTiming, CacheHitsGrowConfidence) {
  core::BluetoothTimingDetector det;
  std::vector<core::Peak> peaks;
  for (int i = 0; i < 10; ++i) {
    peaks.push_back(MakePeak(Us(625.0 * 5 * i), Us(2870)));  // DH5 every 5 slots
  }
  const auto d = det.OnPeaks(peaks);
  ASSERT_EQ(d.size(), 9u);
  EXPECT_GT(d.back().confidence, d.front().confidence);
  EXPECT_GT(det.cache_hits(), 0u);
}

TEST(BtTiming, LongPeakNeverBluetooth) {
  core::BluetoothTimingDetector det;
  // 4 ms bursts: longer than DH5, cannot be Bluetooth even if slot-aligned.
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(4000)),
      MakePeak(Us(5 * 625), Us(4000)),
  };
  EXPECT_TRUE(det.OnPeaks(peaks).empty());
}

TEST(BtTiming, MisalignedPeaksNotTagged) {
  core::BluetoothTimingDetector det;
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(366)),
      MakePeak(Us(700), Us(366)),   // 700 us: not a slot multiple
      MakePeak(Us(1500), Us(366)),  // 800 us after: not aligned either
  };
  EXPECT_TRUE(det.OnPeaks(peaks).empty());
}

// -------------------------------------------------------- microwave timing

TEST(MicrowaveTiming, PeriodicLongBurstsTagged) {
  core::MicrowaveTimingDetector det;
  std::vector<core::Peak> peaks;
  for (int i = 0; i < 4; ++i) {
    peaks.push_back(MakePeak(Us(16667.0 * i), Us(8333), 5.0f));
  }
  const auto d = det.OnPeaks(peaks);
  EXPECT_EQ(d.size(), 4u);  // first tagged retroactively with the second
  for (const auto& r : d) {
    EXPECT_EQ(r.protocol, core::Protocol::kMicrowave);
  }
}

TEST(MicrowaveTiming, VaryingPowerRejected) {
  core::MicrowaveTimingDetector det;
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(8333), 5.0f),
      MakePeak(Us(16667), Us(8333), 50.0f),  // 10x power jump: not an oven
  };
  EXPECT_TRUE(det.OnPeaks(peaks).empty());
}

TEST(MicrowaveTiming, ShortBurstsIgnored) {
  core::MicrowaveTimingDetector det;
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(500), 5.0f),
      MakePeak(Us(16667), Us(500), 5.0f),
  };
  EXPECT_TRUE(det.OnPeaks(peaks).empty());
}

// ----------------------------------------------------------- zigbee timing

TEST(ZigbeeTiming, LifsGapTagged) {
  core::ZigbeeTimingDetector det;
  std::vector<core::Peak> peaks = {
      MakePeak(0, Us(1472)),
      MakePeak(Us(1472 + 640), Us(1472)),
  };
  const auto d = det.OnPeaks(peaks);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].protocol, core::Protocol::kZigbee);
}

// ------------------------------------------------------------------- phase

dsp::SampleVec WifiBurst(double snr_db, std::uint64_t seed,
                         phy::Rate rate = phy::Rate::k1Mbps) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> mpdu(200);
  for (auto& b : mpdu) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  phy::Modulator mod;
  auto burst = mod.Modulate(mpdu, rate);
  rfdump::channel::ScaleToPower(burst, dsp::DbToPower(snr_db));
  rfdump::channel::AddAwgn(burst, 1.0, rng);
  return burst;
}

dsp::SampleVec BtBurstAtChannel(int vis_idx, double snr_db,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  rfdump::util::BitVec bits(800);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  auto burst = bt::GfskModulate(bits);
  dsp::Nco nco(bt::VisibleIndexOffsetHz(vis_idx), dsp::kSampleRateHz);
  nco.Mix(burst);
  rfdump::channel::ScaleToPower(burst, dsp::DbToPower(snr_db));
  rfdump::channel::AddAwgn(burst, 1.0, rng);
  return burst;
}

TEST(DbpskPhase, DetectsWifiRejectsBluetooth) {
  const core::DbpskPhaseDetector det;
  const auto wifi = WifiBurst(25.0, 42);
  const auto p1 = MakePeak(0, static_cast<std::int64_t>(wifi.size()));
  ASSERT_TRUE(det.OnPeak(p1, wifi).has_value());

  const auto btb = BtBurstAtChannel(3, 25.0, 43);
  const auto p2 = MakePeak(0, static_cast<std::int64_t>(btb.size()));
  EXPECT_FALSE(det.OnPeak(p2, btb).has_value());
  EXPECT_GT(core::DbpskPhaseDetector::FirstWindowScore(wifi),
            core::DbpskPhaseDetector::FirstWindowScore(btb));
}

TEST(DbpskPhase, DetectsAcrossHighSnrs) {
  const core::DbpskPhaseDetector det;
  for (double snr : {12.0, 15.0, 20.0, 30.0}) {
    const auto burst = WifiBurst(snr, 100 + static_cast<int>(snr));
    const auto p = MakePeak(0, static_cast<std::int64_t>(burst.size()));
    EXPECT_TRUE(det.OnPeak(p, burst).has_value()) << snr << " dB";
  }
}

TEST(DbpskPhase, RejectsNoise) {
  const core::DbpskPhaseDetector det;
  Xoshiro256 rng(77);
  dsp::SampleVec noise(4000);
  rfdump::channel::AddAwgn(noise, 10.0, rng);
  const auto p = MakePeak(0, 4000);
  EXPECT_FALSE(det.OnPeak(p, noise).has_value());
}

TEST(DbpskPhase, PatternHasExpectedStructure) {
  const auto pattern = core::BarkerPhaseFlipPattern();
  // Exactly one slot is data-dependent (0); the rest are +/-1.
  int zeros = 0, flips = 0;
  for (float v : pattern) {
    if (v == 0.0f) ++zeros;
    if (v == -1.0f) ++flips;
  }
  EXPECT_EQ(zeros, 1);
  // Barker-11 has 6 sign changes among the chips the 8 Msps grid visits.
  EXPECT_GE(flips, 4);
}

TEST(GfskPhase, DetectsBluetoothRejectsWifi) {
  const core::GfskPhaseDetector det;
  const auto btb = BtBurstAtChannel(5, 25.0, 50);
  const auto p1 = MakePeak(0, static_cast<std::int64_t>(btb.size()));
  const auto d = det.OnPeak(p1, btb);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->protocol, core::Protocol::kBluetooth);
  EXPECT_EQ(core::GfskPhaseDetector::Classify(p1, btb)->channel, 5);

  const auto wifi = WifiBurst(25.0, 51);
  const auto p2 = MakePeak(0, static_cast<std::int64_t>(wifi.size()));
  EXPECT_FALSE(det.OnPeak(p2, wifi).has_value());
}

TEST(GfskPhase, ChannelIdentifiedFromFrequencyOffset) {
  const core::GfskPhaseDetector det;
  for (int ch : {0, 2, 4, 7}) {
    const auto burst = BtBurstAtChannel(ch, 30.0, 60 + ch);
    const auto p = MakePeak(0, static_cast<std::int64_t>(burst.size()));
    ASSERT_TRUE(det.OnPeak(p, burst).has_value()) << "ch " << ch;
    EXPECT_EQ(core::GfskPhaseDetector::Classify(p, burst)->channel, ch);
  }
}

TEST(GfskPhase, RejectsNoise) {
  const core::GfskPhaseDetector det;
  Xoshiro256 rng(70);
  dsp::SampleVec noise(4000);
  rfdump::channel::AddAwgn(noise, 10.0, rng);
  const auto p = MakePeak(0, 4000);
  EXPECT_FALSE(det.OnPeak(p, noise).has_value());
}

TEST(PskOrderClassifier, SeparatesBpskFromQpsk) {
  // Build differential PSK symbol streams at 8 samples/symbol.
  Xoshiro256 rng(80);
  const std::size_t sps = 8;
  auto make_psk = [&](int order) {
    dsp::SampleVec x;
    float phase = 0.0f;
    for (int s = 0; s < 200; ++s) {
      const float step = 2.0f * dsp::kPi / static_cast<float>(order);
      phase += step * static_cast<float>(rng.UniformInt(
                   0, static_cast<std::uint64_t>(order - 1)));
      for (std::size_t i = 0; i < sps; ++i) {
        x.push_back({std::cos(phase), std::sin(phase)});
      }
    }
    return x;
  };
  EXPECT_EQ(core::ClassifyPskOrder(make_psk(2), sps), 2);
  EXPECT_EQ(core::ClassifyPskOrder(make_psk(4), sps), 4);
}

// ------------------------------------------------------------- detections

TEST(Detections, MergeOverlapsSameProtocol) {
  std::vector<core::Detection> dets = {
      {core::Protocol::kWifi80211b, 100, 200, 0.5f, "a"},
      {core::Protocol::kWifi80211b, 150, 300, 0.9f, "b"},
      {core::Protocol::kWifi80211b, 400, 500, 0.4f, "c"},
      {core::Protocol::kBluetooth, 150, 250, 0.7f, "d"},
  };
  const auto merged = core::MergeDetections(std::move(dets), 0, 1000);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(core::CoverageSamples(merged), (300 - 100) + (500 - 400) + 100);
}

TEST(Detections, MergeClampsAndDropsEmpty) {
  std::vector<core::Detection> dets = {
      {core::Protocol::kWifi80211b, -50, 100, 0.5f, "a"},
      {core::Protocol::kWifi80211b, 900, 2000, 0.5f, "b"},
      {core::Protocol::kWifi80211b, 2000, 2100, 0.5f, "c"},  // fully clamped
  };
  const auto merged = core::MergeDetections(std::move(dets), 0, 1000);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].start_sample, 0);
  EXPECT_EQ(merged[1].end_sample, 1000);
}

TEST(Detections, SlackJoinsNearbyIntervals) {
  std::vector<core::Detection> dets = {
      {core::Protocol::kBluetooth, 0, 100, 0.5f, "a"},
      {core::Protocol::kBluetooth, 110, 200, 0.5f, "b"},
  };
  const auto merged = core::MergeDetections(std::move(dets), 20, 1000);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].end_sample, 200);
}

}  // namespace
