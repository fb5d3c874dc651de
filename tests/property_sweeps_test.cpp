// Parameterized property sweeps across the PHY layers: loopback must hold
// for every (rate x size) combination, Bluetooth for every packet type and
// channel, and the detectors' invariants across SNR.

#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/phy80211/demodulator.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phybt/demodulator.hpp"
#include "rfdump/phybt/hopping.hpp"
#include "rfdump/phybt/modulator.hpp"
#include "rfdump/util/crc.hpp"
#include "rfdump/util/rng.hpp"

namespace phy = rfdump::phy80211;
namespace bt = rfdump::phybt;
namespace dsp = rfdump::dsp;
using rfdump::util::Xoshiro256;

namespace {

std::vector<std::uint8_t> MpduWithFcs(std::size_t body, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> mpdu(body);
  for (auto& b : mpdu) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  const std::uint32_t fcs = rfdump::util::Crc32(mpdu);
  for (int i = 0; i < 4; ++i) {
    mpdu.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFF));
  }
  return mpdu;
}

// ------------------------------------------------- 802.11 rate x size sweep

class WifiLoopbackSweep
    : public ::testing::TestWithParam<std::tuple<phy::Rate, std::size_t>> {};

TEST_P(WifiLoopbackSweep, RoundTrips) {
  const auto [rate, body] = GetParam();
  const auto mpdu = MpduWithFcs(body, body * 31 + 7);
  phy::Modulator mod;
  const auto samples = mod.Modulate(mpdu, rate);
  phy::Demodulator demod;
  const auto frames = demod.DecodeAll(samples);
  ASSERT_EQ(frames.size(), 1u) << phy::RateName(rate) << " " << body << "B";
  EXPECT_EQ(frames[0].header.rate, rate);
  EXPECT_TRUE(frames[0].payload_decoded);
  EXPECT_TRUE(frames[0].fcs_ok) << phy::RateName(rate) << " " << body << "B";
  EXPECT_EQ(frames[0].mpdu, mpdu);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSizes, WifiLoopbackSweep,
    ::testing::Combine(::testing::Values(phy::Rate::k1Mbps, phy::Rate::k2Mbps,
                                         phy::Rate::k5_5Mbps,
                                         phy::Rate::k11Mbps),
                       ::testing::Values(std::size_t{28}, std::size_t{60},
                                         std::size_t{96})));

// ------------------------------------------------ Bluetooth type x channel

class BtLoopbackSweep
    : public ::testing::TestWithParam<std::tuple<bt::PacketType, int>> {};

TEST_P(BtLoopbackSweep, RoundTrips) {
  const auto [type, vis_idx] = GetParam();
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.type = type;
  const std::size_t size = std::min<std::size_t>(
      bt::MaxPayloadBytes(type), 64);
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  // Find a clk hopping onto the requested visible channel.
  std::uint32_t clk = 0;
  while (bt::HopChannel(addr.lap, clk) !=
         bt::kFirstVisibleChannel + vis_idx) {
    ++clk;
  }
  const auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
  ASSERT_FALSE(burst.samples.empty());

  dsp::SampleVec band(2000, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 2000, dsp::cfloat{0.0f, 0.0f});
  Xoshiro256 rng(77);
  rfdump::channel::AddAwgn(band, 1e-4, rng);

  bt::Demodulator demod;
  const auto pkts = demod.DecodeAll(band);
  ASSERT_EQ(pkts.size(), 1u)
      << bt::PacketTypeName(type) << " ch " << vis_idx;
  EXPECT_EQ(pkts[0].channel_index, vis_idx);
  EXPECT_EQ(pkts[0].packet.header.type, type);
  if (size > 0) {
    EXPECT_TRUE(pkts[0].packet.crc_ok);
    EXPECT_EQ(pkts[0].packet.payload, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndChannels, BtLoopbackSweep,
    ::testing::Combine(::testing::Values(bt::PacketType::kPoll,
                                         bt::PacketType::kDh1,
                                         bt::PacketType::kDh3,
                                         bt::PacketType::kDh5),
                       ::testing::Values(0, 3, 7)));

// ---------------------------------------- SIMD dispatch-tier PHY differential

// Per-PHY companion to the full-pipeline fingerprint differential in
// tests/conformance_test.cpp: for seeded noisy loopbacks, every supported
// dispatch tier must decode byte-identical frames to the forced-scalar
// reference. Catches tier drift at the layer where it would first surface.
class DispatchTierSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { dsp::simd::ClearForcedTier(); }

  static std::vector<dsp::simd::Tier> VectorTiers() {
    std::vector<dsp::simd::Tier> tiers;
    for (int t = 1; t < dsp::simd::kTierCount; ++t) {
      const auto tier = static_cast<dsp::simd::Tier>(t);
      if (dsp::simd::TierSupported(tier)) tiers.push_back(tier);
    }
    return tiers;
  }
};

TEST_P(DispatchTierSeedSweep, WifiDecodesBitIdenticalAcrossTiers) {
  const std::uint64_t seed = GetParam();
  const auto mpdu = MpduWithFcs(40 + seed % 100, seed);
  phy::Modulator mod;
  auto samples = mod.Modulate(mpdu, phy::Rate::k1Mbps);
  Xoshiro256 rng(seed * 2 + 1);
  rfdump::channel::AddAwgn(samples, 3e-3, rng);

  dsp::simd::ForceTier(dsp::simd::Tier::kScalar);
  phy::Demodulator ref_demod;
  const auto ref = ref_demod.DecodeAll(samples);
  for (const auto tier : VectorTiers()) {
    dsp::simd::ForceTier(tier);
    phy::Demodulator demod;
    const auto got = demod.DecodeAll(samples);
    ASSERT_EQ(got.size(), ref.size()) << dsp::simd::TierName(tier);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].start_sample, ref[i].start_sample);
      EXPECT_EQ(got[i].end_sample, ref[i].end_sample);
      EXPECT_EQ(got[i].fcs_ok, ref[i].fcs_ok);
      EXPECT_EQ(got[i].mpdu, ref[i].mpdu) << dsp::simd::TierName(tier);
    }
  }
}

TEST_P(DispatchTierSeedSweep, BtDecodesBitIdenticalAcrossTiers) {
  const std::uint64_t seed = GetParam();
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh1;
  std::vector<std::uint8_t> payload(17);
  Xoshiro256 prng(seed);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(prng.UniformInt(0, 255));
  }
  const auto burst = bt::ModulatePacket(addr, hdr, payload, 0);
  dsp::SampleVec band(1500, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 1500, dsp::cfloat{0.0f, 0.0f});
  Xoshiro256 rng(seed * 2 + 1);
  rfdump::channel::AddAwgn(band, 1e-3, rng);

  dsp::simd::ForceTier(dsp::simd::Tier::kScalar);
  bt::Demodulator ref_demod;
  const auto ref = ref_demod.DecodeAll(band);
  for (const auto tier : VectorTiers()) {
    dsp::simd::ForceTier(tier);
    bt::Demodulator demod;
    const auto got = demod.DecodeAll(band);
    ASSERT_EQ(got.size(), ref.size()) << dsp::simd::TierName(tier);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].channel_index, ref[i].channel_index);
      EXPECT_EQ(got[i].start_sample, ref[i].start_sample);
      EXPECT_EQ(got[i].packet.crc_ok, ref[i].packet.crc_ok);
      EXPECT_EQ(got[i].packet.payload, ref[i].packet.payload)
          << dsp::simd::TierName(tier);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, DispatchTierSeedSweep,
                         ::testing::Values(201, 202, 203, 204, 205, 206, 207,
                                           208, 209, 210));

// -------------------------------------------------- peak detector invariants

class PeakDetectorSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeakDetectorSnrSweep, BurstCountMonotonicWithSnr) {
  // At any SNR, a detected peak must lie within the true burst (plus edge
  // tolerance), i.e. no hallucinated peaks far from signal.
  const double snr = GetParam();
  dsp::SampleVec x(60000, dsp::cfloat{0.0f, 0.0f});
  const float amp = static_cast<float>(
      std::sqrt(rfdump::dsp::DbToPower(snr)));
  for (std::size_t i = 20000; i < 28000; ++i) x[i] = {amp, 0.0f};
  Xoshiro256 rng(static_cast<std::uint64_t>(snr * 100) + 5);
  rfdump::channel::AddAwgn(x, 1.0, rng);

  const auto peaks = rfdump::core::DetectPeaks(x);
  for (const auto& p : peaks) {
    EXPECT_GE(p.start_sample, 20000 - 200) << "snr " << snr;
    EXPECT_LE(p.end_sample, 28000 + 200) << "snr " << snr;
  }
  if (snr >= 6.0) {
    ASSERT_EQ(peaks.size(), 1u) << "snr " << snr;
    EXPECT_NEAR(static_cast<double>(peaks[0].length()), 8000.0, 150.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Snrs, PeakDetectorSnrSweep,
                         ::testing::Values(-10.0, 0.0, 3.0, 6.0, 10.0, 20.0,
                                           30.0));

// ------------------------------------------------------ CFO tolerance sweep

class CfoSweep : public ::testing::TestWithParam<double> {};

TEST_P(CfoSweep, WifiDecodesUnderCfo) {
  const double cfo = GetParam();
  const auto mpdu = MpduWithFcs(96, 99);
  phy::Modulator mod;
  auto samples = mod.Modulate(mpdu, phy::Rate::k1Mbps);
  rfdump::channel::ApplyFrequencyOffset(samples, cfo, dsp::kSampleRateHz, 0);
  phy::Demodulator demod;
  const auto frames = demod.DecodeAll(samples);
  ASSERT_EQ(frames.size(), 1u) << "cfo " << cfo;
  EXPECT_TRUE(frames[0].fcs_ok) << "cfo " << cfo;
}

// Crystal tolerance at 2.4 GHz is ~+/-25 ppm => +/-60 kHz worst case between
// two radios; the demodulator must cover that range.
INSTANTIATE_TEST_SUITE_P(Offsets, CfoSweep,
                         ::testing::Values(-60e3, -30e3, -10e3, 0.0, 10e3,
                                           30e3, 60e3));

// ---------------------------------------------- quantized front-end sweep

class AdcBitsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdcBitsSweep, WifiSurvivesQuantization) {
  const unsigned bits = GetParam();
  const auto mpdu = MpduWithFcs(60, 123);
  phy::Modulator mod;
  auto samples = mod.Modulate(mpdu, phy::Rate::k1Mbps);
  Xoshiro256 rng(9);
  rfdump::channel::ScaleToPower(samples, rfdump::dsp::DbToPower(20.0));
  rfdump::channel::AddAwgn(samples, 1.0, rng);
  rfdump::channel::Quantize(samples, bits, 64.0f);
  phy::Demodulator demod;
  const auto frames = demod.DecodeAll(samples);
  ASSERT_EQ(frames.size(), 1u) << bits << " bits";
  EXPECT_TRUE(frames[0].fcs_ok) << bits << " bits";
}

// The USRP 1 has 12-bit converters; decoding must hold down to ~6 bits with
// this signal level and full scale.
INSTANTIATE_TEST_SUITE_P(Bits, AdcBitsSweep,
                         ::testing::Values(6u, 8u, 12u, 14u));

}  // namespace
