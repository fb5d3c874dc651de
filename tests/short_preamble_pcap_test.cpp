// Tests for the short-preamble PLCP extension and the pcap export.

#include <cstdio>
#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/phy80211/demodulator.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/trace/pcap.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/crc.hpp"
#include "rfdump/util/rng.hpp"

namespace phy = rfdump::phy80211;
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

// ----------------------------------------------------------- short preamble

TEST(ShortPreamble, BitsStructure) {
  phy::PlcpHeader h;
  h.rate = phy::Rate::k2Mbps;
  h.length_us = 400;
  const auto bits = phy::BuildShortPlcpBits(h);
  ASSERT_EQ(bits.size(), 56u + 16u + 48u);
  for (std::size_t i = 0; i < 56; ++i) EXPECT_EQ(bits[i], 0u) << i;
  // SFD is the time-reversed long SFD.
  const auto sfd =
      rfdump::util::BitsToUintLsbFirst(
          std::span<const std::uint8_t>(bits).subspan(56, 16));
  EXPECT_EQ(sfd, phy::kShortSfd);
}

TEST(ShortPreamble, HalvesPreambleAirtime) {
  EXPECT_DOUBLE_EQ(
      phy::Modulator::FrameAirtimeUs(100, phy::Rate::k2Mbps, true),
      96.0 + 400.0);
  EXPECT_DOUBLE_EQ(
      phy::Modulator::FrameAirtimeUs(100, phy::Rate::k2Mbps, false),
      192.0 + 400.0);
  // 1 Mbps cannot use the short preamble: falls back to long.
  EXPECT_DOUBLE_EQ(
      phy::Modulator::FrameAirtimeUs(100, phy::Rate::k1Mbps, true),
      192.0 + 800.0);
}

class ShortPreambleLoopback : public ::testing::TestWithParam<phy::Rate> {};

TEST_P(ShortPreambleLoopback, RoundTrips) {
  const auto rate = GetParam();
  const auto mpdu = MpduWithFcs(80, 17);
  phy::Modulator::Config mcfg;
  mcfg.short_preamble = true;
  phy::Modulator mod(mcfg);
  const auto samples = mod.Modulate(mpdu, rate);
  // Short-preamble frames really are shorter on air.
  EXPECT_LT(samples.size(),
            phy::Modulator::FrameSampleCount(mpdu.size(), rate, false));
  phy::Demodulator demod;
  const auto frames = demod.DecodeAll(samples);
  ASSERT_EQ(frames.size(), 1u) << phy::RateName(rate);
  EXPECT_EQ(frames[0].header.rate, rate);
  EXPECT_TRUE(frames[0].payload_decoded);
  EXPECT_TRUE(frames[0].fcs_ok) << phy::RateName(rate);
  EXPECT_EQ(frames[0].mpdu, mpdu);
}

INSTANTIATE_TEST_SUITE_P(Rates, ShortPreambleLoopback,
                         ::testing::Values(phy::Rate::k2Mbps,
                                           phy::Rate::k5_5Mbps,
                                           phy::Rate::k11Mbps));

TEST(ShortPreamble, NoisyDecode) {
  const auto mpdu = MpduWithFcs(120, 18);
  phy::Modulator::Config mcfg;
  mcfg.short_preamble = true;
  phy::Modulator mod(mcfg);
  auto samples = mod.Modulate(mpdu, phy::Rate::k2Mbps);
  Xoshiro256 rng(19);
  rfdump::channel::ScaleToPower(samples, rfdump::dsp::DbToPower(20.0));
  rfdump::channel::AddAwgn(samples, 1.0, rng);
  phy::Demodulator demod;
  const auto frames = demod.DecodeAll(samples);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].fcs_ok);
}

TEST(ShortPreamble, MixedPreamblesInOneStream) {
  const auto m1 = MpduWithFcs(60, 20);
  const auto m2 = MpduWithFcs(60, 21);
  phy::Modulator long_mod;
  phy::Modulator::Config scfg;
  scfg.short_preamble = true;
  phy::Modulator short_mod(scfg);
  auto s = long_mod.Modulate(m1, phy::Rate::k1Mbps);
  s.insert(s.end(), dsp::MicrosToSamples(50), dsp::cfloat{0.0f, 0.0f});
  const auto s2 = short_mod.Modulate(m2, phy::Rate::k2Mbps);
  s.insert(s.end(), s2.begin(), s2.end());
  phy::Demodulator demod;
  const auto frames = demod.DecodeAll(s);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].mpdu, m1);
  EXPECT_EQ(frames[1].mpdu, m2);
  EXPECT_EQ(frames[1].header.rate, phy::Rate::k2Mbps);
}

// -------------------------------------------------------------------- pcap

TEST(Pcap, RoundTripsDecodedFrames) {
  // Monitor a small ether and export to pcap.
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = 3;
  cfg.snr_db = 25.0;
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);
  rfdump::core::RFDumpPipeline pipeline;
  const auto report = pipeline.Process(x);
  std::vector<rfdump::core::ProtocolEvent> wifi;
  for (const auto& e : report.events) {
    if (e.protocol == rfdump::core::Protocol::kWifi80211b) wifi.push_back(e);
  }
  ASSERT_GE(wifi.size(), 10u);

  const std::string path = "/tmp/rfdump_test.pcap";
  const auto written = rfdump::trace::WritePcap(path, report.events);
  EXPECT_EQ(written, wifi.size());

  std::uint32_t linktype = 0;
  const auto records = rfdump::trace::ReadPcap(path, &linktype);
  EXPECT_EQ(linktype, rfdump::trace::kLinkType80211);
  ASSERT_EQ(records.size(), written);
  // Bytes round-trip and timestamps are monotonic and sample-accurate.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].bytes, wifi[i].payload) << i;
    const auto expect_us = static_cast<std::uint64_t>(
        static_cast<double>(wifi[i].start_sample) / dsp::kSampleRateHz * 1e6);
    EXPECT_NEAR(static_cast<double>(records[i].timestamp_us),
                static_cast<double>(expect_us), 2.0)
        << i;
  }
  std::remove(path.c_str());
}

TEST(Pcap, SkipsHeaderOnlyFrames) {
  // Only 802.11 events with decoded bytes are written: not a CCK header-only
  // detection, and not another protocol's decode.
  std::vector<rfdump::core::ProtocolEvent> events(3);
  events[0].protocol = rfdump::core::Protocol::kWifi80211b;
  events[1].protocol = rfdump::core::Protocol::kWifi80211b;
  events[1].payload = {1, 2, 3, 4, 5};
  events[1].start_sample = 8000;
  events[2].protocol = rfdump::core::Protocol::kBluetooth;
  events[2].payload = {6, 7};
  const std::string path = "/tmp/rfdump_test2.pcap";
  EXPECT_EQ(rfdump::trace::WritePcap(path, events), 1u);
  const auto records = rfdump::trace::ReadPcap(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].bytes.size(), 5u);
  std::remove(path.c_str());
}

TEST(Pcap, RejectsGarbage) {
  const std::string path = "/tmp/rfdump_bad.pcap";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)rfdump::trace::ReadPcap(path), std::runtime_error);
  EXPECT_THROW((void)rfdump::trace::ReadPcap("/nonexistent.pcap"),
               std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
