// Spectrogram utility + ZigBee-in-pipeline tests.

#include <algorithm>

#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/spectrogram.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
using rfdump::util::Xoshiro256;

namespace {

TEST(Spectrogram, ToneLandsInCorrectBin) {
  // A tone at +2 MHz must light up the bin at 3/4 of the DC-centred axis.
  dsp::SampleVec x(64 * 64);
  dsp::Nco nco(2e6, dsp::kSampleRateHz);
  for (auto& s : x) s = nco.Next();
  Xoshiro256 rng(1);
  rfdump::channel::AddAwgn(x, 0.01, rng);
  const auto gram = core::ComputeSpectrogram(x, 64, 8);
  ASSERT_GT(gram.rows, 0u);
  for (std::size_t row = 0; row < gram.rows; ++row) {
    std::size_t peak = 0;
    for (std::size_t k = 1; k < gram.bins; ++k) {
      if (gram.at(row, k) > gram.at(row, peak)) peak = k;
    }
    // +2 MHz of 8 MHz span -> bin 32 + 16 = 48.
    EXPECT_NEAR(static_cast<double>(peak), 48.0, 1.0) << "row " << row;
  }
}

TEST(Spectrogram, QuietVsBusyRows) {
  // Half silence, half wideband noise burst: later rows are hotter.
  dsp::SampleVec x(32768, dsp::cfloat{0.0f, 0.0f});
  Xoshiro256 rng(2);
  auto burst = dsp::sample_span(x).subspan(16384);
  rfdump::channel::AddAwgn(burst, 10.0, rng);
  const auto gram = core::ComputeSpectrogram(x, 32, 8);
  ASSERT_GE(gram.rows, 4u);
  double early = 0.0, late = 0.0;
  for (std::size_t k = 0; k < gram.bins; ++k) {
    early += gram.at(0, k);
    late += gram.at(gram.rows - 1, k);
  }
  EXPECT_GT(late, early + 10.0 * static_cast<double>(gram.bins));
}

TEST(Spectrogram, AsciiRenderShape) {
  dsp::SampleVec x(8192);
  Xoshiro256 rng(3);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  const auto gram = core::ComputeSpectrogram(x, 32, 4);
  const auto art = core::RenderAscii(gram);
  // Header + one line per row, each row gram.bins chars + time prefix.
  const auto lines = std::count(art.begin(), art.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), gram.rows + 1);
  EXPECT_NE(art.find("-4 MHz"), std::string::npos);
}

TEST(Spectrogram, DegenerateInputs) {
  EXPECT_EQ(core::ComputeSpectrogram({}, 64, 8).rows, 0u);
  EXPECT_EQ(core::ComputeSpectrogram({}, 63, 8).rows, 0u);  // non-pow2
  const auto art = core::RenderAscii(core::Spectrogram{});
  EXPECT_NE(art.find("empty"), std::string::npos);
}

TEST(ZigbeePipeline, DetectAndDecodeEndToEnd) {
  rfdump::emu::Ether ether;
  rfdump::traffic::ZigbeeConfig cfg;
  cfg.count = 12;
  cfg.snr_db = 20.0;
  cfg.interval_us = 0.0;  // LIFS-spaced, so the timing detector fires
  const auto session = rfdump::traffic::GenerateZigbee(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  core::RFDumpPipeline::Config pcfg;
  pcfg.EnableBundle(core::Protocol::kZigbee);
  pcfg.analysis.bundle_mask &= ~(core::BundleBit(core::Protocol::kWifi80211b) |
                                 core::BundleBit(core::Protocol::kBluetooth));
  core::RFDumpPipeline pipeline(pcfg);
  const auto report = pipeline.Process(x);

  // Timing detector tags LIFS-spaced frames; decoder validates them.
  std::size_t zb_tags = 0;
  for (const auto& d : report.detections) {
    if (d.protocol == core::Protocol::kZigbee) ++zb_tags;
  }
  EXPECT_GE(zb_tags, 10u);
  std::size_t zb_decodes = 0, crc_ok = 0;
  for (const auto& e : report.events) {
    if (e.protocol != core::Protocol::kZigbee) continue;
    ++zb_decodes;
    if (e.crc_ok) ++crc_ok;
  }
  EXPECT_GE(zb_decodes, 8u);
  EXPECT_GE(crc_ok, 8u);
}

}  // namespace
