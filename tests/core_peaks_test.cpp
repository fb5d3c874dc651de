// Peak detector tests: gating, boundary precision, merging, delivery.

#include <bit>
#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/util/rng.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
using rfdump::util::Xoshiro256;

namespace {

// Builds a noise stream with constant-envelope bursts at given positions.
dsp::SampleVec MakeStream(std::size_t total,
                          const std::vector<std::pair<std::size_t,
                                                      std::size_t>>& bursts,
                          double burst_power, double noise_power,
                          std::uint64_t seed) {
  dsp::SampleVec x(total, dsp::cfloat{0.0f, 0.0f});
  const float amp = static_cast<float>(std::sqrt(burst_power));
  for (const auto& [start, len] : bursts) {
    for (std::size_t i = start; i < start + len && i < total; ++i) {
      x[i] = dsp::cfloat(amp, 0.0f);
    }
  }
  Xoshiro256 rng(seed);
  rfdump::channel::AddAwgn(x, noise_power, rng);
  return x;
}

TEST(PeakDetector, FindsSingleBurst) {
  // 20 dB burst of 4000 samples at offset 10000.
  const auto x = MakeStream(30000, {{10000, 4000}}, 100.0, 1.0, 1);
  const auto peaks = core::DetectPeaks(x);
  ASSERT_EQ(peaks.size(), 1u);
  const auto& p = peaks.front();
  EXPECT_NEAR(static_cast<double>(p.start_sample), 10000.0, 40.0);
  EXPECT_NEAR(static_cast<double>(p.end_sample), 14000.0, 60.0);
  EXPECT_NEAR(p.mean_power, 101.0f, 15.0f);  // burst + noise
}

TEST(PeakDetector, QuietStreamHasNoPeaks) {
  const auto x = MakeStream(50000, {}, 0.0, 1.0, 2);
  EXPECT_TRUE(core::DetectPeaks(x).empty());
}

TEST(PeakDetector, GatesOutQuietChunks) {
  const auto x = MakeStream(40000, {{20000, 2000}}, 50.0, 1.0, 3);
  core::PeakDetector det;
  std::size_t gated = 0, total = 0, peaks = 0;
  for (std::size_t at = 0; at < x.size(); at += core::kChunkSamples) {
    const auto meta = det.PushChunk(
        dsp::const_sample_span(x).subspan(at, core::kChunkSamples),
        static_cast<std::int64_t>(at));
    ++total;
    if (meta.gated_out) ++gated;
    peaks += meta.completed.size();
  }
  peaks += det.Flush().size();
  // Most chunks are quiet: the cheap path must dominate.
  EXPECT_GT(gated, total * 8 / 10);
  EXPECT_EQ(peaks, 1u);
}

TEST(PeakDetector, SeparatesTwoBurstsWithSifsGap) {
  // Two bursts separated by a 10 us (80-sample) SIFS-like gap must remain
  // two distinct peaks (that gap IS the 802.11 timing signature).
  const auto x = MakeStream(30000, {{8000, 4000}, {12080, 1000}}, 100.0, 1.0,
                            4);
  const auto peaks = core::DetectPeaks(x);
  ASSERT_EQ(peaks.size(), 2u);
  const std::int64_t gap = peaks[1].start_sample - peaks[0].end_sample;
  EXPECT_NEAR(static_cast<double>(gap), 80.0, 25.0);
}

TEST(PeakDetector, MergesPeaksAcrossTinyDips) {
  // A 4-sample dropout inside a burst must not split the peak.
  dsp::SampleVec x(20000, dsp::cfloat{0.0f, 0.0f});
  for (std::size_t i = 5000; i < 9000; ++i) x[i] = {10.0f, 0.0f};
  for (std::size_t i = 7000; i < 7004; ++i) x[i] = {0.0f, 0.0f};
  Xoshiro256 rng(5);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  EXPECT_EQ(core::DetectPeaks(x).size(), 1u);
}

TEST(PeakDetector, PeakSpanningManyChunks) {
  const auto x = MakeStream(100000, {{10000, 50000}}, 100.0, 1.0, 6);
  const auto peaks = core::DetectPeaks(x);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(static_cast<double>(peaks[0].length()), 50000.0, 100.0);
}

TEST(PeakDetector, ChunkReturnsThePeaksItFinished) {
  const auto x = MakeStream(60000, {{10000, 1000}, {30000, 1000},
                                    {50000, 1000}},
                            100.0, 1.0, 7);
  const dsp::const_sample_span xs(x);
  core::PeakDetector det;
  std::size_t seen = 0;
  for (std::size_t at = 0; at < x.size(); at += core::kChunkSamples) {
    const auto start = static_cast<std::int64_t>(at);
    const auto chunk = xs.subspan(at, core::kChunkSamples);
    const auto done = det.PushChunk(chunk, start).completed;
    // A peak is handed over by the chunk its end falls in, and only once.
    const auto len = static_cast<std::int64_t>(core::kChunkSamples);
    for (const auto& p : done) {
      EXPECT_LE(p.end_sample, start + len);
      EXPECT_GT(p.end_sample, start - len);
    }
    seen += done.size();
  }
  EXPECT_TRUE(det.Flush().empty());
  EXPECT_EQ(seen, 3u);
}

TEST(PeakDetector, LowSnrBurstMissed) {
  // A -5 dB burst measures ~1.2 dB above the floor (signal + noise), well
  // below the 4 dB gate: missed. This is the SNR knee mechanism behind the
  // paper's Figures 6-8.
  const auto x = MakeStream(30000, {{10000, 3000}},
                            rfdump::dsp::DbToPower(-5.0), 1.0, 8);
  EXPECT_TRUE(core::DetectPeaks(x).empty());
}

TEST(PeakDetector, DeliversEveryPeakOfALongCapture) {
  // 5000 separated bursts: more peaks than any fixed-size buffer would
  // hold, so a lost or reordered peak shows. The noise sits 14 dB under the
  // gate's floor, so it never opens a peak of its own.
  constexpr std::size_t kBursts = 5000;
  constexpr std::size_t kPitch = 1000;
  std::vector<std::pair<std::size_t, std::size_t>> bursts;
  for (std::size_t b = 0; b < kBursts; ++b) {
    bursts.emplace_back(b * kPitch + 300, 400);
  }
  const auto x = MakeStream(kBursts * kPitch, bursts, 100.0, 0.04, 9);

  const auto peaks = core::DetectPeaks(x);
  ASSERT_EQ(peaks.size(), kBursts);
  for (std::size_t b = 0; b < kBursts; ++b) {
    EXPECT_NEAR(static_cast<double>(peaks[b].start_sample),
                static_cast<double>(bursts[b].first), 40.0)
        << "burst " << b;
  }

  // The per-chunk spans, concatenated, are exactly that list.
  const dsp::const_sample_span xs(x);
  core::PeakDetector det;
  std::vector<core::Peak> streamed;
  for (std::size_t at = 0; at < x.size(); at += core::kChunkSamples) {
    const auto chunk = xs.subspan(at, core::kChunkSamples);
    const auto done =
        det.PushChunk(chunk, static_cast<std::int64_t>(at)).completed;
    streamed.insert(streamed.end(), done.begin(), done.end());
  }
  const auto last = det.Flush();
  streamed.insert(streamed.end(), last.begin(), last.end());
  ASSERT_EQ(streamed.size(), peaks.size());
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    EXPECT_EQ(streamed[i].start_sample, peaks[i].start_sample) << i;
    EXPECT_EQ(streamed[i].end_sample, peaks[i].end_sample) << i;
    EXPECT_EQ(streamed[i].mean_power, peaks[i].mean_power) << i;
    EXPECT_EQ(streamed[i].peak_power, peaks[i].peak_power) << i;
  }
}

/// 64-bit FNV-1a over every peak's start, end and the bit patterns of its
/// peak and mean power, in list order.
std::uint64_t HashPeaks(const std::vector<core::Peak>& peaks) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b, v >>= 8) {
      h ^= v & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& p : peaks) {
    mix(static_cast<std::uint64_t>(p.start_sample));
    mix(static_cast<std::uint64_t>(p.end_sample));
    mix(std::bit_cast<std::uint32_t>(p.peak_power));
    mix(std::bit_cast<std::uint32_t>(p.mean_power));
  }
  return h;
}

TEST(PeakDetector, PeakListIsPinnedBitForBit) {
  // The expected hashes were computed at the parent of the commit that made
  // the detector's per-chunk plane the detect stage's only power plane (the
  // same on the scalar and the best SIMD tier). Any change to the peak
  // list, down to the last bit of a power, shows here first.
  struct Case {
    std::uint64_t seed;
    std::uint64_t hash;
  };
  for (const Case c : {Case{1, 0xd2f68d27b6ea4b7eull},
                       Case{2, 0xefcf1e6762fdc318ull},
                       Case{3, 0xee01dec1f716a12aull}}) {
    const auto x = rfdump::testing::CannedMixedScenario(c.seed).samples;
    const std::uint64_t h = HashPeaks(core::DetectPeaks(x));
    EXPECT_EQ(h, c.hash) << "seed " << c.seed << " hash 0x" << std::hex << h;
  }

  // A capture that stops inside a burst, at a length that is not a whole
  // number of chunks: the partial last chunk and Flush close the open peak.
  const auto x = MakeStream(30123, {{10000, 4000}, {29000, 5000}}, 100.0,
                            1.0, 10);
  ASSERT_NE(x.size() % core::kChunkSamples, 0u);
  const auto peaks = core::DetectPeaks(x);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks.back().end_sample, static_cast<std::int64_t>(x.size()));
  const std::uint64_t h = HashPeaks(peaks);
  EXPECT_EQ(h, 0x69f8610a0b22cfdbull) << "hash 0x" << std::hex << h;
}

TEST(PeakDetector, GatePowerMatchesConfig) {
  core::PeakDetector det;
  EXPECT_NEAR(det.GatePower(), rfdump::dsp::DbToPower(4.0), 1e-9);
  core::PeakDetector::Config cfg;
  cfg.noise_floor_power = 0.5;
  cfg.gate_db = 6.0;
  core::PeakDetector det2(cfg);
  EXPECT_NEAR(det2.GatePower(), 0.5 * rfdump::dsp::DbToPower(6.0), 1e-9);
}

}  // namespace
