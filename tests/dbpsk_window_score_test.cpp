// DbpskPhaseDetector::WindowScore scores all eight symbol alignments in one
// pass. It must return, bit for bit, what the eight-pass form it replaced
// returns (kept below as the reference): on random windows, on windows with
// NaN, ±Inf, zero and denormal samples, and on every window of the
// benchmark's three workloads.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rfdump/core/phase_detectors.hpp"
#include "rfdump/util/rng.hpp"
#include "workloads.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

/// The eight-pass score: lag-1 products into a heap vector, then one pass
/// per alignment with modular pattern indexing.
float ReferenceWindowScore(dsp::const_sample_span window) {
  static const auto pattern = core::BarkerPhaseFlipPattern();
  if (window.size() < 2) return 0.0f;
  std::vector<dsp::cfloat> z(window.size() - 1);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < window.size(); ++i) {
    z[i] = window[i + 1] * std::conj(window[i]);
    total += std::abs(z[i]);
  }
  if (total <= 0.0) return 0.0f;
  float best = 0.0f;
  for (std::size_t a = 0; a < 8; ++a) {
    dsp::cfloat s{0.0f, 0.0f};
    for (std::size_t i = 0; i < z.size(); ++i) {
      s += pattern[(i + a) % 8] * z[i];
    }
    best = std::max(best, std::abs(s));
  }
  return static_cast<float>(best / total);
}

/// Number of windows whose two scores differ in any bit. Two NaNs count as
/// equal: which NaN operand an addition propagates, and so the sign of a
/// NaN sum, is up to the compiler's operand order (the sanitizer build
/// differs here), and the detector only compares the score against its
/// threshold.
std::size_t Mismatches(dsp::const_sample_span x, std::size_t win) {
  std::size_t bad = 0;
  for (std::size_t at = 0; at + 2 <= x.size(); at += win) {
    const auto w = x.subspan(at, std::min(win, x.size() - at));
    const float got = core::DbpskPhaseDetector::WindowScore(w);
    const float want = ReferenceWindowScore(w);
    if (std::isnan(got) && std::isnan(want)) continue;
    if (std::bit_cast<std::uint32_t>(got) !=
        std::bit_cast<std::uint32_t>(want)) {
      ++bad;
    }
  }
  return bad;
}

dsp::SampleVec Gaussian(rfdump::util::Xoshiro256& rng, std::size_t n,
                        float scale) {
  dsp::SampleVec x(n);
  for (auto& v : x) {
    v = {scale * static_cast<float>(rng.Gaussian()),
         scale * static_cast<float>(rng.Gaussian())};
  }
  return x;
}

}  // namespace

TEST(DbpskWindowScore, MatchesEightPassFormOnRandomWindows) {
  rfdump::util::Xoshiro256 rng(11);
  for (std::size_t len : {0, 1, 2, 3, 7, 8, 9, 16, 17, 100, 127, 128, 129}) {
    for (float scale : {1e-20f, 1e-3f, 1.0f, 64.0f, 1e15f, 1e25f}) {
      const auto x = Gaussian(rng, len, scale);
      EXPECT_EQ(Mismatches(x, 128), 0u) << "len " << len << " scale " << scale;
    }
  }
  // Long random streams, scored window by window.
  const auto x = Gaussian(rng, 1 << 16, 3.0f);
  EXPECT_EQ(Mismatches(x, 128), 0u);
}

TEST(DbpskWindowScore, MatchesEightPassFormOnSpecialValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min() * 37;
  const float specials[] = {0.0f, -0.0f, kInf, -kInf, kNan, kDenorm,
                            -kDenorm, 1.0f, -1.0f, 3e38f};
  rfdump::util::Xoshiro256 rng(12);
  // All-zero, all-denormal and single-special windows.
  EXPECT_EQ(Mismatches(dsp::SampleVec(128), 128), 0u);
  EXPECT_EQ(Mismatches(dsp::SampleVec(128, {kDenorm, -kDenorm}), 128), 0u);
  for (float re : specials) {
    for (float im : specials) {
      for (std::size_t pos : {0, 1, 63, 127}) {
        auto x = Gaussian(rng, 128, 1.0f);
        x[pos] = {re, im};
        EXPECT_EQ(Mismatches(x, 128), 0u)
            << "(" << re << ", " << im << ") at " << pos;
      }
    }
  }
  // Windows sprinkled with random specials.
  for (int trial = 0; trial < 200; ++trial) {
    auto x = Gaussian(rng, 128, 2.0f);
    for (int k = 0; k < 4; ++k) {
      x[rng.UniformInt(0, 127)] = {specials[rng.UniformInt(0, 9)],
                                   specials[rng.UniformInt(0, 9)]};
    }
    EXPECT_EQ(Mismatches(x, 128), 0u) << "trial " << trial;
  }
}

TEST(DbpskWindowScore, MatchesEightPassFormOnEveryWorkloadWindow) {
  for (const auto& name : perfbench::WorkloadNames()) {
    const auto w = perfbench::RenderWorkload(name, /*seed=*/5, /*scale=*/1.0);
    EXPECT_EQ(Mismatches(w.samples, 128), 0u) << name;
  }
}
