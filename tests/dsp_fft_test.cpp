// FFT correctness: impulse, sinusoid bin placement, round trip, Parseval,
// linearity, and a parameterized sweep over sizes.

#include <cmath>
#include <gtest/gtest.h>

#include "rfdump/dsp/fft.hpp"
#include "rfdump/util/rng.hpp"

namespace dsp = rfdump::dsp;

namespace {

dsp::SampleVec Tone(std::size_t n, double cycles, float amplitude = 1.0f) {
  dsp::SampleVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * cycles *
                      static_cast<double>(i) / static_cast<double>(n);
    v[i] = dsp::cfloat(static_cast<float>(amplitude * std::cos(ph)),
                       static_cast<float>(amplitude * std::sin(ph)));
  }
  return v;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::FftPlan(0), std::invalid_argument);
  EXPECT_THROW(dsp::FftPlan(1), std::invalid_argument);
  EXPECT_THROW(dsp::FftPlan(3), std::invalid_argument);
  EXPECT_THROW(dsp::FftPlan(100), std::invalid_argument);
  EXPECT_NO_THROW(dsp::FftPlan(64));
}

TEST(Fft, ImpulseIsFlat) {
  dsp::FftPlan plan(64);
  dsp::SampleVec x(64, {0.0f, 0.0f});
  x[0] = {1.0f, 0.0f};
  plan.Forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft, DcGoesToBinZero) {
  dsp::FftPlan plan(128);
  dsp::SampleVec x(128, {2.0f, 0.0f});
  plan.Forward(x);
  EXPECT_NEAR(x[0].real(), 256.0f, 1e-3f);
  for (std::size_t k = 1; k < 128; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0f, 1e-3f) << "bin " << k;
  }
}

TEST(Fft, ComplexToneLandsInCorrectBin) {
  constexpr std::size_t kN = 256;
  dsp::FftPlan plan(kN);
  auto x = Tone(kN, 17.0);
  plan.Forward(x);
  for (std::size_t k = 0; k < kN; ++k) {
    if (k == 17) {
      EXPECT_NEAR(std::abs(x[k]), static_cast<float>(kN), 0.01f * kN);
    } else {
      EXPECT_LT(std::abs(x[k]), 0.01f * kN) << "bin " << k;
    }
  }
}

TEST(Fft, NegativeFrequencyLandsInUpperHalf) {
  constexpr std::size_t kN = 128;
  dsp::FftPlan plan(kN);
  auto x = Tone(kN, -5.0);
  plan.Forward(x);
  // -5 cycles maps to bin N-5.
  EXPECT_GT(std::abs(x[kN - 5]), 0.9f * kN);
  EXPECT_LT(std::abs(x[5]), 0.01f * kN);
}

TEST(Fft, PowerSpectrumMatchesForward) {
  constexpr std::size_t kN = 64;
  dsp::FftPlan plan(kN);
  auto x = Tone(kN, 3.0, 0.5f);
  const auto ps = plan.PowerSpectrum(x);
  auto copy = x;
  plan.Forward(copy);
  ASSERT_EQ(ps.size(), kN);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(ps[k], std::norm(copy[k]), 1e-2f) << "bin " << k;
  }
}

TEST(Fft, ShortInputIsZeroPadded) {
  dsp::FftPlan plan(64);
  dsp::SampleVec x(10, {1.0f, 0.0f});
  const auto ps = plan.PowerSpectrum(x);
  ASSERT_EQ(ps.size(), 64u);
  // DC bin = |sum of inputs|^2 = 10^2.
  EXPECT_NEAR(ps[0], 100.0f, 1e-3f);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
  const std::size_t n = GetParam();
  dsp::FftPlan plan(n);
  rfdump::util::Xoshiro256 rng(n * 1234567u);
  dsp::SampleVec x(n);
  for (auto& v : x) {
    v = dsp::cfloat(static_cast<float>(rng.Gaussian()),
                    static_cast<float>(rng.Gaussian()));
  }
  auto y = x;
  plan.Forward(y);
  plan.Inverse(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-3f) << "i=" << i;
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-3f) << "i=" << i;
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  dsp::FftPlan plan(n);
  rfdump::util::Xoshiro256 rng(n * 777u);
  dsp::SampleVec x(n);
  for (auto& v : x) {
    v = dsp::cfloat(static_cast<float>(rng.Gaussian()),
                    static_cast<float>(rng.Gaussian()));
  }
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  auto spec = x;
  plan.Forward(spec);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  freq_energy /= static_cast<double>(n);
  EXPECT_NEAR(freq_energy / time_energy, 1.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024, 4096));

TEST(Fft, LinearityOfTransform) {
  constexpr std::size_t kN = 128;
  dsp::FftPlan plan(kN);
  auto a = Tone(kN, 4.0);
  auto b = Tone(kN, 9.0, 0.3f);
  dsp::SampleVec sum(kN);
  for (std::size_t i = 0; i < kN; ++i) sum[i] = a[i] + b[i];
  const auto forward = [&plan](dsp::SampleVec v) {
    plan.Forward(v);
    return v;
  };
  const auto fa = forward(a);
  const auto fb = forward(b);
  const auto fsum = forward(sum);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(std::abs(fsum[k] - fa[k] - fb[k]), 0.0f, 2e-2f) << "k=" << k;
  }
}

}  // namespace
