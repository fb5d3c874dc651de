// Tests for phase utilities, resampler, decimator, NCO, Barker correlator,
// energy estimators, windows, dB helpers and the RNG.

#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <vector>

#include "rfdump/dsp/barker.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/resampler.hpp"
#include "rfdump/dsp/windows.hpp"
#include "rfdump/util/rng.hpp"

namespace dsp = rfdump::dsp;
using rfdump::util::Xoshiro256;

namespace {

dsp::SampleVec ComplexTone(std::size_t n, double freq, double rate) {
  dsp::SampleVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * freq *
                      static_cast<double>(i) / rate;
    v[i] = dsp::cfloat(static_cast<float>(std::cos(ph)),
                       static_cast<float>(std::sin(ph)));
  }
  return v;
}

// ---------------------------------------------------------------- dB helpers

TEST(Db, RoundTrips) {
  EXPECT_NEAR(dsp::PowerToDb(dsp::DbToPower(13.0)), 13.0, 1e-9);
  EXPECT_NEAR(dsp::AmplitudeToDb(dsp::DbToAmplitude(-7.5)), -7.5, 1e-9);
  EXPECT_NEAR(dsp::DbToPower(3.0103), 2.0, 1e-3);
  EXPECT_NEAR(dsp::DbToAmplitude(6.0206), 2.0, 1e-3);
}

// ---------------------------------------------------------------------- RNG

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Xoshiro256 a2(42), c2(43);
  EXPECT_NE(a2(), c2());
}

TEST(Rng, UniformDoubleInRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Xoshiro256 rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.UniformInt(3, 10);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 10u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 10);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(3);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kN, 1.0, 0.03);
}

// -------------------------------------------------------------------- phase

TEST(Phase, ToneHasConstantPhaseDiff) {
  const double freq = 1e6, rate = 8e6;
  const auto x = ComplexTone(100, freq, rate);
  const auto d = dsp::PhaseDiff(x);
  ASSERT_EQ(d.size(), 99u);
  const float expected = static_cast<float>(2.0 * std::numbers::pi * freq / rate);
  for (float v : d) EXPECT_NEAR(v, expected, 1e-4f);
}

TEST(Phase, ToneSecondDiffIsZero) {
  const auto x = ComplexTone(100, -2.5e6, 8e6);
  const auto d2 = dsp::PhaseSecondDiff(x);
  ASSERT_EQ(d2.size(), 98u);
  for (float v : d2) EXPECT_NEAR(v, 0.0f, 1e-3f);
}

TEST(Phase, WrapPhaseRange) {
  // Results must land in (-pi, pi] and be circularly equivalent to the input
  // (+/-pi are the same angle up to float rounding at the boundary).
  const float cases[] = {3.0f * dsp::kPi, -3.0f * dsp::kPi, 0.5f,
                         7.0f * dsp::kPi + 0.1f, -10.0f, 100.0f};
  for (float angle : cases) {
    const float w = dsp::WrapPhase(angle);
    EXPECT_GT(w, -dsp::kPi - 1e-5f) << angle;
    EXPECT_LE(w, dsp::kPi + 1e-5f) << angle;
    EXPECT_NEAR(std::cos(w), std::cos(angle), 1e-4f) << angle;
    EXPECT_NEAR(std::sin(w), std::sin(angle), 1e-4f) << angle;
  }
  EXPECT_NEAR(dsp::WrapPhase(0.5f), 0.5f, 1e-7f);
}

TEST(Phase, UnwrapRemovesJumps) {
  std::vector<float> ph;
  // A steadily increasing phase, wrapped.
  for (int i = 0; i < 100; ++i) {
    ph.push_back(dsp::WrapPhase(0.5f * static_cast<float>(i)));
  }
  dsp::UnwrapInPlace(ph);
  for (int i = 1; i < 100; ++i) {
    EXPECT_NEAR(ph[i] - ph[i - 1], 0.5f, 1e-4f);
  }
}

TEST(Phase, HistogramBpskFillsTwoOppositeBins) {
  std::vector<float> phases;
  for (int i = 0; i < 50; ++i) {
    phases.push_back(0.0f);
    phases.push_back(dsp::kPi);  // BPSK: 0 and pi
  }
  const auto hist = dsp::PhaseHistogram(phases, 4);
  ASSERT_EQ(hist.size(), 4u);
  int filled = 0;
  for (auto c : hist) {
    if (c > 0) ++filled;
  }
  EXPECT_EQ(filled, 2);
}

TEST(Phase, EmptyInputs) {
  EXPECT_TRUE(dsp::PhaseDiff({}).empty());
  EXPECT_TRUE(dsp::PhaseSecondDiff({}).empty());
  dsp::SampleVec one = {{1.0f, 0.0f}};
  EXPECT_TRUE(dsp::PhaseDiff(one).empty());
}

// ---------------------------------------------------------------------- NCO

TEST(Nco, ProducesRequestedFrequency) {
  dsp::Nco nco(1e6, 8e6);
  dsp::SampleVec x(64);
  for (auto& v : x) v = nco.Next();
  const auto d = dsp::PhaseDiff(x);
  const float expected = static_cast<float>(2.0 * std::numbers::pi / 8.0);
  for (float v : d) EXPECT_NEAR(v, expected, 1e-4f);
}

TEST(Nco, MixShiftsFrequency) {
  auto x = ComplexTone(256, 1e6, 8e6);
  dsp::Nco nco(-1e6, 8e6);
  nco.Mix(x);
  // Mixed to DC: constant phase.
  const auto d = dsp::PhaseDiff(x);
  for (float v : d) EXPECT_NEAR(v, 0.0f, 1e-3f);
}

TEST(Nco, AdvanceMatchesNext) {
  dsp::Nco a(1.3e6, 8e6), b(1.3e6, 8e6);
  for (int i = 0; i < 10; ++i) (void)a.Next();
  b.Advance(10);
  EXPECT_NEAR(a.phase(), b.phase(), 1e-9);
}

// ---------------------------------------------------------------- resampler

TEST(Resampler, UpsampleToneKeepsFrequency) {
  // 11/8 resample of a 500 kHz tone at 8 Msps -> same tone at 11 Msps.
  dsp::RationalResampler rs(11, 8);
  const auto x = ComplexTone(4000, 0.5e6, 8e6);
  const auto y = rs.Resampled(x);
  EXPECT_NEAR(static_cast<double>(y.size()),
              static_cast<double>(x.size()) * 11.0 / 8.0,
              16.0);
  // Skip the filter transient, then check the per-sample phase step.
  const auto d = dsp::PhaseDiff(y);
  const float expected = static_cast<float>(2.0 * std::numbers::pi * 0.5e6 / 11e6);
  for (std::size_t i = 200; i < d.size() - 200; ++i) {
    EXPECT_NEAR(d[i], expected, 5e-3f) << "i=" << i;
  }
}

TEST(Resampler, StreamingMatchesOneShot) {
  dsp::RationalResampler one(11, 8), stream(11, 8);
  const auto x = ComplexTone(2000, 1.1e6, 8e6);
  const auto expect = one.Resampled(x);
  dsp::SampleVec got;
  std::size_t pos = 0;
  const std::size_t chunks[] = {13, 1, 200, 7, 1000, 779};
  for (std::size_t c : chunks) {
    const std::size_t n = std::min(c, x.size() - pos);
    stream.Process(dsp::const_sample_span(x).subspan(pos, n), got);
    pos += n;
  }
  ASSERT_EQ(pos, x.size());
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(std::abs(got[i] - expect[i]), 0.0f, 1e-5f) << i;
  }
}

TEST(Resampler, AmplitudePreserved) {
  dsp::RationalResampler rs(11, 8);
  const auto x = ComplexTone(4000, 0.2e6, 8e6);
  const auto y = rs.Resampled(x);
  // Steady-state amplitude ~1.
  double mean = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 500; i + 500 < y.size(); ++i) {
    mean += std::abs(y[i]);
    ++count;
  }
  mean /= static_cast<double>(count);
  EXPECT_NEAR(mean, 1.0, 0.02);
}

TEST(Resampler, RejectsZeroParams) {
  EXPECT_THROW(dsp::RationalResampler(0, 8), std::invalid_argument);
  EXPECT_THROW(dsp::RationalResampler(11, 0), std::invalid_argument);
}

// ------------------------------------------------------------------- barker

TEST(Barker, AutocorrelationPeak) {
  // The defining property: autocorrelation peak N, off-peak sidelobes <= 1.
  dsp::SampleVec chips(dsp::kBarker11.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    chips[i] = {static_cast<float>(dsp::kBarker11[i]), 0.0f};
  }
  // Build 3 repetitions and slide the correlator.
  dsp::SampleVec x;
  for (int r = 0; r < 3; ++r) x.insert(x.end(), chips.begin(), chips.end());
  const auto corr = dsp::CorrelateChips(x, dsp::kBarker11);
  // Aligned offsets 0, 11, 22 give 11; everything else <= 1... but note
  // cyclic overlap across repetition boundaries gives sidelobes <= 5 for
  // partial windows; only check strict peaks.
  EXPECT_NEAR(corr[0].real(), 11.0f, 1e-4f);
  EXPECT_NEAR(corr[11].real(), 11.0f, 1e-4f);
  EXPECT_NEAR(corr[22].real(), 11.0f, 1e-4f);
  for (std::size_t i = 0; i < corr.size(); ++i) {
    if (i % 11 != 0) {
      EXPECT_LT(std::abs(corr[i]), 6.0f) << "i=" << i;
    }
  }
}

TEST(Barker, NormalizedPeakIsOne) {
  dsp::SampleVec x(dsp::kBarker13.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = {0.7f * static_cast<float>(dsp::kBarker13[i]), 0.0f};
  }
  const auto norm = dsp::NormalizedCorrelateChips(x, dsp::kBarker13);
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_NEAR(norm[0], 1.0f, 1e-4f);
}

TEST(Barker, ShortInputGivesEmpty) {
  dsp::SampleVec x(5, {1.0f, 0.0f});
  EXPECT_TRUE(dsp::CorrelateChips(x, dsp::kBarker11).empty());
  EXPECT_TRUE(dsp::NormalizedCorrelateChips(x, dsp::kBarker11).empty());
}

// ------------------------------------------------------------------- energy

TEST(Energy, MeanAndTotal) {
  dsp::SampleVec x = {{3.0f, 4.0f}, {0.0f, 0.0f}};  // |x0|^2 = 25
  EXPECT_NEAR(dsp::TotalEnergy(x), 25.0, 1e-6);
  EXPECT_NEAR(dsp::MeanPower(x), 12.5, 1e-6);
  EXPECT_EQ(dsp::MeanPower({}), 0.0);
}

TEST(Energy, MovingAverageConverges) {
  dsp::MovingAveragePower ma(20);
  for (int i = 0; i < 100; ++i) ma.Push({2.0f, 0.0f});  // power 4
  EXPECT_NEAR(ma.Average(), 4.0f, 1e-5f);
  EXPECT_EQ(ma.Count(), 20u);
}

TEST(Energy, MovingAveragePartialWindow) {
  dsp::MovingAveragePower ma(10);
  EXPECT_EQ(ma.Average(), 0.0f);
  ma.Push({1.0f, 0.0f});
  EXPECT_NEAR(ma.Average(), 1.0f, 1e-6f);
  ma.Push({0.0f, 0.0f});
  EXPECT_NEAR(ma.Average(), 0.5f, 1e-6f);
}

TEST(Energy, MovingAverageTracksStep) {
  dsp::MovingAveragePower ma(4);
  for (int i = 0; i < 8; ++i) ma.Push({0.0f, 0.0f});
  for (int i = 0; i < 4; ++i) ma.Push({1.0f, 0.0f});
  EXPECT_NEAR(ma.Average(), 1.0f, 1e-6f);  // window fully in the step
  ma.Reset();
  EXPECT_EQ(ma.Average(), 0.0f);
}

TEST(Energy, MovingAveragePushAllMatchesPushBitForBit) {
  // Past 2^20 pushes, so the periodic rebuild of the running sum is covered;
  // split in two calls so PushAll resumes from its own saved state.
  std::vector<float> power((1u << 20) + 5000);
  rfdump::util::Xoshiro256 rng(21);
  for (auto& p : power) p = static_cast<float>(rng.UniformDouble() * 3.0);
  for (const std::size_t window : {std::size_t{16}, std::size_t{20}}) {
    dsp::MovingAveragePower one(window);
    dsp::MovingAveragePower all(window);
    std::vector<float> batch = power;
    const std::span<float> io(batch);
    all.PushAll(io.first(777));
    all.PushAll(io.subspan(777));
    for (std::size_t i = 0; i < power.size(); ++i) {
      ASSERT_EQ(batch[i], one.Push(power[i])) << "window " << window << " " << i;
    }
    EXPECT_EQ(all.Average(), one.Average());
  }
}

TEST(Energy, RejectsZeroWindow) {
  EXPECT_THROW(dsp::MovingAveragePower(0), std::invalid_argument);
}

TEST(Energy, NonFiniteSamplesDoNotPoisonAverages) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // FinitePower maps corrupt samples (and overflowing squares) to 0.
  EXPECT_EQ(dsp::FinitePower({nan, 0.0f}), 0.0f);
  EXPECT_EQ(dsp::FinitePower({0.0f, inf}), 0.0f);
  EXPECT_EQ(dsp::FinitePower({1e30f, 0.0f}), 0.0f);  // square overflows
  EXPECT_NEAR(dsp::FinitePower({3.0f, 4.0f}), 25.0f, 1e-5f);

  dsp::SampleVec x = {{3.0f, 4.0f}, {nan, 0.0f}, {0.0f, inf}, {0.0f, 0.0f}};
  EXPECT_NEAR(dsp::TotalEnergy(x), 25.0, 1e-6);
  EXPECT_NEAR(dsp::MeanPower(x), 6.25, 1e-6);

  // One NaN in a running average must not make every later average NaN
  // (NaN propagates forever through a naive running sum).
  dsp::MovingAveragePower ma(4);
  ma.Push({1.0f, 0.0f});
  ma.Push({nan, nan});
  ma.Push({inf, 0.0f});
  for (int i = 0; i < 8; ++i) ma.Push({1.0f, 0.0f});
  EXPECT_TRUE(std::isfinite(ma.Average()));
  EXPECT_NEAR(ma.Average(), 1.0f, 1e-6f);
}

// ------------------------------------------------------------------ windows

TEST(Windows, HannEndpointsAndPeak) {
  const auto w = dsp::MakeWindow(dsp::WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0f, 1e-6f);
  EXPECT_NEAR(w.back(), 0.0f, 1e-6f);
  EXPECT_NEAR(w[32], 1.0f, 1e-6f);
}

TEST(Windows, AllTypesBoundedAndSymmetric) {
  using WT = dsp::WindowType;
  for (WT t : {WT::kRectangular, WT::kHann, WT::kHamming, WT::kBlackman,
               WT::kBlackmanHarris, WT::kKaiser}) {
    const auto w = dsp::MakeWindow(t, 51);
    ASSERT_EQ(w.size(), 51u);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_GE(w[i], -1e-6f);
      EXPECT_LE(w[i], 1.0f + 1e-6f);
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-5f);
    }
  }
}

TEST(Windows, BesselI0KnownValues) {
  EXPECT_NEAR(dsp::BesselI0(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dsp::BesselI0(1.0), 1.2660658777520084, 1e-9);
  EXPECT_NEAR(dsp::BesselI0(5.0), 27.239871823604442, 1e-6);
}

TEST(Windows, DegenerateSizes) {
  EXPECT_EQ(dsp::MakeWindow(dsp::WindowType::kHann, 0).size(), 0u);
  const auto w1 = dsp::MakeWindow(dsp::WindowType::kHann, 1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0], 1.0f);
}

}  // namespace
