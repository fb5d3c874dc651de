// Tests for phase utilities, resampler, NCO, Barker correlator,
// energy estimators, windows, dB helpers and the RNG.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "rfdump/dsp/barker.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/resampler.hpp"
#include "rfdump/dsp/simd.hpp"
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
  const auto d1 = dsp::PhaseDiff(x);
  std::vector<float> d2;
  for (std::size_t i = 1; i < d1.size(); ++i) {
    d2.push_back(dsp::WrapPhase(d1[i] - d1[i - 1]));
  }
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

/// Bit-pattern equality of two sample vectors (NaN payloads included).
::testing::AssertionResult SameBits(const dsp::SampleVec& a,
                                    const dsp::SampleVec& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "[" << i << "]: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Feeds `x` to `rs` in the given chunk sizes (cycled until x is consumed).
template <class Resampler>
dsp::SampleVec ProcessInChunks(Resampler& rs, const dsp::SampleVec& x,
                               std::span<const std::size_t> chunks) {
  dsp::SampleVec out;
  for (std::size_t pos = 0, c = 0; pos < x.size(); ++c) {
    const std::size_t n = std::min(chunks[c % chunks.size()], x.size() - pos);
    rs.Process(dsp::const_sample_span(x).subspan(pos, n), out);
    pos += n;
  }
  return out;
}

TEST(Resampler, StreamingMatchesOneShot) {
  dsp::RationalResampler one(11, 8), stream(11, 8);
  const auto x = ComplexTone(2000, 1.1e6, 8e6);
  const auto expect = one.Resampled(x);
  const std::size_t chunks[] = {13, 1, 200, 7, 1000, 779};
  const auto got = ProcessInChunks(stream, x, chunks);
  EXPECT_TRUE(SameBits(got, expect));
}

/// The resampler as it was before the dsp::simd kernel: a taps_per_phase
/// window shifted by one sample per input and a per-output MAC loop.
class ShiftingWindowResampler {
 public:
  ShiftingWindowResampler(std::size_t interp, std::size_t decim,
                          std::size_t taps_per_phase = 12)
      : interp_(interp), decim_(decim), taps_per_phase_(taps_per_phase) {
    const double composite_rate = static_cast<double>(interp);
    const double cutoff =
        0.5 / static_cast<double>(std::max(interp, decim)) * composite_rate;
    auto proto =
        dsp::DesignLowPass(cutoff, composite_rate, interp * taps_per_phase,
                           dsp::WindowType::kBlackmanHarris);
    for (auto& t : proto) t *= static_cast<float>(interp);
    phases_.assign(interp, std::vector<float>(taps_per_phase, 0.0f));
    for (std::size_t i = 0; i < proto.size(); ++i) {
      phases_[i % interp][i / interp] = proto[i];
    }
    window_.assign(taps_per_phase_, dsp::cfloat{0.0f, 0.0f});
  }

  void Process(dsp::const_sample_span input, dsp::SampleVec& out) {
    for (const dsp::cfloat x : input) {
      std::move(window_.begin() + 1, window_.end(), window_.begin());
      window_.back() = x;
      while (phase_acc_ < interp_) {
        const auto& taps = phases_[phase_acc_];
        dsp::cfloat acc{0.0f, 0.0f};
        for (std::size_t k = 0; k < taps_per_phase_; ++k) {
          acc += taps[k] * window_[taps_per_phase_ - 1 - k];
        }
        out.push_back(acc);
        phase_acc_ += decim_;
      }
      phase_acc_ -= interp_;
    }
  }

 private:
  std::size_t interp_, decim_, taps_per_phase_;
  std::vector<std::vector<float>> phases_;
  dsp::SampleVec window_;
  std::size_t phase_acc_ = 0;
};

TEST(Resampler, KernelPathMatchesTheShiftingWindowLoopBitForBit) {
  // Noise with NaN, +-Inf, denormal and signed-zero samples sprinkled in;
  // chunk sizes that leave the phase accumulator nonzero between calls
  // (and calls that produce no output at all for 8/11).
  dsp::SampleVec x(6000);
  Xoshiro256 rng(31);
  for (auto& v : x) {
    v = dsp::cfloat(static_cast<float>(rng.Gaussian()),
                    static_cast<float>(rng.Gaussian()));
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 100; i < x.size(); i += 611) x[i] = {nan, 0.5f};
  for (std::size_t i = 250; i < x.size(); i += 733) x[i] = {-inf, inf};
  for (std::size_t i = 7; i < x.size(); i += 97) x[i] = {1e-41f, -1e-44f};
  for (std::size_t i = 11; i < x.size(); i += 89) x[i] = {-0.0f, 0.0f};
  const std::size_t one_shot[] = {x.size()};
  const std::size_t odd[] = {1, 3, 5, 13, 2, 7, 1000, 9, 2049};
  for (const dsp::simd::Tier tier :
       {dsp::simd::Tier::kScalar, dsp::simd::Tier::kSse2,
        dsp::simd::Tier::kAvx2}) {
    if (!dsp::simd::TierSupported(tier)) continue;
    dsp::simd::ForceTier(tier);
    for (const auto& [interp, decim] :
         {std::pair<std::size_t, std::size_t>{11, 8}, {8, 11}, {3, 2}}) {
      for (std::span<const std::size_t> chunks :
           {std::span<const std::size_t>(one_shot),
            std::span<const std::size_t>(odd)}) {
        ShiftingWindowResampler legacy(interp, decim);
        dsp::RationalResampler kernel(interp, decim);
        EXPECT_TRUE(SameBits(ProcessInChunks(kernel, x, chunks),
                             ProcessInChunks(legacy, x, chunks)))
            << dsp::simd::TierName(tier) << " " << interp << "/" << decim
            << " chunks=" << chunks.size();
      }
    }
  }
  dsp::simd::ClearForcedTier();
}

TEST(Resampler, ResetRestartsTheStream) {
  const auto x = ComplexTone(500, 0.3e6, 8e6);
  dsp::RationalResampler rs(8, 11);
  dsp::SampleVec discarded;
  rs.Process(dsp::const_sample_span(x).first(123), discarded);
  rs.Reset();
  EXPECT_TRUE(SameBits(rs.Resampled(x),
                       dsp::RationalResampler(8, 11).Resampled(x)));
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
  dsp::SampleVec corr;
  std::vector<float> norm;
  dsp::CorrelateChipsNormalized(x, dsp::kBarker13, corr, norm);
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_NEAR(norm[0], 1.0f, 1e-4f);
}

TEST(Barker, ShortInputGivesEmpty) {
  dsp::SampleVec x(5, {1.0f, 0.0f});
  EXPECT_TRUE(dsp::CorrelateChips(x, dsp::kBarker11).empty());
  dsp::SampleVec corr(3);
  std::vector<float> norm(3);
  dsp::CorrelateChipsNormalized(x, dsp::kBarker11, corr, norm);
  EXPECT_TRUE(corr.empty());
  EXPECT_TRUE(norm.empty());
}

// ------------------------------------------------------------------- energy

TEST(Energy, MeanAndTotal) {
  dsp::SampleVec x = {{3.0f, 4.0f}, {0.0f, 0.0f}};  // |x0|^2 = 25
  EXPECT_NEAR(dsp::MeanPower(x), 12.5, 1e-6);
  EXPECT_EQ(dsp::MeanPower({}), 0.0);
}

TEST(Energy, MovingAverageConverges) {
  dsp::MovingAveragePower ma(20);
  for (int i = 0; i < 100; ++i) {
    ma.Push(dsp::FinitePower({2.0f, 0.0f}));  // power 4
  }
  EXPECT_NEAR(ma.Average(), 4.0f, 1e-5f);
  EXPECT_EQ(ma.Count(), 20u);
}

TEST(Energy, MovingAveragePartialWindow) {
  dsp::MovingAveragePower ma(10);
  EXPECT_EQ(ma.Average(), 0.0f);
  ma.Push(dsp::FinitePower({1.0f, 0.0f}));
  EXPECT_NEAR(ma.Average(), 1.0f, 1e-6f);
  ma.Push(dsp::FinitePower({0.0f, 0.0f}));
  EXPECT_NEAR(ma.Average(), 0.5f, 1e-6f);
}

TEST(Energy, MovingAverageTracksStep) {
  dsp::MovingAveragePower ma(4);
  for (int i = 0; i < 8; ++i) ma.Push(dsp::FinitePower({0.0f, 0.0f}));
  for (int i = 0; i < 4; ++i) ma.Push(dsp::FinitePower({1.0f, 0.0f}));
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
  EXPECT_NEAR(dsp::MeanPower(x), 6.25, 1e-6);

  // One NaN in a running average must not make every later average NaN
  // (NaN propagates forever through a naive running sum).
  dsp::MovingAveragePower ma(4);
  ma.Push(dsp::FinitePower({1.0f, 0.0f}));
  ma.Push(dsp::FinitePower({nan, nan}));
  ma.Push(dsp::FinitePower({inf, 0.0f}));
  for (int i = 0; i < 8; ++i) ma.Push(dsp::FinitePower({1.0f, 0.0f}));
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
