// FIR filter and design tests: passband/stopband response, streaming
// equivalence, design properties of the low-pass and Gaussian kernels.

#include <cmath>
#include <gtest/gtest.h>

#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/types.hpp"

namespace dsp = rfdump::dsp;

namespace {

// One-shot filtering through a fresh filter.
dsp::SampleVec Filter(std::vector<float> taps, dsp::const_sample_span x) {
  dsp::FirFilter f(std::move(taps));
  dsp::SampleVec out;
  f.Process(x, out);
  return out;
}

// Measures steady-state amplitude gain of `filter` at frequency `freq`
// (normalized, cycles/sample).
double ToneGain(const std::vector<float>& taps, double freq) {
  // Evaluate H(e^{j2pi f}) directly from the taps.
  std::complex<double> h{0.0, 0.0};
  for (std::size_t k = 0; k < taps.size(); ++k) {
    const double ph = -2.0 * std::numbers::pi * freq * static_cast<double>(k);
    h += static_cast<double>(taps[k]) *
         std::complex<double>(std::cos(ph), std::sin(ph));
  }
  return std::abs(h);
}

TEST(FirDesign, LowPassUnityDcGain) {
  const auto taps = dsp::DesignLowPass(1e6, 8e6, 63);
  EXPECT_NEAR(ToneGain(taps, 0.0), 1.0, 1e-6);
}

TEST(FirDesign, LowPassPassbandAndStopband) {
  const auto taps = dsp::DesignLowPass(1e6, 8e6, 101);
  EXPECT_NEAR(ToneGain(taps, 0.05), 1.0, 0.02);   // 400 kHz: passband
  EXPECT_NEAR(ToneGain(taps, 0.125), 0.5, 0.05);  // cutoff: -6 dB
  EXPECT_LT(ToneGain(taps, 0.25), 0.01);          // 2 MHz: stopband
  EXPECT_LT(ToneGain(taps, 0.45), 0.01);          // deep stopband
}

TEST(FirDesign, RejectsZeroTaps) {
  EXPECT_THROW(dsp::DesignLowPass(1e6, 8e6, 0), std::invalid_argument);
  EXPECT_THROW(dsp::FirFilter({}), std::invalid_argument);
}

TEST(FirDesign, GaussianIsSymmetricUnitDc) {
  const auto taps = dsp::DesignGaussian(0.5, 8, 4);
  ASSERT_EQ(taps.size(), 8u * 4u + 1u);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    sum += taps[i];
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-6f) << i;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // The peak is at the center.
  const std::size_t mid = taps.size() / 2;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_LE(taps[i], taps[mid] + 1e-7f);
  }
}

TEST(FirDesign, GaussianNarrowerForSmallerBt) {
  // Smaller BT = more smearing = wider impulse response = smaller peak.
  const auto bt05 = dsp::DesignGaussian(0.5, 8, 4);
  const auto bt03 = dsp::DesignGaussian(0.3, 8, 4);
  EXPECT_GT(bt05[bt05.size() / 2], bt03[bt03.size() / 2]);
}

TEST(FirFilter, IdentityFilterPassesThrough) {
  dsp::SampleVec x = {{1.0f, 2.0f}, {3.0f, -1.0f}, {0.5f, 0.0f}};
  const auto y = Filter({1.0f}, x);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], x[i]);
  }
}

TEST(FirFilter, DelayFilterShifts) {
  dsp::SampleVec x = {{1.0f, 0.0f}, {2.0f, 0.0f}, {3.0f, 0.0f}, {4.0f, 0.0f}};
  const auto y = Filter({0.0f, 0.0f, 1.0f}, x);  // two-sample delay
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(std::abs(y[0]), 0.0f, 1e-7f);
  EXPECT_NEAR(std::abs(y[1]), 0.0f, 1e-7f);
  EXPECT_NEAR(y[2].real(), 1.0f, 1e-6f);
  EXPECT_NEAR(y[3].real(), 2.0f, 1e-6f);
}

TEST(FirFilter, StreamingMatchesOneShot) {
  const auto taps = dsp::DesignLowPass(1e6, 8e6, 31);
  dsp::SampleVec x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = dsp::cfloat(std::sin(0.1f * static_cast<float>(i)),
                       std::cos(0.13f * static_cast<float>(i)));
  }
  const auto expect = Filter(taps, x);

  dsp::FirFilter streaming(taps);
  dsp::SampleVec got;
  // Feed in deliberately ragged chunk sizes, including tiny ones smaller than
  // the filter order.
  const std::size_t chunks[] = {1, 2, 7, 100, 3, 500, 387};
  std::size_t pos = 0;
  for (std::size_t c : chunks) {
    const std::size_t n = std::min(c, x.size() - pos);
    streaming.Process(dsp::const_sample_span(x).subspan(pos, n), got);
    pos += n;
  }
  ASSERT_EQ(pos, x.size());
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(std::abs(got[i] - expect[i]), 0.0f, 1e-5f) << "i=" << i;
  }
}

}  // namespace
