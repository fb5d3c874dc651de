// RF interference source tests: microwave oven duty cycle/envelope, CW tone,
// impulse noise.

#include <bit>
#include <gtest/gtest.h>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/fft.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/rfsources/sources.hpp"

namespace dsp = rfdump::dsp;
namespace rfs = rfdump::rfsources;

namespace {

TEST(Microwave, DutyCycleMatchesAcPeriod) {
  rfs::MicrowaveOven oven;
  // One full 60 Hz cycle = 133333 samples at 8 Msps.
  const auto period =
      static_cast<std::int64_t>(dsp::kSampleRateHz / 60.0);
  std::int64_t on = 0;
  for (std::int64_t n = 0; n < period; ++n) {
    if (oven.IsOn(n)) ++on;
  }
  EXPECT_NEAR(static_cast<double>(on) / static_cast<double>(period), 0.5,
              0.01);
  // Periodicity.
  EXPECT_EQ(oven.IsOn(100), oven.IsOn(100 + period));
}

TEST(Microwave, ConstantEnvelopeWhileOn) {
  rfs::MicrowaveOven oven;
  const auto burst = oven.Generate(0, 20000);  // starts in the on-phase
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (oven.IsOn(static_cast<std::int64_t>(i))) {
      EXPECT_NEAR(std::abs(burst[i]), 1.0f, 1e-4f) << i;
    } else {
      EXPECT_EQ(std::abs(burst[i]), 0.0f) << i;
    }
  }
}

TEST(Microwave, OffPhaseIsSilent) {
  rfs::MicrowaveOven oven;
  const auto period = dsp::kSampleRateHz / 60.0;
  const auto off_start = static_cast<std::int64_t>(period * 0.6);
  const auto burst = oven.Generate(off_start, 1000);
  EXPECT_EQ(dsp::MeanPower(burst), 0.0);
}

TEST(Microwave, FrequencySweepsThroughBand) {
  rfs::MicrowaveOven oven;
  const auto burst = oven.Generate(0, 60000);
  // Instantaneous frequency must move over the burst (it is a chirp, not a
  // fixed tone): compare mean d1 phase over early vs late windows.
  const auto early = dsp::PhaseDiff(
      dsp::const_sample_span(burst).subspan(1000, 3000));
  const auto late = dsp::PhaseDiff(
      dsp::const_sample_span(burst).subspan(50000, 3000));
  double e = 0.0, l = 0.0;
  for (float v : early) e += v;
  for (float v : late) l += v;
  e /= static_cast<double>(early.size());
  l /= static_cast<double>(late.size());
  EXPECT_GT(std::abs(e - l), 0.01);
}

TEST(Microwave, DeterministicForSeed) {
  rfs::MicrowaveOven a(rfs::MicrowaveOven::Config{}, 42);
  rfs::MicrowaveOven b(rfs::MicrowaveOven::Config{}, 42);
  const auto ba = a.Generate(0, 500);
  const auto bb = b.Generate(0, 500);
  for (std::size_t i = 0; i < 500; ++i) EXPECT_EQ(ba[i], bb[i]);
}

TEST(Cw, ToneAtRequestedOffset) {
  const auto tone = rfs::GenerateCw(2e6, 0.5f, 0, 4096);
  dsp::FftPlan plan(4096);
  const auto spectrum = plan.PowerSpectrum(tone);
  // Peak bin at 2 MHz / 8 MHz * 4096 = 1024.
  const auto peak =
      std::max_element(spectrum.begin(), spectrum.end()) - spectrum.begin();
  EXPECT_EQ(peak, 1024);
  EXPECT_NEAR(dsp::MeanPower(tone), 0.25, 1e-4);
}

TEST(Cw, PhaseContinuityAcrossCalls) {
  const auto whole = rfs::GenerateCw(1e6, 1.0f, 0, 200);
  const auto a = rfs::GenerateCw(1e6, 1.0f, 0, 100);
  const auto b = rfs::GenerateCw(1e6, 1.0f, 100, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(std::abs(whole[i] - a[i]), 0.0f, 1e-5f);
    EXPECT_NEAR(std::abs(whole[100 + i] - b[i]), 0.0f, 1e-5f);
  }
}

TEST(Impulses, RateAndAmplitude) {
  rfdump::util::Xoshiro256 rng(9);
  const std::size_t n = 800000;  // 0.1 s
  const auto x = rfs::GenerateImpulses(n, 500.0, 40, 3.0f, rng);
  ASSERT_EQ(x.size(), n);
  // Count bursts (transitions from silence to energy).
  std::size_t bursts = 0;
  bool in_burst = false;
  for (const auto& s : x) {
    const bool active = std::norm(s) > 0.0f;
    if (active && !in_burst) ++bursts;
    in_burst = active;
  }
  // 500 bursts/s over 0.1 s -> ~50, Poisson spread.
  EXPECT_GT(bursts, 25u);
  EXPECT_LT(bursts, 90u);
}

TEST(Impulses, ZeroRateIsSilent) {
  rfdump::util::Xoshiro256 rng(10);
  const auto x = rfs::GenerateImpulses(10000, 0.0, 40, 3.0f, rng);
  EXPECT_EQ(dsp::MeanPower(x), 0.0);
}

}  // namespace
