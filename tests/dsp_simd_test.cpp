// Conformance harness for the runtime-dispatched SIMD kernels: every tier
// the host supports must be bit-identical to the scalar reference on every
// kernel, across randomized lengths, misaligned spans, short tails, and
// non-finite specials (DESIGN.md §16). A tier that drifts by even one ulp —
// e.g. from FMA contraction sneaking into a build — fails here before the
// full-pipeline differential ever runs.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "rfdump/dsp/barker.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp::simd {
namespace {

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < kTierCount; ++t) {
    if (TierSupported(static_cast<Tier>(t))) {
      tiers.push_back(static_cast<Tier>(t));
    }
  }
  return tiers;
}

// Lengths that cover empty input, sub-register tails for both 4- and 8-wide
// tiers, exact register multiples, and off-by-one on either side.
constexpr std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,   8,  9,
                                    15, 16, 17, 31, 32, 33, 100, 257};

// Offsets into an oversized buffer so kernels see spans whose base address
// is not 32-byte (or even 8-byte) aligned.
constexpr std::size_t kOffsets[] = {0, 1, 2, 3};

/// Random samples with occasional non-finite and rail-level specials, so the
/// finite-power masking and health classification paths are exercised.
std::vector<cfloat> RandomSamples(std::mt19937& rng, std::size_t n,
                                  bool specials) {
  std::uniform_real_distribution<float> amp(-2.0f, 2.0f);
  std::uniform_int_distribution<int> pick(0, 19);
  std::vector<cfloat> x(n);
  for (auto& v : x) {
    v = cfloat(amp(rng), amp(rng));
    if (specials) {
      switch (pick(rng)) {
        case 0:
          v = cfloat(std::numeric_limits<float>::quiet_NaN(), amp(rng));
          break;
        case 1:
          v = cfloat(amp(rng), std::numeric_limits<float>::infinity());
          break;
        case 2:
          v = cfloat(64.0f, -64.0f);  // at the ADC rail
          break;
        case 3:
          v = cfloat(0.0f, -0.0f);
          break;
        default:
          break;
      }
    }
  }
  return x;
}

::testing::AssertionResult BitEqual(std::span<const float> a,
                                    std::span<const float> b,
                                    const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: " << a[i] << " (0x" << std::hex
             << std::bit_cast<std::uint32_t>(a[i]) << ") vs " << b[i] << " (0x"
             << std::bit_cast<std::uint32_t>(b[i]) << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(std::span<const cfloat> a,
                                    std::span<const cfloat> b,
                                    const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: (" << a[i].real() << "," << a[i].imag()
             << ") vs (" << b[i].real() << "," << b[i].imag() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class DspSimdTierSweep : public ::testing::TestWithParam<int> {
 protected:
  Tier tier() const { return static_cast<Tier>(GetParam()); }
  void SetUp() override {
    if (!TierSupported(tier())) {
      GTEST_SKIP() << "tier " << TierName(tier())
                   << " not supported on this host";
    }
  }
};

TEST_P(DspSimdTierSweep, CorrelateChipsBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(101);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 16, specials);
        const cfloat* x = buf.data() + off;
        for (std::span<const int> chips :
             {std::span<const int>(kBarker11), std::span<const int>(kBarker13)}) {
          if (len < chips.size()) continue;
          const std::size_t n_out = len - chips.size() + 1;
          std::vector<cfloat> a(n_out), b(n_out);
          ref.correlate_chips(x, n_out, chips.data(), chips.size(), a.data());
          vec.correlate_chips(x, n_out, chips.data(), chips.size(), b.data());
          ASSERT_TRUE(BitEqual(a, b, "correlate_chips"))
              << "tier=" << TierName(tier()) << " len=" << len
              << " off=" << off;
        }
      }
    }
  }
}

TEST_P(DspSimdTierSweep, FirComplexBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(202);
  // 21 is the GFSK channel filter; 12 a polyphase resampler phase; 1 and 2
  // the degenerate filters; 33 longer than any register-count multiple.
  for (std::size_t n_taps : {1, 2, 12, 21, 33}) {
    const auto taps = DesignLowPass(600e3, kSampleRateHz, n_taps);
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf =
            RandomSamples(rng, off + len + taps.size() + 8, false);
        const cfloat* work = buf.data() + off;
        std::vector<cfloat> a(len), b(len);
        ref.fir_complex(work, len, taps.data(), taps.size(), a.data());
        vec.fir_complex(work, len, taps.data(), taps.size(), b.data());
        ASSERT_TRUE(BitEqual(a, b, "fir_complex"))
            << "tier=" << TierName(tier()) << " taps=" << n_taps
            << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, PhaseDiffBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(303);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        if (len < 1) continue;
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        std::vector<float> a(len - 1), b(len - 1);
        ref.phase_diff(x, len, a.data());
        vec.phase_diff(x, len, b.data());
        ASSERT_TRUE(BitEqual(a, b, "phase_diff"))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, InstantPhaseBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(404);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        std::vector<float> a(len), b(len);
        ref.instant_phase(x, len, a.data());
        vec.instant_phase(x, len, b.data());
        ASSERT_TRUE(BitEqual(a, b, "instant_phase"))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, SumFinitePowerBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(505);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        const double a = ref.sum_finite_power(x, len);
        const double b = vec.sum_finite_power(x, len);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off
            << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, PowerPlaneBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(606);
  for (bool specials : {false, true}) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, specials);
        const cfloat* x = buf.data() + off;
        std::vector<float> a(len), b(len);
        ref.power_plane(x, len, a.data());
        vec.power_plane(x, len, b.data());
        ASSERT_TRUE(BitEqual(a, b, "power_plane"))
            << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, HealthScanCountsExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(707);
  const float rails[] = {0.98f * 64.0f, 1.0f,
                         std::numeric_limits<float>::infinity()};
  for (float rail : rails) {
    for (std::size_t off : kOffsets) {
      for (std::size_t len : kLengths) {
        const auto buf = RandomSamples(rng, off + len + 8, true);
        const cfloat* x = buf.data() + off;
        std::uint64_t nf_a = 0, sat_a = 0, nf_b = 0, sat_b = 0;
        ref.health_scan(x, len, rail, &nf_a, &sat_a);
        vec.health_scan(x, len, rail, &nf_b, &sat_b);
        ASSERT_EQ(nf_a, nf_b) << "tier=" << TierName(tier()) << " len=" << len;
        ASSERT_EQ(sat_a, sat_b)
            << "tier=" << TierName(tier()) << " len=" << len << " rail=" << rail;
      }
    }
  }
}

TEST_P(DspSimdTierSweep, ConjMulSumBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(808);
  for (std::size_t off : kOffsets) {
    for (std::size_t len : kLengths) {
      const auto buf = RandomSamples(rng, off + len + 8, false);
      const cfloat* x = buf.data() + off;
      const cfloat a = ref.conj_mul_sum(x, len);
      const cfloat b = vec.conj_mul_sum(x, len);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                std::bit_cast<std::uint64_t>(b))
          << "tier=" << TierName(tier()) << " len=" << len << " off=" << off;
    }
  }
}

TEST_P(DspSimdTierSweep, ResampleBitExact) {
  const Kernels& ref = Table(Tier::kScalar);
  const Kernels& vec = Table(tier());
  std::mt19937 rng(909);
  constexpr std::size_t kTaps = 12;
  // Input lengths below the 12 taps, off the 8/11 input strides, and long
  // enough to cross the kernel's plane chunks (~2k inputs).
  constexpr std::size_t kInputs[] = {0,  1,  5,   11,  12,  13,  44,
                                     89, 97, 353, 2048, 2051, 4999};
  for (const auto& [interp, decim] :
       {std::pair<std::size_t, std::size_t>{11, 8}, {8, 11}}) {
    const auto proto = DesignLowPass(0.5 / 11.0, 1.0, interp * kTaps);
    for (std::size_t off : kOffsets) {
      for (std::size_t n_in : kInputs) {
        auto buf = RandomSamples(rng, off + kTaps - 1 + n_in, true);
        for (std::size_t i = 5; i < buf.size(); i += 37) {
          buf[i] = cfloat(1e-40f, -std::numeric_limits<float>::denorm_min());
        }
        const cfloat* work = buf.data() + off;
        for (std::size_t phase = 0; phase < decim; ++phase) {
          const std::size_t end = n_in * interp;
          const std::size_t n_out =
              end > phase ? (end - phase + decim - 1) / decim : 0;
          std::vector<cfloat> a(n_out), b(n_out);
          ref.resample(work, n_out, proto.data(), kTaps, interp, decim, phase,
                       a.data());
          vec.resample(work, n_out, proto.data(), kTaps, interp, decim, phase,
                       b.data());
          ASSERT_TRUE(BitEqual(a, b, "resample"))
              << "tier=" << TierName(tier()) << " L/M=" << interp << "/"
              << decim << " n_in=" << n_in << " off=" << off
              << " phase=" << phase;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, DspSimdTierSweep,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TierName(static_cast<Tier>(info.param));
                         });

// --- dispatch override ------------------------------------------------------

TEST(DspSimdDispatch, ForceTierSelectsEachSupportedTier) {
  const Tier before = ActiveTier();
  for (Tier t : SupportedTiers()) {
    ForceTier(t);
    EXPECT_EQ(ActiveTier(), t) << TierName(t);
    EXPECT_EQ(Active().tier, t) << TierName(t);
    EXPECT_EQ(&Active(), &Table(t)) << TierName(t);
  }
  ClearForcedTier();
  EXPECT_EQ(ActiveTier(), before);
}

TEST(DspSimdDispatch, UnsupportedTierThrows) {
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (TierSupported(tier)) continue;
    EXPECT_THROW(ForceTier(tier), std::runtime_error) << TierName(tier);
    EXPECT_THROW((void)Table(tier), std::runtime_error) << TierName(tier);
  }
  // Scalar is supported everywhere by contract.
  EXPECT_TRUE(TierSupported(Tier::kScalar));
  EXPECT_NO_THROW((void)Table(Tier::kScalar));
}

// A build that loses simd_avx2.cpp's -mavx2 flag still links (kAvx2Built is
// false) and silently runs SSE2 on AVX2 hosts; the speed gates would not
// notice, so this does.
TEST(DspSimdDispatch, Avx2TierBuiltWhereCpuHasIt) {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") != 0) {
    EXPECT_TRUE(TierSupported(Tier::kAvx2));
    EXPECT_EQ(DetectBestTier(), Tier::kAvx2);
  }
#else
  EXPECT_FALSE(TierSupported(Tier::kAvx2));
#endif
}

TEST(DspSimdDispatch, TierNamesRoundTrip) {
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    Tier parsed;
    ASSERT_TRUE(ParseTier(TierName(tier), parsed));
    EXPECT_EQ(parsed, tier);
  }
  Tier out;
  EXPECT_FALSE(ParseTier("neon", out));
  EXPECT_FALSE(ParseTier("", out));
  EXPECT_FALSE(ParseTier(nullptr, out));
}

// --- canonical atan2 --------------------------------------------------------

TEST(DspSimdAtan2, CloseToLibmEverywhere) {
  std::mt19937 rng(909);
  std::uniform_real_distribution<float> d(-4.0f, 4.0f);
  float worst = 0.0f;
  for (int i = 0; i < 200000; ++i) {
    const float y = d(rng), x = d(rng);
    const float got = CanonicalAtan2(y, x);
    const float want = std::atan2(y, x);
    worst = std::max(worst, std::abs(got - want));
  }
  // ~2 ulp of pi; the contract is determinism, not libm equality, but the
  // approximation must stay tight enough that decode decisions agree.
  EXPECT_LT(worst, 1e-5f);
}

TEST(DspSimdAtan2, EdgeCases) {
  EXPECT_EQ(CanonicalAtan2(0.0f, 1.0f), 0.0f);
  EXPECT_TRUE(std::signbit(CanonicalAtan2(-0.0f, 1.0f)));
  EXPECT_NEAR(CanonicalAtan2(0.0f, -1.0f), 3.14159265f, 1e-6f);
  EXPECT_NEAR(CanonicalAtan2(-0.0f, -1.0f), -3.14159265f, 1e-6f);
  EXPECT_NEAR(CanonicalAtan2(1.0f, 0.0f), 1.57079633f, 1e-6f);
  EXPECT_NEAR(CanonicalAtan2(-1.0f, 0.0f), -1.57079633f, 1e-6f);
  // Both zero: magnitude defined as 0 with y's sign (documented deviation
  // from libm for x = -0).
  EXPECT_EQ(CanonicalAtan2(0.0f, 0.0f), 0.0f);
  EXPECT_TRUE(std::isnan(CanonicalAtan2(std::nanf(""), 1.0f)));
}

}  // namespace
}  // namespace rfdump::dsp::simd
