#include "rfdump/dsp/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "simd_common.hpp"

namespace rfdump::dsp::simd {

// --------------------------------------------------------- the scalar tier
//
// Whole-range bodies of the conformance reference: the per-element helpers
// of simd_common.hpp applied in order, and the canonical lane models
// executed one lane at a time.

namespace detail {
namespace {

void ScalarCorrelateChips(const cfloat* x, std::size_t n_out,
                          const int* chips, std::size_t n_chips, cfloat* out) {
  for (std::size_t i = 0; i < n_out; ++i) {
    out[i] = ScalarCorrelateOne(x + i, chips, n_chips);
  }
}

void ScalarFirComplex(const cfloat* work, std::size_t n_out, const float* taps,
                      std::size_t n_taps, cfloat* out) {
  for (std::size_t n = 0; n < n_out; ++n) {
    out[n] = ScalarFirOne(work + n, taps, n_taps);
  }
}

void ScalarPhaseDiff(const cfloat* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out[i] = ScalarPhaseDiffOne(x[i], x[i + 1]);
  }
}

void ScalarInstantPhase(const cfloat* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ScalarInstantPhaseOne(x[i]);
}

void ScalarPowerPlane(const cfloat* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ScalarFinitePower(x[i]);
}

/// Canonical 4-lane double reduction (DESIGN.md §16): lane j takes body
/// elements with index % 4 == j.
double ScalarSumFinitePower(const cfloat* x, std::size_t n) {
  double l[4] = {};
  const std::size_t body = n - n % 4;
  for (std::size_t i = 0; i < body; i += 4) AddPowerGroup4(l, x + i);
  return FinishSumFinitePower(l, x, body, n);
}

void ScalarHealthScan(const cfloat* x, std::size_t n, float rail,
                      std::uint64_t* nonfinite, std::uint64_t* saturated) {
  std::uint64_t nf = 0, sat = 0;
  for (std::size_t i = 0; i < n; ++i) ScalarHealthOne(x[i], rail, nf, sat);
  *nonfinite += nf;
  *saturated += sat;
}

/// Canonical 8-lane float reduction of x[i]*conj(x[i-1]) (DESIGN.md §16):
/// product j (j = i-1) of the body goes to lane j % 8.
cfloat ScalarConjMulSum(const cfloat* x, std::size_t n) {
  if (n < 2) return {0.0f, 0.0f};
  float re[8] = {}, im[8] = {};
  const std::size_t products = n - 1;
  const std::size_t body = products - products % 8;
  for (std::size_t j = 0; j < body; j += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      float pr, pi;
      ScalarConjProduct(x[j + l + 1], x[j + l], pr, pi);
      re[l] += pr;
      im[l] += pi;
    }
  }
  return FinishConjMulSum(re, im, x, body, products);
}

void ScalarResample(const cfloat* work, std::size_t n_out, const float* taps,
                    std::size_t n_taps, std::size_t interp, std::size_t decim,
                    std::size_t phase, cfloat* out) {
  ScalarResampleRange(work, 0, n_out, taps, n_taps, interp, decim, phase, out);
}

}  // namespace

const Kernels kScalarKernels = {
    Tier::kScalar,        &ScalarCorrelateChips, &ScalarFirComplex,
    &ScalarPhaseDiff,     &ScalarInstantPhase,   &ScalarSumFinitePower,
    &ScalarPowerPlane,    &ScalarHealthScan,     &ScalarConjMulSum,
    &ScalarResample,
};

}  // namespace detail

// ---------------------------------------------------------------- dispatch

#if defined(__x86_64__) || defined(__i386__)
#define RFDUMP_SIMD_X86 1
#else
#define RFDUMP_SIMD_X86 0
#endif

namespace {

const Kernels* TablePtr(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return &detail::kScalarKernels;
#if RFDUMP_SIMD_X86
    case Tier::kSse2:
      return &detail::kSse2Kernels;
    case Tier::kAvx2:
      return &detail::kAvx2Kernels;
#else
    case Tier::kSse2:
    case Tier::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

bool CpuSupports(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
#if RFDUMP_SIMD_X86
    case Tier::kSse2:
      return true;  // Guaranteed by the x86-64 ABI; probed at startup on i386.
    case Tier::kAvx2:
      return detail::kAvx2Built && __builtin_cpu_supports("avx2") != 0;
#else
    case Tier::kSse2:
    case Tier::kAvx2:
      return false;
#endif
  }
  return false;
}

Tier ResolveEnvOrDetect() {
  if (const char* env = std::getenv("RFDUMP_SIMD");
      env != nullptr && env[0] != '\0' && std::strcmp(env, "auto") != 0) {
    Tier tier;
    if (!ParseTier(env, tier)) {
      throw std::runtime_error(std::string("RFDUMP_SIMD: unknown tier '") +
                               env + "' (want scalar|sse2|avx2|auto)");
    }
    if (!TierSupported(tier)) {
      throw std::runtime_error(std::string("RFDUMP_SIMD: tier '") + env +
                               "' not supported on this CPU/build");
    }
    return tier;
  }
  return DetectBestTier();
}

// Resolved once on first Active()/ActiveTier() call; ForceTier() overrides.
std::atomic<const Kernels*> g_active{nullptr};

const Kernels* ResolveActive() {
  const Kernels* table = TablePtr(ResolveEnvOrDetect());
  const Kernels* expected = nullptr;
  // Another thread may have resolved (or forced) concurrently; first wins.
  g_active.compare_exchange_strong(expected, table, std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseTier(const char* name, Tier& out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    out = Tier::kScalar;
  } else if (std::strcmp(name, "sse2") == 0) {
    out = Tier::kSse2;
  } else if (std::strcmp(name, "avx2") == 0) {
    out = Tier::kAvx2;
  } else {
    return false;
  }
  return true;
}

bool TierSupported(Tier tier) {
  return TablePtr(tier) != nullptr && CpuSupports(tier);
}

Tier DetectBestTier() {
  static const Tier best = [] {
    if (TierSupported(Tier::kAvx2)) return Tier::kAvx2;
    if (TierSupported(Tier::kSse2)) return Tier::kSse2;
    return Tier::kScalar;
  }();
  return best;
}

Tier ActiveTier() { return Active().tier; }

void ForceTier(Tier tier) {
  if (!TierSupported(tier)) {
    throw std::runtime_error(std::string("ForceTier: tier '") +
                             TierName(tier) +
                             "' not supported on this CPU/build");
  }
  g_active.store(TablePtr(tier), std::memory_order_release);
}

void ClearForcedTier() {
  g_active.store(TablePtr(ResolveEnvOrDetect()), std::memory_order_release);
}

const Kernels& Active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = ResolveActive();
  return *table;
}

const Kernels& Table(Tier tier) {
  const Kernels* table = TablePtr(tier);
  if (table == nullptr || !CpuSupports(tier)) {
    throw std::runtime_error(std::string("Table: tier '") + TierName(tier) +
                             "' not supported on this CPU/build");
  }
  return *table;
}

float CanonicalAtan2(float y, float x) { return detail::ScalarAtan2(y, x); }

}  // namespace rfdump::dsp::simd
