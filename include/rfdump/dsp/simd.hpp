#pragma once
// Runtime-dispatched SIMD kernels for the DSP hot paths (DESIGN.md §16).
//
// Every kernel exists in up to three tiers — scalar (the conformance
// reference), SSE2 (the x86-64 baseline) and AVX2 — selected once at runtime
// from CPUID, the RFDUMP_SIMD environment variable, or ForceTier(). A kernel
// is written twice: the scalar reference, and one vector template that the
// SSE2 and AVX2 tiers both instantiate (src/dsp/simd_common.hpp). All tiers
// of one kernel are *bit-identical* by construction: the kernels are written
// against a fixed virtual-lane model (DESIGN.md §16), the scalar tier
// executes the same IEEE-754 operation sequence per lane that the vector
// tiers execute per register, and no tier is compiled with FMA contraction.
// The differential harness and tests/dsp_simd_test.cpp enforce the contract.

#include <cstddef>
#include <cstdint>

#include "rfdump/dsp/types.hpp"

namespace rfdump::dsp::simd {

/// Dispatch tiers, ordered weakest to strongest. kScalar is always available
/// and is the conformance reference every other tier must match bit-exactly.
enum class Tier : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

inline constexpr int kTierCount = 3;

/// Stable lowercase tier name ("scalar", "sse2", "avx2") — the vocabulary of
/// the RFDUMP_SIMD environment variable and the CLI --simd flag.
[[nodiscard]] const char* TierName(Tier tier);

/// Parses a tier name; returns false on an unknown name. "auto" is not a
/// tier — callers handle it before parsing.
[[nodiscard]] bool ParseTier(const char* name, Tier& out);

/// True if this build + CPU can execute the tier.
[[nodiscard]] bool TierSupported(Tier tier);

/// Strongest tier this CPU supports (CPUID probe, cached).
[[nodiscard]] Tier DetectBestTier();

/// The tier the kernel table currently dispatches to. Resolution order:
/// ForceTier() > RFDUMP_SIMD env (read once, first call) > DetectBestTier().
[[nodiscard]] Tier ActiveTier();

/// Forces dispatch to `tier` for the whole process (tests, CLI --simd, CI
/// conformance legs). Throws std::runtime_error if the tier is not supported
/// on this CPU/build. Not meant to be raced against in-flight kernels: set it
/// before processing starts.
void ForceTier(Tier tier);

/// Drops a ForceTier() override, returning to env/auto resolution.
void ClearForcedTier();

/// The per-tier kernel table. One function pointer per vectorized hot-path
/// kernel; semantics (and the exact FP operation order they must implement)
/// are specified in DESIGN.md §16.
struct Kernels {
  Tier tier = Tier::kScalar;

  /// out[i] = sum_k chips[k] * x[i+k], k ascending per output, for
  /// i in [0, n_out). Complex-by-real multiply-accumulate.
  void (*correlate_chips)(const cfloat* x, std::size_t n_out, const int* chips,
                          std::size_t n_chips, cfloat* out);

  /// out[n] = sum_k taps[k] * work[n + n_taps - 1 - k], k ascending per
  /// output, for n in [0, n_out). The FIR inner product over a contiguous
  /// [history | input] buffer.
  void (*fir_complex)(const cfloat* work, std::size_t n_out, const float* taps,
                      std::size_t n_taps, cfloat* out);

  /// out[i] = CanonicalAtan2(im(z), re(z)) with z = x[i+1] * conj(x[i])
  /// (naive complex product: re = ar*br + ai*bi, im = ai*br - ar*bi),
  /// for i in [0, n-1). Requires n >= 1.
  void (*phase_diff)(const cfloat* x, std::size_t n, float* out);

  /// out[i] = CanonicalAtan2(im(x[i]), re(x[i])) for i in [0, n).
  void (*instant_phase)(const cfloat* x, std::size_t n, float* out);

  /// Sum of FinitePower(x[i]) in the canonical 4-lane double accumulator
  /// model: lane j accumulates elements i with i % 4 == j over the body
  /// n - n % 4; lanes combine as (l0+l2)+(l1+l3); the tail is added
  /// sequentially after the combine.
  double (*sum_finite_power)(const cfloat* x, std::size_t n);

  /// out[i] = FinitePower(x[i]) = |x[i]|^2 with non-finite mapped to 0.
  void (*power_plane)(const cfloat* x, std::size_t n, float* out);

  /// Classifies each sample: non-finite re/im -> *nonfinite, else
  /// |re| >= rail or |im| >= rail -> *saturated. Pass rail = +inf to count
  /// only non-finite samples. Counts are added to the out-params.
  void (*health_scan)(const cfloat* x, std::size_t n, float rail,
                      std::uint64_t* nonfinite, std::uint64_t* saturated);

  /// Sum of x[i] * conj(x[i-1]) for i in [1, n) in the canonical 8-lane
  /// float accumulator model (DESIGN.md §16.2): product j of the body goes to
  /// lane j % 8; lanes combine as ((l0+l2)+(l4+l6)) + ((l1+l3)+(l5+l7));
  /// the tail is accumulated sequentially after the combine.
  cfloat (*conj_mul_sum)(const cfloat* x, std::size_t n);

  /// Rational polyphase resampling by interp/decim (L/M) over a contiguous
  /// [history | input] buffer holding n_taps - 1 history samples: for t in
  /// [0, n_out), with u = phase + t*decim,
  /// out[t] = sum_k taps[(u % L)*n_taps + k] * work[u / L + n_taps - 1 - k],
  /// k ascending per output (fir_complex's order on branch u % L). `taps` is
  /// L branches of n_taps >= 1 each.
  void (*resample)(const cfloat* work, std::size_t n_out, const float* taps,
                   std::size_t n_taps, std::size_t interp, std::size_t decim,
                   std::size_t phase, cfloat* out);
};

/// Kernel table of ActiveTier(). One relaxed atomic load; safe to call from
/// any thread.
[[nodiscard]] const Kernels& Active();

/// Kernel table of a specific tier (conformance tests compare tiers
/// pairwise). Throws std::runtime_error if unsupported.
[[nodiscard]] const Kernels& Table(Tier tier);

/// The canonical scalar atan2 every tier implements lane-wise: a branchless
/// cephes-style polynomial (|err| < 2 ulp vs libm) built only from IEEE
/// +,-,*,/ and bitwise selects, so identical operation sequences give
/// identical bits on every tier. Exposed for tests and for callers that need
/// single values consistent with the vector kernels.
[[nodiscard]] float CanonicalAtan2(float y, float x);

}  // namespace rfdump::dsp::simd
