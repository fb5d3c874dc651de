#pragma once
// Tier-shared implementation of the dsp::simd kernels (DESIGN.md §16).
//
// Each kernel exists twice: a scalar reference (the scalar tier, built in
// simd.cpp, and the per-element tail helpers below) and ONE vector template
// over a tier-traits class. simd_sse2.cpp and simd_avx2.cpp define only their
// traits and instantiate every template into their Kernels table. The traits
// supply the lane math (plain IEEE-754 ops and *bitwise* selects mirroring
// blendv) plus the few operations whose shape depends on the register:
// interleaved load/store, deinterleave into the tier's natural lane order and
// the StoreOrdered that undoes it, compare-to-bitmask, and the 4-double-lane
// accumulate of sum_finite_power. Because IEEE +,-,*,/ are correctly rounded
// and therefore identical per lane on every tier, and because the lane model
// (which element lands in which accumulator, and the exact combine tree) is
// fixed here once, all tiers produce bit-identical output. Two rules keep
// this true:
//
//   1. No tier may be compiled with FMA contraction (the AVX2 TU is built
//      with -mavx2 but NOT -mfma; intrinsics use separate mul + add).
//   2. Reductions use the fixed virtual-lane model below — never a tier's
//      "natural" width — so changing the register width cannot change the
//      FP association.
//
// Per-output kernels (correlate_chips, fir_complex, resample) accumulate in
// ascending k order per output, which is the exact order of the pre-SIMD
// scalar code: those kernels are additionally bit-identical to the
// historical seed path.
//
// Linkage rule: apart from the tier-table declarations, everything here has
// internal linkage. Each tier TU compiles its own copy with its own flags. A
// helper with external linkage is a weak symbol in every TU that emits it,
// the -mavx2 one included, and the linker may keep that VEX-encoded copy for
// the SSE2 tier's tails: SIGILL on a CPU without AVX. The
// `dsp_simd_tier_linkage` test checks the tier objects export nothing but
// their table. (`inline` below only keeps TUs that skip a helper free of
// unused-function warnings.)

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp::simd::detail {

// One definition each: scalar in simd.cpp, SSE2/AVX2 in their own TUs.
extern const Kernels kScalarKernels;
#if defined(__x86_64__) || defined(__i386__)
extern const Kernels kSse2Kernels;
extern const Kernels kAvx2Kernels;
extern const bool kAvx2Built;  // false if simd_avx2.cpp lost its -mavx2 flag
#endif

namespace {

// ------------------------------------------------------------ scalar traits
//
// One lane; masks are all-ones/all-zeros float bit patterns so Blend/And/Xor
// mirror the bitwise SSE/AVX select semantics exactly (including NaN payload
// propagation through a select).

struct ScalarTraits {
  using VF = float;
  static constexpr std::size_t kWidth = 1;

  static VF Set1(float v) { return v; }
  static VF Add(VF a, VF b) { return a + b; }
  static VF Sub(VF a, VF b) { return a - b; }
  static VF Mul(VF a, VF b) { return a * b; }
  static VF Div(VF a, VF b) { return a / b; }

  static VF BitAnd(VF a, VF b) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) &
                                std::bit_cast<std::uint32_t>(b));
  }
  static VF BitXor(VF a, VF b) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) ^
                                std::bit_cast<std::uint32_t>(b));
  }
  static VF Abs(VF a) { return BitAnd(a, std::bit_cast<float>(0x7FFFFFFFu)); }

  static VF CmpGT(VF a, VF b) {
    return std::bit_cast<float>(a > b ? 0xFFFFFFFFu : 0u);
  }
  static VF CmpLT(VF a, VF b) {
    return std::bit_cast<float>(a < b ? 0xFFFFFFFFu : 0u);
  }
  static VF CmpEQ(VF a, VF b) {
    return std::bit_cast<float>(a == b ? 0xFFFFFFFFu : 0u);
  }
  /// mask ? a : b, bitwise per lane (blendv semantics).
  static VF Blend(VF mask, VF a, VF b) {
    const auto m = std::bit_cast<std::uint32_t>(mask);
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                                (std::bit_cast<std::uint32_t>(b) & ~m));
  }
};

// ------------------------------------------------------- canonical atan2
//
// Branchless cephes-style atan2 on [0, pi]: reduce to t = min/max in [0, 1],
// fold t > tan(pi/8) to (t-1)/(t+1), degree-7 odd polynomial, then undo the
// octant folds with selects. Only +,-,*,/ and bitwise ops — every tier
// executes this exact sequence per lane. Accuracy ~2 ulp vs libm atan2f.
//
// Signed-zero/edge semantics (deterministic on every tier):
//   atan2(+-0, x>0) = +-0        atan2(+-0, x<0)  = +-pi
//   atan2(+-0, +-0) = +-0        (libm: atan2(0,-0) = pi; we return 0)
//   NaN in -> NaN out.

template <class T>
typename T::VF Atan2(typename T::VF y, typename T::VF x) {
  using VF = typename T::VF;
  const VF kZero = T::Set1(0.0f);
  const VF kOne = T::Set1(1.0f);
  const VF kPiV = T::Set1(3.14159265358979323846f);
  const VF kPi2 = T::Set1(1.57079632679489661923f);
  const VF kPi4 = T::Set1(0.78539816339744830962f);
  const VF kTanPi8 = T::Set1(0.4142135623730950488f);

  const VF ax = T::Abs(x);
  const VF ay = T::Abs(y);
  // t = min/max in [0, 1]; remember whether we swapped (angle > pi/4).
  const VF swap_mask = T::CmpGT(ay, ax);
  const VF num = T::Blend(swap_mask, ax, ay);
  const VF den = T::Blend(swap_mask, ay, ax);
  VF t = T::Div(num, den);
  // Both zero -> 0/0 = NaN; define the angle magnitude as 0 instead.
  t = T::Blend(T::CmpEQ(den, kZero), kZero, t);
  // Second reduction: t in (tan(pi/8), 1] -> (t-1)/(t+1) in (-0.414..., 0].
  const VF red_mask = T::CmpGT(t, kTanPi8);
  const VF tr = T::Div(T::Sub(t, kOne), T::Add(t, kOne));
  t = T::Blend(red_mask, tr, t);
  const VF base = T::BitAnd(red_mask, kPi4);  // pi/4 where reduced, else 0
  // Cephes atanf polynomial on |t| <= tan(pi/8).
  const VF z = T::Mul(t, t);
  VF p = T::Set1(8.05374449538e-2f);
  p = T::Sub(T::Mul(p, z), T::Set1(1.38776856032e-1f));
  p = T::Add(T::Mul(p, z), T::Set1(1.99777106478e-1f));
  p = T::Sub(T::Mul(p, z), T::Set1(3.33329491539e-1f));
  VF r = T::Add(T::Add(T::Mul(T::Mul(p, z), t), t), base);
  // Undo the min/max swap: angle = pi/2 - angle.
  r = T::Blend(swap_mask, T::Sub(kPi2, r), r);
  // Left half plane: angle = pi - angle. (Uses x < 0, so x = -0 stays right.)
  r = T::Blend(T::CmpLT(x, kZero), T::Sub(kPiV, r), r);
  // Copy y's sign bit onto the angle (handles y = -0 like libm).
  r = T::BitXor(r, T::BitAnd(y, T::Set1(-0.0f)));
  return r;
}

/// z = a * conj(b), naive product (no __mulsc3 NaN recovery): for finite
/// inputs this matches std::complex operator* bit-for-bit.
template <class T>
void ConjProduct(typename T::VF ar, typename T::VF ai, typename T::VF br,
                 typename T::VF bi, typename T::VF& re, typename T::VF& im) {
  re = T::Add(T::Mul(ar, br), T::Mul(ai, bi));
  im = T::Sub(T::Mul(ai, br), T::Mul(ar, bi));
}

// ------------------------------------------------ per-element scalar helpers
//
// Shared by the scalar tier (whole range) and by the vector tiers (tails).
// Per-element kernels are trivially bit-identical between a 1-lane and a
// W-lane execution of the same op sequence; these helpers ARE that 1-lane
// execution.

inline float ScalarAtan2(float y, float x) {
  return Atan2<ScalarTraits>(y, x);
}

inline void ScalarConjProduct(cfloat a, cfloat b, float& re, float& im) {
  ConjProduct<ScalarTraits>(a.real(), a.imag(), b.real(), b.imag(), re, im);
}

inline cfloat ScalarCorrelateOne(const cfloat* x, const int* chips,
                                 std::size_t n_chips) {
  cfloat acc{0.0f, 0.0f};
  for (std::size_t k = 0; k < n_chips; ++k) {
    const float c = static_cast<float>(chips[k]);
    acc = cfloat(acc.real() + c * x[k].real(), acc.imag() + c * x[k].imag());
  }
  return acc;
}

inline cfloat ScalarFirOne(const cfloat* x, const float* taps,
                           std::size_t n_taps) {
  // y = sum_k taps[k] * x[n_taps - 1 - k], k ascending (the seed FIR order).
  cfloat acc{0.0f, 0.0f};
  for (std::size_t k = 0; k < n_taps; ++k) {
    const cfloat v = x[n_taps - 1 - k];
    acc = cfloat(acc.real() + taps[k] * v.real(),
                 acc.imag() + taps[k] * v.imag());
  }
  return acc;
}

/// Outputs [t_begin, t_end) of the resample kernel, one ScalarFirOne each:
/// output t reads branch u % L over work[u / L, u / L + n_taps) with
/// u = phase + t*decim, stepped without a division per output.
inline void ScalarResampleRange(const cfloat* work, std::size_t t_begin,
                                std::size_t t_end, const float* taps,
                                std::size_t n_taps, std::size_t interp,
                                std::size_t decim, std::size_t phase,
                                cfloat* out) {
  const std::size_t u = phase + t_begin * decim;
  std::size_t i = u / interp;
  std::size_t p = u % interp;
  for (std::size_t t = t_begin; t < t_end; ++t) {
    out[t] = ScalarFirOne(work + i, taps + p * n_taps, n_taps);
    i += decim / interp;
    p += decim % interp;
    if (p >= interp) {
      p -= interp;
      ++i;
    }
  }
}

inline float ScalarPhaseDiffOne(cfloat prev, cfloat cur) {
  float re, im;
  ScalarConjProduct(cur, prev, re, im);
  return ScalarAtan2(im, re);
}

inline float ScalarInstantPhaseOne(cfloat v) {
  return ScalarAtan2(v.imag(), v.real());
}

/// FinitePower with the select expressed exactly as the vector tiers do:
/// p < +inf keeps p (NaN and +inf fail the compare and map to 0), which is
/// value-identical to std::isfinite(p) ? p : 0 for p = re^2 + im^2 >= 0.
inline float ScalarFinitePower(cfloat v) {
  const float t0 = v.real() * v.real();
  const float t1 = v.imag() * v.imag();
  const float p = t0 + t1;
  return p < std::numeric_limits<float>::infinity() ? p : 0.0f;
}

inline void ScalarHealthOne(cfloat v, float rail, std::uint64_t& nonfinite,
                            std::uint64_t& saturated) {
  const float are = ScalarTraits::Abs(v.real());
  const float aim = ScalarTraits::Abs(v.imag());
  const float inf = std::numeric_limits<float>::infinity();
  if (!(are < inf) || !(aim < inf)) {
    ++nonfinite;
  } else if (are >= rail || aim >= rail) {
    ++saturated;
  }
}

// ------------------------------------------------ canonical reduction tails
//
// The lane combine and sequential tail of the two reductions (DESIGN.md
// §16), shared by the scalar tier and the vector templates so the combine
// tree is written once.

/// 4-lane double model, one group: x[j] goes to lane l[j].
inline void AddPowerGroup4(double* l, const cfloat* x) {
  for (std::size_t j = 0; j < 4; ++j) {
    l[j] += static_cast<double>(ScalarFinitePower(x[j]));
  }
}

/// 4-lane double model: lanes l[0..3] hold body [0, body); combine
/// (l0+l2)+(l1+l3), then add x[body, n) sequentially.
inline double FinishSumFinitePower(const double* l, const cfloat* x,
                                   std::size_t body, std::size_t n) {
  double sum = (l[0] + l[2]) + (l[1] + l[3]);
  for (std::size_t i = body; i < n; ++i) {
    sum += static_cast<double>(ScalarFinitePower(x[i]));
  }
  return sum;
}

/// 8-lane float model: lanes re/im[0..7] hold products [0, body); combine
/// ((l0+l2)+(l4+l6)) + ((l1+l3)+(l5+l7)), then add products [body, products)
/// sequentially.
inline cfloat FinishConjMulSum(const float* re, const float* im,
                               const cfloat* x, std::size_t body,
                               std::size_t products) {
  float sr = ((re[0] + re[2]) + (re[4] + re[6])) +
             ((re[1] + re[3]) + (re[5] + re[7]));
  float si = ((im[0] + im[2]) + (im[4] + im[6])) +
             ((im[1] + im[3]) + (im[5] + im[7]));
  for (std::size_t j = body; j < products; ++j) {
    float pr, pi;
    ScalarConjProduct(x[j + 1], x[j], pr, pi);
    sr += pr;
    si += pi;
  }
  return {sr, si};
}

// -------------------------------------------------------- vector templates
//
// The SSE2 and AVX2 kernel bodies, one per kernel. Beyond the lane math of
// ScalarTraits, a vector traits class T provides:
//   Load/Store(p)         kWidth floats, unaligned (kWidth/2 interleaved
//                         complex samples);
//   Deinterleave(x,re,im) kWidth samples split into re/im planes, in the
//                         tier's natural lane order;
//   StoreOrdered(p, v)    stores a deinterleaved plane in element order;
//   BitOr, CmpGE, MoveMask(v) -> int (lane i's sign bit at bit i);
//   VD4, ZeroD4, StoreD4  4 double lanes for sum_finite_power, and
//   AccumulateD4(acc, p)  which adds a deinterleaved power plane to them,
//                         element i to lane i % 4, in ascending element
//                         order.

template <class T>
typename T::VF FinitePower(typename T::VF re, typename T::VF im) {
  const auto p = T::Add(T::Mul(re, re), T::Mul(im, im));
  const auto inf = T::Set1(std::numeric_limits<float>::infinity());
  return T::BitAnd(T::CmpLT(p, inf), p);
}

inline const float* F(const cfloat* p) {
  return reinterpret_cast<const float*>(p);
}
inline float* F(cfloat* p) { return reinterpret_cast<float*>(p); }

template <class T>
void CorrelateChips(const cfloat* x, std::size_t n_out, const int* chips,
                    std::size_t n_chips, cfloat* out) {
  constexpr std::size_t kOuts = T::kWidth / 2;  // complex outputs per register
  const std::size_t body = n_out - n_out % kOuts;
  for (std::size_t i = 0; i < body; i += kOuts) {
    auto acc = T::Set1(0.0f);
    for (std::size_t k = 0; k < n_chips; ++k) {
      const auto c = T::Set1(static_cast<float>(chips[k]));
      acc = T::Add(acc, T::Mul(c, T::Load(F(x + i + k))));
    }
    T::Store(F(out + i), acc);
  }
  for (std::size_t i = body; i < n_out; ++i) {
    out[i] = ScalarCorrelateOne(x + i, chips, n_chips);
  }
}

template <class T>
void FirComplex(const cfloat* work, std::size_t n_out, const float* taps,
                std::size_t n_taps, cfloat* out) {
  constexpr std::size_t kOuts = T::kWidth / 2;
  const std::size_t body = n_out - n_out % kOuts;
  for (std::size_t n = 0; n < body; n += kOuts) {
    auto acc = T::Set1(0.0f);
    for (std::size_t k = 0; k < n_taps; ++k) {
      const cfloat* v = work + n + (n_taps - 1 - k);
      acc = T::Add(acc, T::Mul(T::Set1(taps[k]), T::Load(F(v))));
    }
    T::Store(F(out + n), acc);
  }
  for (std::size_t n = body; n < n_out; ++n) {
    out[n] = ScalarFirOne(work + n, taps, n_taps);
  }
}

template <class T>
void PhaseDiff(const cfloat* x, std::size_t n, float* out) {
  const std::size_t n_out = n == 0 ? 0 : n - 1;
  const std::size_t body = n_out - n_out % T::kWidth;
  for (std::size_t i = 0; i < body; i += T::kWidth) {
    typename T::VF pr, pi, cr, ci, zr, zi;
    T::Deinterleave(x + i, pr, pi);
    T::Deinterleave(x + i + 1, cr, ci);
    ConjProduct<T>(cr, ci, pr, pi, zr, zi);
    T::StoreOrdered(out + i, Atan2<T>(zi, zr));
  }
  for (std::size_t i = body; i < n_out; ++i) {
    out[i] = ScalarPhaseDiffOne(x[i], x[i + 1]);
  }
}

template <class T>
void InstantPhase(const cfloat* x, std::size_t n, float* out) {
  const std::size_t body = n - n % T::kWidth;
  for (std::size_t i = 0; i < body; i += T::kWidth) {
    typename T::VF re, im;
    T::Deinterleave(x + i, re, im);
    T::StoreOrdered(out + i, Atan2<T>(im, re));
  }
  for (std::size_t i = body; i < n; ++i) out[i] = ScalarInstantPhaseOne(x[i]);
}

/// Canonical 4-lane double model; a tier wider than 4 finishes the last
/// whole group of 4 in scalar lanes, which round exactly like vector lanes.
template <class T>
double SumFinitePower(const cfloat* x, std::size_t n) {
  auto acc = T::ZeroD4();
  const std::size_t vbody = n - n % T::kWidth;
  for (std::size_t i = 0; i < vbody; i += T::kWidth) {
    typename T::VF re, im;
    T::Deinterleave(x + i, re, im);
    acc = T::AccumulateD4(acc, FinitePower<T>(re, im));
  }
  alignas(32) double l[4];
  T::StoreD4(l, acc);
  const std::size_t body = n - n % 4;
  for (std::size_t i = vbody; i < body; i += 4) AddPowerGroup4(l, x + i);
  return FinishSumFinitePower(l, x, body, n);
}

template <class T>
void PowerPlane(const cfloat* x, std::size_t n, float* out) {
  const std::size_t body = n - n % T::kWidth;
  for (std::size_t i = 0; i < body; i += T::kWidth) {
    typename T::VF re, im;
    T::Deinterleave(x + i, re, im);
    T::StoreOrdered(out + i, FinitePower<T>(re, im));
  }
  for (std::size_t i = body; i < n; ++i) out[i] = ScalarFinitePower(x[i]);
}

template <class T>
void HealthScan(const cfloat* x, std::size_t n, float rail,
                std::uint64_t* nonfinite, std::uint64_t* saturated) {
  constexpr int kAllLanes = (1 << T::kWidth) - 1;
  const auto inf = T::Set1(std::numeric_limits<float>::infinity());
  const auto rail_v = T::Set1(rail);
  std::uint64_t nf = 0, sat = 0;
  const std::size_t body = n - n % T::kWidth;
  for (std::size_t i = 0; i < body; i += T::kWidth) {
    typename T::VF re, im;
    T::Deinterleave(x + i, re, im);  // lane order irrelevant: we only count
    const auto are = T::Abs(re);
    const auto aim = T::Abs(im);
    // finite: both |re| < inf and |im| < inf (NaN fails the ordered compare).
    const auto finite = T::BitAnd(T::CmpLT(are, inf), T::CmpLT(aim, inf));
    const auto hot = T::BitOr(T::CmpGE(are, rail_v), T::CmpGE(aim, rail_v));
    const int fin_m = T::MoveMask(finite);
    const int sat_m = T::MoveMask(T::BitAnd(finite, hot));
    nf += static_cast<unsigned>(__builtin_popcount(~fin_m & kAllLanes));
    sat += static_cast<unsigned>(__builtin_popcount(sat_m));
  }
  for (std::size_t i = body; i < n; ++i) ScalarHealthOne(x[i], rail, nf, sat);
  *nonfinite += nf;
  *saturated += sat;
}

/// Canonical 8-lane float model: 8 / kWidth register pairs per group of 8
/// products; StoreOrdered puts every accumulator lane at its canonical index.
template <class T>
cfloat ConjMulSum(const cfloat* x, std::size_t n) {
  if (n < 2) return {0.0f, 0.0f};
  constexpr std::size_t kW = T::kWidth;
  constexpr std::size_t kRegs = 8 / kW;
  static_assert(kRegs * kW == 8, "the lane model has 8 float lanes");
  typename T::VF acc_re[kRegs], acc_im[kRegs];
  for (std::size_t r = 0; r < kRegs; ++r) {
    acc_re[r] = T::Set1(0.0f);
    acc_im[r] = T::Set1(0.0f);
  }
  const std::size_t products = n - 1;
  const std::size_t body = products - products % 8;
  for (std::size_t j = 0; j < body; j += 8) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < kRegs; ++r) {
      typename T::VF pr, pi, cr, ci, zr, zi;
      T::Deinterleave(x + j + r * kW, pr, pi);
      T::Deinterleave(x + j + r * kW + 1, cr, ci);
      ConjProduct<T>(cr, ci, pr, pi, zr, zi);
      acc_re[r] = T::Add(acc_re[r], zr);
      acc_im[r] = T::Add(acc_im[r], zi);
    }
  }
  alignas(32) float re[8], im[8];
  for (std::size_t r = 0; r < kRegs; ++r) {
    T::StoreOrdered(re + r * kW, acc_re[r]);
    T::StoreOrdered(im + r * kW, acc_im[r]);
  }
  return FinishConjMulSum(re, im, x, body, products);
}

// Resample geometry (DESIGN.md §16): with g = gcd(L, M), every period of
// P = L/g outputs consumes S = M/g inputs, and output j of each period uses
// the same branch and the same input offset. A chunk of periods is split into
// S stride-S planes (plane r, entry e = work[(q0 + e)*S + r]), so each
// (position, tap) term of consecutive periods is one contiguous load.
inline constexpr std::size_t kResamplePlaneSamples = 2048;  // 16 KiB
inline constexpr std::size_t kResampleMaxPeriod = 64;
inline constexpr std::size_t kResampleMaxTerms = 1024;
inline constexpr std::size_t kResampleRegs = 4;  // registers per block

/// R registers of kWidth/2 periods each from planes entry e0 on: output j of
/// every period accumulates taps tp[j][k] * plane term off[j*K + k], k
/// ascending, then the block is written to out in output order. The planes
/// and the block are float pairs (re, im): a cfloat array would be
/// zero-filled on every call.
template <class T, std::size_t R>
void ResampleBlock(const float* planes, std::size_t e0,
                   const std::uint32_t* off, const float* const* tp,
                   std::size_t period, std::size_t n_taps, cfloat* out) {
  constexpr std::size_t kOuts = T::kWidth / 2;
  constexpr std::size_t kPeriods = R * kOuts;
  alignas(32) float block[2 * kResampleMaxPeriod * kPeriods];
  for (std::size_t j = 0; j < period; ++j) {
    typename T::VF acc[R];
    for (std::size_t r = 0; r < R; ++r) acc[r] = T::Set1(0.0f);
    const float* taps = tp[j];
    const std::uint32_t* o = off + j * n_taps;
    for (std::size_t k = 0; k < n_taps; ++k) {
      const auto t = T::Set1(taps[k]);
      const float* src = planes + 2 * (o[k] + e0);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = T::Add(acc[r], T::Mul(t, T::Load(src + r * T::kWidth)));
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      T::Store(block + 2 * j * kPeriods + r * T::kWidth, acc[r]);
    }
  }
  for (std::size_t q = 0; q < kPeriods; ++q) {
    for (std::size_t j = 0; j < period; ++j) {
      const float* v = block + 2 * (j * kPeriods + q);
      out[q * period + j] = cfloat(v[0], v[1]);
    }
  }
}

/// Vectorizes across periods: each register holds one position of kWidth/2
/// consecutive periods. Whole register groups of periods run through the
/// planes; the remaining outputs, and geometries too large for the stack
/// tables, take ScalarResampleRange.
template <class T>
void Resample(const cfloat* work, std::size_t n_out, const float* taps,
              std::size_t n_taps, std::size_t interp, std::size_t decim,
              std::size_t phase, cfloat* out) {
  constexpr std::size_t kOuts = T::kWidth / 2;
  const std::size_t g = std::gcd(interp, decim);
  const std::size_t period = interp / g;
  const std::size_t stride = decim / g;
  std::size_t done = 0;
  if (period <= kResampleMaxPeriod && period * n_taps <= kResampleMaxTerms) {
    const float* tp[kResampleMaxPeriod];
    std::size_t first[kResampleMaxPeriod];
    for (std::size_t j = 0; j < period; ++j) {
      const std::size_t u = phase + j * decim;
      tp[j] = taps + (u % interp) * n_taps;
      first[j] = u / interp;
    }
    // A period's outputs read its inputs at offsets [0, reach].
    const std::size_t reach = first[period - 1] + n_taps - 1;
    const std::size_t rows = kResamplePlaneSamples / stride;
    const std::size_t chunk =
        rows > reach / stride ? (rows - reach / stride) / kOuts * kOuts : 0;
    if (chunk > 0) {
      const std::size_t plane_len = chunk + reach / stride;
      std::uint32_t off[kResampleMaxTerms];
      for (std::size_t j = 0; j < period; ++j) {
        for (std::size_t k = 0; k < n_taps; ++k) {
          const std::size_t c = first[j] + n_taps - 1 - k;
          off[j * n_taps + k] =
              static_cast<std::uint32_t>((c % stride) * plane_len + c / stride);
        }
      }
      alignas(32) float planes[2 * kResamplePlaneSamples];
      const std::size_t periods = n_out / period / kOuts * kOuts;
      for (std::size_t q0 = 0; q0 < periods; q0 += chunk) {
        const std::size_t nq = std::min(chunk, periods - q0);
        const float* src = F(work + q0 * stride);
        const std::size_t span = (nq - 1) * stride + reach + 1;
        for (std::size_t e = 0; e * stride < span; ++e) {
          const std::size_t r_end = std::min(stride, span - e * stride);
          for (std::size_t r = 0; r < r_end; ++r) {
            float* dst = planes + 2 * (r * plane_len + e);
            dst[0] = src[2 * (e * stride + r)];
            dst[1] = src[2 * (e * stride + r) + 1];
          }
        }
        std::size_t q = 0;
        for (; q + kResampleRegs * kOuts <= nq; q += kResampleRegs * kOuts) {
          ResampleBlock<T, kResampleRegs>(planes, q, off, tp, period, n_taps,
                                          out + (q0 + q) * period);
        }
        for (; q < nq; q += kOuts) {
          ResampleBlock<T, 1>(planes, q, off, tp, period, n_taps,
                              out + (q0 + q) * period);
        }
      }
      done = periods * period;
    }
  }
  ScalarResampleRange(work, done, n_out, taps, n_taps, interp, decim, phase,
                      out);
}

/// The tier's kernel table: every field an instantiation of the template
/// above.
template <class T>
constexpr Kernels MakeKernels(Tier tier) {
  return {tier,           &CorrelateChips<T>, &FirComplex<T>,
          &PhaseDiff<T>,  &InstantPhase<T>,   &SumFinitePower<T>,
          &PowerPlane<T>, &HealthScan<T>,     &ConjMulSum<T>,
          &Resample<T>};
}

}  // namespace
}  // namespace rfdump::dsp::simd::detail
