// AVX2 tier of the dsp::simd kernel table: the 8-lane traits the shared
// kernel templates (simd_common.hpp) instantiate. This TU is compiled with
// -mavx2 ONLY — never -mfma — so FMA contraction is impossible and every
// multiply and add rounds separately, exactly like the scalar tier
// (DESIGN.md §16).
//
// The in-register deinterleave (_mm256_shuffle_ps acting per 128-bit lane)
// produces element order [0,1,4,5,2,3,6,7]. StoreOrdered undoes it with the
// self-inverse _mm256_permutevar8x32_ps, and AccumulateD4 regroups the halves
// so each double lane still adds its elements in ascending order.

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

#include "simd_common.hpp"

namespace rfdump::dsp::simd::detail {
namespace {

struct AvxTraits {
  using VF = __m256;
  static constexpr std::size_t kWidth = 8;

  static VF Set1(float v) { return _mm256_set1_ps(v); }
  static VF Add(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF Sub(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF Mul(VF a, VF b) { return _mm256_mul_ps(a, b); }
  static VF Div(VF a, VF b) { return _mm256_div_ps(a, b); }
  static VF BitAnd(VF a, VF b) { return _mm256_and_ps(a, b); }
  static VF BitOr(VF a, VF b) { return _mm256_or_ps(a, b); }
  static VF BitXor(VF a, VF b) { return _mm256_xor_ps(a, b); }
  static VF Abs(VF a) {
    return _mm256_and_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
  }
  static VF CmpGT(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static VF CmpLT(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static VF CmpEQ(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static VF CmpGE(VF a, VF b) { return _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
  static int MoveMask(VF a) { return _mm256_movemask_ps(a); }
  static VF Blend(VF mask, VF a, VF b) { return _mm256_blendv_ps(b, a, mask); }

  static VF Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, VF v) { _mm256_storeu_ps(p, v); }
  /// re/im planes in element order [0,1,4,5,2,3,6,7].
  static void Deinterleave(const cfloat* x, VF& re, VF& im) {
    const __m256 v0 = _mm256_loadu_ps(F(x));      // elements 0..3 interleaved
    const __m256 v1 = _mm256_loadu_ps(F(x) + 8);  // elements 4..7 interleaved
    re = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
    im = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
  }
  static void StoreOrdered(float* p, VF v) {
    const __m256i perm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    _mm256_storeu_ps(p, _mm256_permutevar8x32_ps(v, perm));
  }

  using VD4 = __m256d;
  static VD4 ZeroD4() { return _mm256_setzero_pd(); }
  static VD4 AccumulateD4(VD4 acc, VF p) {
    // p holds elements [0,1,4,5 | 2,3,6,7]; as 64-bit pairs, unpacklo gives
    // elements 0..3 and unpackhi elements 4..7.
    const __m128d lo = _mm_castps_pd(_mm256_castps256_ps128(p));
    const __m128d hi = _mm_castps_pd(_mm256_extractf128_ps(p, 1));
    acc = _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_castpd_ps(_mm_unpacklo_pd(lo, hi))));
    return _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_castpd_ps(_mm_unpackhi_pd(lo, hi))));
  }
  static void StoreD4(double* out, VD4 acc) { _mm256_storeu_pd(out, acc); }
};

}  // namespace

const Kernels kAvx2Kernels = MakeKernels<AvxTraits>(Tier::kAvx2);
const bool kAvx2Built = true;

}  // namespace rfdump::dsp::simd::detail

#elif defined(__x86_64__) || defined(__i386__)
// Built without -mavx2 (a toolchain where the per-source flag doesn't
// apply): keep the dispatcher linking but report the tier as unbuilt so
// TierSupported(kAvx2) is false regardless of what CPUID says.
#include "simd_common.hpp"
namespace rfdump::dsp::simd::detail {
const Kernels kAvx2Kernels = {};
const bool kAvx2Built = false;
}  // namespace rfdump::dsp::simd::detail
#endif
