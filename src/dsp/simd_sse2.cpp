// SSE2 tier of the dsp::simd kernel table: the 4-lane traits the shared
// kernel templates (simd_common.hpp) instantiate. Baseline x86-64: no extra
// compile flags (and therefore no possibility of FMA contraction). The
// deinterleave yields element order, and the 4-double lane model is a
// register pair.

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <cstddef>

#include "simd_common.hpp"

namespace rfdump::dsp::simd::detail {
namespace {

struct SseTraits {
  using VF = __m128;
  static constexpr std::size_t kWidth = 4;

  static VF Set1(float v) { return _mm_set1_ps(v); }
  static VF Add(VF a, VF b) { return _mm_add_ps(a, b); }
  static VF Sub(VF a, VF b) { return _mm_sub_ps(a, b); }
  static VF Mul(VF a, VF b) { return _mm_mul_ps(a, b); }
  static VF Div(VF a, VF b) { return _mm_div_ps(a, b); }
  static VF BitAnd(VF a, VF b) { return _mm_and_ps(a, b); }
  static VF BitOr(VF a, VF b) { return _mm_or_ps(a, b); }
  static VF BitXor(VF a, VF b) { return _mm_xor_ps(a, b); }
  static VF Abs(VF a) {
    return _mm_and_ps(a, _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF)));
  }
  static VF CmpGT(VF a, VF b) { return _mm_cmpgt_ps(a, b); }
  static VF CmpLT(VF a, VF b) { return _mm_cmplt_ps(a, b); }
  static VF CmpEQ(VF a, VF b) { return _mm_cmpeq_ps(a, b); }
  static VF CmpGE(VF a, VF b) { return _mm_cmpge_ps(a, b); }
  static int MoveMask(VF a) { return _mm_movemask_ps(a); }
  static VF Blend(VF mask, VF a, VF b) {
    return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
  }

  static VF Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, VF v) { _mm_storeu_ps(p, v); }
  static void Deinterleave(const cfloat* x, VF& re, VF& im) {
    const __m128 v0 = _mm_loadu_ps(F(x));      // re0 im0 re1 im1
    const __m128 v1 = _mm_loadu_ps(F(x) + 4);  // re2 im2 re3 im3
    re = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));  // re0 re1 re2 re3
    im = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));  // im0 im1 im2 im3
  }
  static void StoreOrdered(float* p, VF v) { _mm_storeu_ps(p, v); }

  struct VD4 {
    __m128d lo, hi;  // lanes {0,1} and {2,3}
  };
  static VD4 ZeroD4() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static VD4 AccumulateD4(VD4 acc, VF p) {
    return {_mm_add_pd(acc.lo, _mm_cvtps_pd(p)),
            _mm_add_pd(acc.hi, _mm_cvtps_pd(_mm_movehl_ps(p, p)))};
  }
  static void StoreD4(double* out, VD4 acc) {
    _mm_storeu_pd(out, acc.lo);
    _mm_storeu_pd(out + 2, acc.hi);
  }
};

}  // namespace

const Kernels kSse2Kernels = MakeKernels<SseTraits>(Tier::kSse2);

}  // namespace rfdump::dsp::simd::detail

#endif  // x86
