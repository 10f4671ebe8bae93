// The symmetric int8 grid of the quantized conv path (nn/quantized.cpp).
#ifndef NN_INT8_GRID_H_
#define NN_INT8_GRID_H_

#include <emmintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace nn {

// Snaps v onto the int8 grid whose step is 1 / inv_scale (scale = amax /
// 127), rounding half away from zero: add copysign(0.5, q), clamp in float
// to ±127, truncate. For every finite q = v * inv_scale this is the same
// integer as truncate(q ± 0.5) clamped to ±127, ±0 and the ±x.5 ties
// included, and it has no data-dependent branch.
inline std::int16_t SnapToGrid(float v, float inv_scale) {
  float q = v * inv_scale;
  q += std::copysign(0.5f, q);
  q = q < 127.0f ? q : 127.0f;
  q = q > -127.0f ? q : -127.0f;
  return static_cast<std::int16_t>(static_cast<int>(q));
}

// SnapToGrid over n floats, eight per step in SSE2: MINPS/MAXPS compute the
// clamp's selects exactly (NaN included), and PACKSSDW narrows values that
// are already within ±127. GCC cannot vectorize the scalar form itself: it
// turns the clamp into a branch or pushes it past the conversion.
inline void QuantizeToGrid(const float* in, std::int16_t* out, std::size_t n,
                           float inv_scale) {
  const __m128 inv = _mm_set1_ps(inv_scale);
  const __m128 sign = _mm_set1_ps(-0.0f);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 hi = _mm_set1_ps(127.0f);
  const __m128 lo = _mm_set1_ps(-127.0f);
  const auto snap4 = [&](const float* p) {
    __m128 q = _mm_mul_ps(_mm_loadu_ps(p), inv);
    q = _mm_add_ps(q, _mm_or_ps(_mm_and_ps(q, sign), half));
    q = _mm_max_ps(_mm_min_ps(q, hi), lo);
    return _mm_cvttps_epi32(q);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi32(snap4(in + i), snap4(in + i + 4)));
  }
  for (; i < n; ++i) out[i] = SnapToGrid(in[i], inv_scale);
}

}  // namespace nn

#endif  // NN_INT8_GRID_H_
