#include "kernels/gemm.h"

#include <emmintrin.h>

#include "kernels/gemm_s16_body.h"

namespace kernels {

namespace cpublas {

void Sgemm(const float* a, const float* b, float* c, GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  // Deliberately the textbook i-j-k loop: single-threaded with a stride-N
  // inner access pattern. This is the "CPU library" reference point whose
  // gap to the device kernels Figure 7 reports.
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < s.k; ++kk) {
        acc += a[static_cast<std::size_t>(i) * s.k + kk] *
               b[static_cast<std::size_t>(kk) * s.n + j];
      }
      c[static_cast<std::size_t>(i) * s.n + j] = acc;
    }
  }
}

}  // namespace cpublas

namespace micro {

// Defined in gemm_avx2.cpp (built with -mavx2) and gemm_avx512vnni.cpp
// (built with -mavx512vnni -mavx512vl); called only after dispatch.
void GemmS16S32Avx2(const std::int16_t* a, const std::int16_t* b,
                    std::int32_t* c, GemmShape padded);
void GemmS16S32Avx512Vnni(const std::int16_t* a, const std::int16_t* b,
                          std::int32_t* c, GemmShape padded);

namespace {

struct Sse2 {
  using Reg = __m128i;
  static constexpr int kLanes = 4;
  static Reg Zero() { return _mm_setzero_si128(); }
  static Reg Load(const std::int16_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void Store(std::int32_t* p, Reg v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static Reg Broadcast(std::int32_t v) { return _mm_set1_epi32(v); }
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm_add_epi32(acc, _mm_madd_epi16(a, b));
  }
};

void GemmS16S32Sse2(const std::int16_t* a, const std::int16_t* b,
                    std::int32_t* c, GemmShape s) {
  GemmS16S32Body<Sse2>(a, b, c, s.m, s.n, s.k);
}

}  // namespace

std::span<const GemmS16S32Variant> GemmS16S32Variants() {
  static const GemmS16S32Variant variants[] = {
      {"sse2", &GemmS16S32Sse2, true},
      {"avx2", &GemmS16S32Avx2, __builtin_cpu_supports("avx2") != 0},
      {"avx512vnni", &GemmS16S32Avx512Vnni,
       __builtin_cpu_supports("avx512vnni") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0},
  };
  return variants;
}

// The widest supported instantiation, picked once.
const GemmS16S32Variant& GemmS16S32Dispatched() {
  static const GemmS16S32Variant* const picked = [] {
    const GemmS16S32Variant* best = nullptr;
    for (const GemmS16S32Variant& v : GemmS16S32Variants()) {
      if (v.supported) best = &v;
    }
    return best;
  }();
  return *picked;
}

void GemmS16S32(const std::int16_t* a, const std::int16_t* b,
                std::int32_t* c, GemmShape padded) {
  CERTKIT_CHECK(padded.m > 0 && padded.n > 0 && padded.k > 0);
  CERTKIT_CHECK(padded.m % kTileM == 0 && padded.n % kTileN == 0 &&
                padded.k % 2 == 0);
  GemmS16S32Dispatched().gemm(a, b, c, padded);
}

}  // namespace micro

}  // namespace kernels
