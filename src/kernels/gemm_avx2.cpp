// The AVX2 instantiation of micro::GemmS16S32's body. This unit alone is
// built with -mavx2, and GemmS16S32 calls into it only on a CPU that
// reports AVX2. It must stay free of code with external linkage besides
// GemmS16S32Avx2 (see gemm_s16_body.h).
#include <immintrin.h>

#include "kernels/gemm_s16_body.h"

namespace kernels::micro {

namespace {

struct Avx2 {
  using Reg = __m256i;
  static constexpr int kLanes = 8;
  static Reg Zero() { return _mm256_setzero_si256(); }
  static Reg Load(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void Store(std::int32_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg Broadcast(std::int32_t v) { return _mm256_set1_epi32(v); }
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
  }
};

}  // namespace

void GemmS16S32Avx2(const std::int16_t* a, const std::int16_t* b,
                    std::int32_t* c, GemmShape padded) {
  GemmS16S32Body<Avx2>(a, b, c, padded.m, padded.n, padded.k);
}

}  // namespace kernels::micro
