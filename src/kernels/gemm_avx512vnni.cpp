// The AVX-512 VNNI instantiation of micro::GemmS16S32's body. This unit
// alone is built with -mavx512vnni -mavx512vl, and GemmS16S32 calls into it
// only on a CPU that reports both. It keeps the AVX2 tile on ymm registers:
// VPDPWSSD folds the PMADDWD and the accumulating add into one instruction.
// It must stay free of code with external linkage besides
// GemmS16S32Avx512Vnni (see gemm_s16_body.h).
#include <immintrin.h>

#include "kernels/gemm_s16_body.h"

namespace kernels::micro {

namespace {

struct Avx512Vnni {
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
  // Non-saturating, like PMADDWD + PADDD: int8-grid products cannot reach
  // the one PMADDWD overflow case (-32768 · -32768 twice).
  static Reg MaddAdd(Reg acc, Reg a, Reg b) {
    return _mm256_dpwssd_epi32(acc, a, b);
  }
};

}  // namespace

void GemmS16S32Avx512Vnni(const std::int16_t* a, const std::int16_t* b,
                          std::int32_t* c, GemmShape padded) {
  GemmS16S32Body<Avx512Vnni>(a, b, c, padded.m, padded.n, padded.k);
}

}  // namespace kernels::micro
