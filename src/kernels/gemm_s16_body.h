// The body of micro::GemmS16S32, written once and compiled once per ISA:
// gemm.cpp instantiates it for SSE2 (the x86-64 baseline) and gemm_avx2.cpp,
// built with -mavx2, for AVX2. Private to those two translation units.
//
// Everything here has internal linkage. An inline or template function with
// external linkage would be emitted by both units, and the linker could then
// hand the AVX2 copy to a baseline caller on a CPU without AVX2 (the same
// hazard gemm.h notes for the 64×64 fp32 tile).
#ifndef KERNELS_GEMM_S16_BODY_H_
#define KERNELS_GEMM_S16_BODY_H_

#include <cstdint>
#include <cstring>

#include "kernels/gemm.h"

namespace kernels::micro {
namespace {

// V is the ISA's vector traits: Reg, kLanes (int32 lanes per Reg), Zero,
// Load/Store (unaligned), Broadcast (one int32 to every lane) and MaddAdd
// (acc + PMADDWD(a, b)).
template <class V>
void GemmS16S32Body(const std::int16_t* a, const std::int16_t* b,
                    std::int32_t* c, int m, int n, int k) {
  using Reg = typename V::Reg;
  // Two vectors per tile row: a kTileM × 2 block of accumulators, two B
  // vectors and one broadcast fit the 16 architectural registers of both
  // ISAs. SSE2 covers a kTileN-column strip in two passes.
  constexpr int kVecs = 2;
  constexpr int kCols = kVecs * V::kLanes;
  static_assert(kTileN % kCols == 0);
  const int pairs = k / 2;
  // Column strips outermost: a strip of B (pairs × kCols) stays in L1 while
  // every row tile of A sweeps it.
  for (int j0 = 0; j0 < n; j0 += kCols) {
    const std::int16_t* bstrip = b + 2 * static_cast<std::size_t>(j0);
    for (int i0 = 0; i0 < m; i0 += kTileM) {
      const std::int16_t* arows = a + static_cast<std::size_t>(i0) * k;
      Reg acc[kTileM][kVecs];
      for (int r = 0; r < kTileM; ++r) {
        for (int v = 0; v < kVecs; ++v) acc[r][v] = V::Zero();
      }
      for (int p = 0; p < pairs; ++p) {
        const std::int16_t* brow =
            bstrip + 2 * static_cast<std::size_t>(p) * n;
        Reg bv[kVecs];
        for (int v = 0; v < kVecs; ++v) {
          bv[v] = V::Load(brow + 2 * v * V::kLanes);
        }
        for (int r = 0; r < kTileM; ++r) {
          std::int32_t pair;
          std::memcpy(&pair, arows + static_cast<std::size_t>(r) * k + 2 * p,
                      sizeof(pair));
          const Reg av = V::Broadcast(pair);
          for (int v = 0; v < kVecs; ++v) {
            acc[r][v] = V::MaddAdd(acc[r][v], av, bv[v]);
          }
        }
      }
      for (int r = 0; r < kTileM; ++r) {
        std::int32_t* crow =
            c + static_cast<std::size_t>(i0 + r) * n + j0;
        for (int v = 0; v < kVecs; ++v) {
          V::Store(crow + v * V::kLanes, acc[r][v]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace kernels::micro

#endif  // KERNELS_GEMM_S16_BODY_H_
