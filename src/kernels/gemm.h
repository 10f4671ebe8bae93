// kernels: GEMM implementations used by Figures 7 and 8a and the int8 tick.
//
// Three stand-ins reproduce the paper's library comparison:
//  * cublas_sim  — the "closed-source vendor library": a fixed, hand-tuned
//    configuration (64×64 tiles, one grid block per tile) of the cutlass_sim
//    decomposition below.
//  * cutlass_sim — the "open-source template library": the same decomposition
//    expressed as composable C++ templates over tile sizes, so device-wide
//    GEMMs are constructed from primitives (CUTLASS's design), reaching
//    performance comparable to the vendor kernel.
//  * cpublas     — the "CPU BLAS two orders of magnitude slower" reference
//    point: a single-threaded naive triple loop.
// The fp32 kernels operate on row-major float matrices: C[M,N] = A[M,K] *
// B[K,N]. Every output element is the same K-ordered dot product, so all of
// them are bit-identical (the build never enables FMA contraction).
//
// micro holds the host int8 kernel the quantized detector runs.
#ifndef KERNELS_GEMM_H_
#define KERNELS_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "gpusim/gpusim.h"
#include "support/check.h"

namespace kernels {

struct GemmShape {
  int m = 0, n = 0, k = 0;
  bool operator==(const GemmShape&) const = default;
};

// Naive single-threaded CPU reference (also the correctness oracle).
namespace cpublas {
void Sgemm(const float* a, const float* b, float* c, GemmShape shape);
}  // namespace cpublas

// "Open template library": tile sizes are template parameters. A device-wide
// GEMM is composed from the block-level primitive, as in CUTLASS.
namespace cutlass_sim {

template <int kTileM, int kTileN>
struct TileGemm {
  static_assert(kTileM > 0 && kTileN > 0);

  // Computes the (bm, bn) output tile: a 2x2 register-blocked thread tile
  // inside the block tile, mirroring CUTLASS's threadblock/warp/thread
  // decomposition.
  static void ComputeTile(const float* a, const float* b, float* c,
                          GemmShape s, int bm, int bn) {
    const int m0 = bm * kTileM;
    const int n0 = bn * kTileN;
    const int m1 = m0 + kTileM < s.m ? m0 + kTileM : s.m;
    const int n1 = n0 + kTileN < s.n ? n0 + kTileN : s.n;

    int i = m0;
    for (; i + 2 <= m1; i += 2) {
      const float* a0 = a + static_cast<std::size_t>(i) * s.k;
      const float* a1 = a0 + s.k;
      float* c0 = c + static_cast<std::size_t>(i) * s.n;
      float* c1 = c0 + s.n;
      for (int j = n0; j < n1; ++j) {
        c0[j] = 0.0f;
        c1[j] = 0.0f;
      }
      for (int kk = 0; kk < s.k; ++kk) {
        const float av0 = a0[kk];
        const float av1 = a1[kk];
        const float* brow = b + static_cast<std::size_t>(kk) * s.n;
        int j = n0;
        for (; j + 2 <= n1; j += 2) {
          const float b0 = brow[j];
          const float b1 = brow[j + 1];
          c0[j] += av0 * b0;
          c0[j + 1] += av0 * b1;
          c1[j] += av1 * b0;
          c1[j + 1] += av1 * b1;
        }
        for (; j < n1; ++j) {
          c0[j] += av0 * brow[j];
          c1[j] += av1 * brow[j];
        }
      }
    }
    for (; i < m1; ++i) {  // remainder row
      const float* arow = a + static_cast<std::size_t>(i) * s.k;
      float* crow = c + static_cast<std::size_t>(i) * s.n;
      for (int j = n0; j < n1; ++j) crow[j] = 0.0f;
      for (int kk = 0; kk < s.k; ++kk) {
        const float av = arow[kk];
        const float* brow = b + static_cast<std::size_t>(kk) * s.n;
        for (int j = n0; j < n1; ++j) crow[j] += av * brow[j];
      }
    }
  }
};

// Device-wide GEMM composed from the tile primitive.
template <int kTileM = 64, int kTileN = 64>
void Sgemm(const float* a, const float* b, float* c, GemmShape s,
           gpusim::Device& device = gpusim::Device::Instance()) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  gpusim::Dim3 grid;
  grid.x = static_cast<unsigned>((s.n + kTileN - 1) / kTileN);
  grid.y = static_cast<unsigned>((s.m + kTileM - 1) / kTileM);
  device.Launch(grid, gpusim::Dim3{1, 1, 1},
                [=](const gpusim::KernelContext& ctx) {
                  TileGemm<kTileM, kTileN>::ComputeTile(
                      a, b, c, s, static_cast<int>(ctx.block_idx.y),
                      static_cast<int>(ctx.block_idx.x));
                });
}

}  // namespace cutlass_sim

// "Vendor library": a fixed, tuned configuration of the decomposition above.
// Defined inline: an out-of-line definition in gemm.cpp (built at -O3) would
// emit a second copy of the 64×64 tile, and the linker could then hand that
// copy to isaac_sim's 64×64 candidate as well.
namespace cublas_sim {
inline void Sgemm(const float* a, const float* b, float* c, GemmShape shape,
                  gpusim::Device& device = gpusim::Device::Instance()) {
  cutlass_sim::Sgemm<64, 64>(a, b, c, shape, device);
}
}  // namespace cublas_sim

// Host int8 kernel: the CPU path the quantized conv actually runs. Unlike
// the device sims above it never goes through gpusim::Device — no launches,
// no std::function, no heap traffic — and it is allocation-free by
// construction (registers + caller-owned buffers only).
namespace micro {

// Register tile of the int8 kernel. Callers pad M to kTileM, N to kTileN and
// K to even, zero-filling the padding, so the kernel has no fringe code.
inline constexpr int kTileM = 4;
inline constexpr int kTileN = 16;

constexpr int PadTo(int v, int multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

// Outer-product int16 GEMM, C[M,N] = A·B with int32 accumulation, over
// packed operands (int8 values widened to int16, so every product is exact):
//  * a: [M][K] row-major, so each adjacent K-pair is one int32 lane;
//  * b: [K/2][N][2] — K-major, the two K-values of a pair interleaved per
//    column;
//  * c: [M][N] row-major.
// Per K-pair, the kernel broadcasts one weight pair per tile row and issues
// one PMADDWD per vector of B: a0·b0 + a1·b1 lands in each int32 lane, so a
// kTileM × kTileN tile of accumulators stays in registers across all of K
// with no horizontal sums. `padded` holds the padded extents. Integer accumulation
// is exact, so the result equals a scalar int32 triple loop.
void GemmS16S32(const std::int16_t* a, const std::int16_t* b,
                std::int32_t* c, GemmShape padded);

// The one kernel body is compiled once per ISA: SSE2 (the x86-64 baseline)
// and AVX2. GemmS16S32 runs the widest one the CPU supports, picked once by
// a CPUID check; tests and benches reach each instantiation through this
// table. x86-64 is the only target.
using GemmS16S32Fn = void (*)(const std::int16_t*, const std::int16_t*,
                              std::int32_t*, GemmShape);
struct GemmS16S32Variant {
  const char* isa;
  GemmS16S32Fn gemm;
  bool supported;  // the running CPU has the ISA
};
// Every compiled instantiation, baseline first.
std::span<const GemmS16S32Variant> GemmS16S32Variants();
const GemmS16S32Variant& GemmS16S32Dispatched();

}  // namespace micro

}  // namespace kernels

#endif  // KERNELS_GEMM_H_
