// Exhaustive small-shape GEMM differencing.
//
// Every fp32 GEMM variant in the tree — the textbook cpublas reference,
// cublas_sim (the fixed 64×64 configuration), and cutlass_sim tile
// instantiations whose 2×2 register blocks leave odd-m/odd-n remainder rows
// and columns — must be BIT-IDENTICAL on every shape with m, n, k in [1, 9].
// The int8 kernel the quantized conv runs, micro::GemmS16S32DotT, must equal
// a scalar int32 reference on the same shapes, odd-M and odd-N fringes
// included.
//
// The contract that makes bit-for-bit (not epsilon) the right check: every
// fp32 implementation accumulates each output element as the same K-ordered
// mul-then-add sequence; register tiling spans M and N only. The replay
// stream digests make any FP reassociation observable, so this test pins
// its absence at the kernel layer, including all tail paths (tile
// remainders).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernels/gemm.h"
#include "support/rng.h"

namespace kernels {
namespace {

using certkit::support::Xoshiro256;

std::vector<float> RandomVec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  return v;
}

void ExpectBitIdentical(const std::vector<float>& got,
                        const std::vector<float>& ref, GemmShape s,
                        const char* variant) {
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                           ref.size() * sizeof(float)))
      << variant << " diverges at m=" << s.m << " n=" << s.n << " k=" << s.k;
}

TEST(GemmExhaustiveProperty, AllVariantsBitIdenticalOnSmallShapes) {
  for (int m = 1; m <= 9; ++m) {
    for (int n = 1; n <= 9; ++n) {
      for (int k = 1; k <= 9; ++k) {
        const GemmShape s{m, n, k};
        const std::uint64_t seed =
            static_cast<std::uint64_t>((m * 100 + n * 10 + k));
        const auto a = RandomVec(static_cast<std::size_t>(m) * k, seed);
        const auto b = RandomVec(static_cast<std::size_t>(k) * n, seed + 7);
        std::vector<float> ref(static_cast<std::size_t>(m) * n);
        cpublas::Sgemm(a.data(), b.data(), ref.data(), s);

        std::vector<float> out(ref.size());

        cublas_sim::Sgemm(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cublas_sim (64x64 tail paths)");

        cutlass_sim::Sgemm<>(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cutlass_sim<64,64>");
        cutlass_sim::Sgemm<2, 2>(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cutlass_sim<2,2>");
        cutlass_sim::Sgemm<3, 5>(a.data(), b.data(), out.data(), s);
        ExpectBitIdentical(out, ref, s, "cutlass_sim<3,5>");
      }
    }
  }
}

TEST(GemmExhaustiveProperty, Int8KernelExactOnSmallShapes) {
  for (int m = 1; m <= 9; ++m) {
    for (int n = 1; n <= 9; ++n) {
      for (int k = 1; k <= 9; ++k) {
        const GemmShape s{m, n, k};
        Xoshiro256 rng(static_cast<std::uint64_t>(m * 961 + n * 31 + k));
        // int8 values widened to int16; B is stored transposed, [N, K].
        std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
        std::vector<std::int16_t> bt(static_cast<std::size_t>(n) * k);
        for (auto& x : a) {
          x = static_cast<std::int8_t>(
              static_cast<int>(rng.UniformDouble(-128.0, 128.0)));
        }
        for (auto& x : bt) {
          x = static_cast<std::int8_t>(
              static_cast<int>(rng.UniformDouble(-128.0, 128.0)));
        }
        std::vector<std::int32_t> ref(static_cast<std::size_t>(m) * n, 0);
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (int kk = 0; kk < k; ++kk) {
              acc += static_cast<std::int32_t>(
                         a[static_cast<std::size_t>(i) * k + kk]) *
                     static_cast<std::int32_t>(
                         bt[static_cast<std::size_t>(j) * k + kk]);
            }
            ref[static_cast<std::size_t>(i) * n + j] = acc;
          }
        }
        std::vector<std::int32_t> out(ref.size());
        micro::GemmS16S32DotT(a.data(), bt.data(), out.data(), s);
        ASSERT_EQ(out, ref) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace kernels
