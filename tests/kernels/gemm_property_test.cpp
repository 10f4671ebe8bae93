// Exhaustive small-shape GEMM differencing.
//
// Every fp32 GEMM variant in the tree — the textbook cpublas reference,
// cublas_sim (the fixed 64×64 configuration), and cutlass_sim tile
// instantiations whose 2×2 register blocks leave odd-m/odd-n remainder rows
// and columns — must be BIT-IDENTICAL on every shape with m, n, k in [1, 9].
// The int8 kernel the quantized conv runs, micro::GemmS16S32, must equal a
// scalar int32 reference in every compiled ISA instantiation: on the same
// shapes (so every M, N and K padding case), on the detector's five conv
// shapes, and at the ±127 extremes of the int8 grid. The quantizer's snap
// (nn/int8_grid.h) must equal the truncating rule it replaced.
//
// The contract that makes bit-for-bit (not epsilon) the right check: every
// fp32 implementation accumulates each output element as the same K-ordered
// mul-then-add sequence; register tiling spans M and N only. The replay
// stream digests make any FP reassociation observable, so this test pins
// its absence at the kernel layer, including all tail paths (tile
// remainders).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "kernels/gemm.h"
#include "nn/int8_grid.h"
#include "support/rng.h"

namespace kernels {

namespace micro {
// Test names and failure messages show an instantiation by its ISA.
void PrintTo(const GemmS16S32Variant& v, std::ostream* os) { *os << v.isa; }
}  // namespace micro

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

// Scalar int32 reference for the int8 kernel, over unpacked operands:
// a [M][K] and b [K][N] row-major.
std::vector<std::int32_t> ReferenceS32(const std::vector<std::int16_t>& a,
                                       const std::vector<std::int16_t>& b,
                                       GemmShape s) {
  std::vector<std::int32_t> ref(static_cast<std::size_t>(s.m) * s.n, 0);
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      std::int32_t acc = 0;
      for (int kk = 0; kk < s.k; ++kk) {
        acc += static_cast<std::int32_t>(
                   a[static_cast<std::size_t>(i) * s.k + kk]) *
               static_cast<std::int32_t>(
                   b[static_cast<std::size_t>(kk) * s.n + j]);
      }
      ref[static_cast<std::size_t>(i) * s.n + j] = acc;
    }
  }
  return ref;
}

// Runs one instantiation of the int8 kernel on unpacked operands: packs A to
// [Mp][Kp] and B to [Kp/2][Np][2] with zero padding, multiplies, and crops C
// back to [M][N].
std::vector<std::int32_t> RunS16S32(micro::GemmS16S32Fn gemm,
                                    const std::vector<std::int16_t>& a,
                                    const std::vector<std::int16_t>& b,
                                    GemmShape s) {
  const int mp = micro::PadTo(s.m, micro::kTileM);
  const int np = micro::PadTo(s.n, micro::kTileN);
  const int kp = micro::PadTo(s.k, 2);
  std::vector<std::int16_t> pa(static_cast<std::size_t>(mp) * kp, 0);
  std::vector<std::int16_t> pb(static_cast<std::size_t>(kp) * np, 0);
  for (int i = 0; i < s.m; ++i) {
    for (int kk = 0; kk < s.k; ++kk) {
      pa[static_cast<std::size_t>(i) * kp + kk] =
          a[static_cast<std::size_t>(i) * s.k + kk];
    }
  }
  for (int kk = 0; kk < s.k; ++kk) {
    for (int j = 0; j < s.n; ++j) {
      pb[(static_cast<std::size_t>(kk / 2) * np + j) * 2 + kk % 2] =
          b[static_cast<std::size_t>(kk) * s.n + j];
    }
  }
  std::vector<std::int32_t> pc(static_cast<std::size_t>(mp) * np, -1);
  gemm(pa.data(), pb.data(), pc.data(), GemmShape{mp, np, kp});
  std::vector<std::int32_t> c(static_cast<std::size_t>(s.m) * s.n);
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      c[static_cast<std::size_t>(i) * s.n + j] =
          pc[static_cast<std::size_t>(i) * np + j];
    }
  }
  return c;
}

// int8-grid values in [-127, 127], widened to int16.
std::vector<std::int16_t> RandomS8(std::size_t n, Xoshiro256& rng) {
  std::vector<std::int16_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int16_t>(
        static_cast<int>(rng.UniformDouble(-127.0, 128.0)));
  }
  return v;
}

// Every shape with m, n, k in [1, 9]: each pads differently.
void ExpectExactOnSmallShapes(micro::GemmS16S32Fn gemm, const char* what) {
  for (int m = 1; m <= 9; ++m) {
    for (int n = 1; n <= 9; ++n) {
      for (int k = 1; k <= 9; ++k) {
        const GemmShape s{m, n, k};
        Xoshiro256 rng(static_cast<std::uint64_t>(m * 961 + n * 31 + k));
        const auto a = RandomS8(static_cast<std::size_t>(m) * k, rng);
        const auto b = RandomS8(static_cast<std::size_t>(k) * n, rng);
        ASSERT_EQ(RunS16S32(gemm, a, b, s), ReferenceS32(a, b, s))
            << what << " m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

// The dispatched entry point the quantized conv calls.
TEST(GemmExhaustiveProperty, Int8KernelExactOnSmallShapes) {
  ExpectExactOnSmallShapes(&micro::GemmS16S32, "dispatched");
}

// Each compiled ISA instantiation, called directly.
class Int8Kernel
    : public ::testing::TestWithParam<micro::GemmS16S32Variant> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) {
      GTEST_SKIP() << "this CPU lacks " << GetParam().isa
                   << ", so its instantiation cannot run";
    }
  }
  void ExpectExact(const std::vector<std::int16_t>& a,
                   const std::vector<std::int16_t>& b, GemmShape s) {
    ASSERT_EQ(RunS16S32(GetParam().gemm, a, b, s), ReferenceS32(a, b, s))
        << GetParam().isa << " m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
};

TEST_P(Int8Kernel, ExactOnSmallShapes) {
  ExpectExactOnSmallShapes(GetParam().gemm, GetParam().isa);
}

// The five convolutions of the 64×64 detector, as GEMMs: M = out_c,
// K = in_c·k², N = output pixels.
TEST_P(Int8Kernel, ExactOnDetectorShapes) {
  constexpr GemmShape kShapes[] = {
      {8, 4096, 27}, {16, 1024, 72}, {32, 256, 144}, {32, 64, 288},
      {7, 256, 32}};
  Xoshiro256 rng(0x1D8u);
  for (const GemmShape& s : kShapes) {
    const auto a = RandomS8(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = RandomS8(static_cast<std::size_t>(s.k) * s.n, rng);
    ExpectExact(a, b, s);
  }
}

// Every product at ±127·±127 over the deepest detector K: the largest
// magnitudes the int8 grid produces must accumulate exactly.
TEST_P(Int8Kernel, ExactAtGridExtremes) {
  const GemmShape s{9, 37, 289};
  for (const int sign : {1, -1}) {
    std::vector<std::int16_t> a(static_cast<std::size_t>(s.m) * s.k, 127);
    std::vector<std::int16_t> b(static_cast<std::size_t>(s.k) * s.n,
                                static_cast<std::int16_t>(127 * sign));
    for (std::size_t i = 0; i < b.size(); i += 3) {
      b[i] = static_cast<std::int16_t>(-b[i]);
    }
    ExpectExact(a, b, s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryIsa, Int8Kernel,
    ::testing::ValuesIn(micro::GemmS16S32Variants().begin(),
                        micro::GemmS16S32Variants().end()),
    [](const ::testing::TestParamInfo<micro::GemmS16S32Variant>& info) {
      return std::string(info.param.isa);
    });

TEST(Int8Dispatch, PicksTheWidestSupportedInstantiation) {
  const micro::GemmS16S32Variant* widest = nullptr;
  for (const auto& v : micro::GemmS16S32Variants()) {
    if (v.supported) widest = &v;
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_EQ(&micro::GemmS16S32Dispatched(), widest);
  EXPECT_TRUE(micro::GemmS16S32Variants()[0].supported)
      << "the SSE2 baseline must run on every x86-64 CPU";
}

// The quantizer's snap before it was rewritten to vectorize, kept as the
// reference: round half away from zero by truncating q ± 0.5, then clamp
// the integer to ±127.
std::int16_t ReferenceSnap(float v, float inv_scale) {
  float q = v * inv_scale;
  q = q >= 0.0f ? q + 0.5f : q - 0.5f;
  int i = static_cast<int>(q);
  i = i > 127 ? 127 : (i < -127 ? -127 : i);
  return static_cast<std::int16_t>(i);
}

// Both forms of the snap the quantizer uses — the scalar SnapToGrid and the
// SSE2 QuantizeToGrid loop, tail included — against the reference.
void ExpectSnapMatches(const std::vector<float>& values, float inv_scale) {
  std::vector<std::int16_t> vec(values.size());
  nn::QuantizeToGrid(values.data(), vec.data(), values.size(), inv_scale);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int16_t want = ReferenceSnap(values[i], inv_scale);
    ASSERT_EQ(nn::SnapToGrid(values[i], inv_scale), want)
        << "v=" << values[i] << " inv_scale=" << inv_scale;
    ASSERT_EQ(vec[i], want) << "QuantizeToGrid, v=" << values[i]
                            << " inv_scale=" << inv_scale << " index " << i;
  }
}

TEST(Int8Snap, MatchesTruncatedRoundingOnEdgeValues) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float min_normal = std::numeric_limits<float>::min();
  std::vector<float> edges = {0.0f,        -0.0f,        denorm,
                              -denorm,     min_normal,   -min_normal,
                              0.49999997f, -0.49999997f, 127.0f,
                              -127.0f};
  // Every ±x.5 tie on the grid, the grid ends and just past them.
  for (int x = 0; x <= 128; ++x) {
    edges.push_back(static_cast<float>(x) + 0.5f);
    edges.push_back(-(static_cast<float>(x) + 0.5f));
    edges.push_back(static_cast<float>(x) - 0.5f);
    edges.push_back(-(static_cast<float>(x) - 0.5f));
  }
  ExpectSnapMatches(edges, 1.0f);
  // ±amax lands on ±127 for any grid, from the smallest amax whose
  // 127 / amax is finite (smaller ones have no grid) to FLT_MAX, and
  // subnormal values snap to zero on every one.
  for (const float amax : {4e-37f, 1e-20f, 0.3f, 1.0f, 8.0f, 3e30f,
                           std::numeric_limits<float>::max()}) {
    ExpectSnapMatches({amax, -amax, amax * 0.5f, denorm, -denorm, 0.0f,
                       -0.0f},
                      127.0f / amax);
  }
}

// Random finite tensors: v anywhere in [-amax, amax], the only range the
// quantizer sees, for amax drawn across the whole exponent range; 10^6
// values in all, in lengths that exercise the vector loop's scalar tail.
TEST(Int8Snap, MatchesTruncatedRoundingOnRandomFloats) {
  Xoshiro256 rng(0x5A1Au);
  std::vector<float> values;
  for (int block = 0; block < 1000; ++block) {
    const float amax = static_cast<float>(std::ldexp(
        rng.UniformDouble(1.0, 2.0),
        static_cast<int>(rng.UniformDouble(-120.0, 120.0))));
    values.resize(995 + static_cast<std::size_t>(block % 11));
    for (float& v : values) {
      v = static_cast<float>(rng.UniformDouble(-1.0, 1.0)) * amax;
    }
    values[0] = amax;
    values[1] = -amax;
    ExpectSnapMatches(values, 127.0f / amax);
  }
}

}  // namespace
}  // namespace kernels
