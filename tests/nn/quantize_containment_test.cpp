// Non-finite containment of ConvLayer's int8 path, the int8-vs-fp32
// accuracy gate, and the int8 path's bit-identity to a direct scalar int8
// convolution on any geometry.
//
// Bug class under test: a NaN or ±inf activation makes amax — and therefore
// the int8 scale — undefined; a quantizer that computed scale = inf / 127
// would rewrite the WHOLE tensor to NaN, laundering a single bad sensor
// value into total detector blindness before the safety layer's range
// monitor could see it. The contract: any non-finite input (and the
// degenerate all-zero tensor) disables quantization for that call —
// ConvLayer falls through to the bit-exact fp32 path — so the original
// values reach the monitors intact. The replay differential oracle pins the
// same behavior end-to-end: a quantized replay arm must diverge from fp32
// only through the int8 grid, never through containment-path differences.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "nn/layers.h"
#include "support/rng.h"

namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

nn::Tensor MakeInput(int c, int h, int w, std::uint64_t seed) {
  nn::Tensor t(1, c, h, w);
  certkit::support::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.UniformDouble(-8.0, 8.0));
  }
  return t;
}

// A quantized ConvLayer fed a non-finite input must produce the EXACT fp32
// result (containment = fall through, not "quantize around the hole"), and
// the non-finite value must propagate to the output where the range monitor
// can reject it. An all-zero input has no usable scale and falls through the
// same way.
TEST(QuantizeContainment, ConvFallsBackToFp32BitExactOnNonFiniteInput) {
  const int in_c = 3, out_c = 6, k = 3;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  certkit::support::Xoshiro256 rng(0xC0FFEEu);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));

  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, {},
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, {},
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  const auto expect_fp32 = [&](const nn::Tensor& input, const char* what) {
    nn::Tensor want, got;
    fp32.ForwardInto(input, &want);
    quant.ForwardInto(input, &got);
    EXPECT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << "quantized layer did not fall back to the bit-exact fp32 path on "
        << what;
    return got;
  };

  for (const float poison : {kNan, kInf, -kInf}) {
    nn::Tensor input = MakeInput(in_c, 12, 12, 42u);
    input.At(0, 1, 6, 6) = poison;
    const nn::Tensor got = expect_fp32(input, "a non-finite input");

    bool saw_non_finite = false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!std::isfinite(got.data()[i])) saw_non_finite = true;
    }
    EXPECT_TRUE(saw_non_finite)
        << "the poison value " << poison
        << " was laundered instead of propagated";
  }

  expect_fp32(nn::Tensor(1, in_c, 12, 12), "an all-zero input");
}

// Accuracy gate for the true int8 path: on finite inputs the quantized
// output must track fp32 within the theoretical grid error. Per-element
// error is bounded by the dot-product error sum: K * (in_step * |w|max +
// w_step * |x|max + in_step * w_step), with steps = amax/127. The gate
// asserts a comfortable multiple — failures mean scale bookkeeping broke,
// not that rounding drifted.
TEST(QuantizeContainment, Int8PathTracksFp32WithinGridErrorBound) {
  const int in_c = 3, out_c = 8, k = 3, hw = 16;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  std::vector<float> bias(out_c);
  certkit::support::Xoshiro256 rng(0xBEEFu);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
  for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-1, 1));

  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, bias,
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, bias,
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  const nn::Tensor input = MakeInput(in_c, hw, hw, 1234u);
  float in_amax = 0.0f, w_amax = 0.0f;
  for (std::size_t i = 0; i < input.size(); ++i) {
    in_amax = std::max(in_amax, std::fabs(input.data()[i]));
  }
  for (const float w : weights) w_amax = std::max(w_amax, std::fabs(w));
  const float in_step = in_amax / 127.0f;
  const float w_step = w_amax / 127.0f;
  const float patch = static_cast<float>(in_c) * k * k;
  // Half-step rounding on each operand, summed over the K-dot-product.
  const float bound =
      patch * 0.5f *
          (in_step * w_amax + w_step * in_amax + in_step * w_step) +
      1e-4f;

  nn::Tensor want, got;
  fp32.ForwardInto(input, &want);
  quant.ForwardInto(input, &got);
  ASSERT_EQ(got.size(), want.size());

  float max_abs_err = 0.0f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_abs_err = std::max(max_abs_err,
                           std::fabs(got.data()[i] - want.data()[i]));
  }
  EXPECT_LE(max_abs_err, bound)
      << "int8 path drifted past the quantization-grid error bound";
  // And it must actually quantize: bit-identical output would mean the int8
  // path silently fell back to fp32 (the differential oracle relies on the
  // arms diverging).
  EXPECT_NE(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)),
            0)
      << "quantized arm is bit-identical to fp32 — int8 path did not run";
}

// The int8 conv, computed the plain way: snap input and weights with the
// truncate(q ± 0.5) rule, accumulate each output as a direct int32
// convolution sum, dequantize with the combined scale. ConvLayer's packed
// GEMM path must reproduce it bit for bit on any geometry.
nn::Tensor ReferenceInt8Conv(const nn::Tensor& input,
                             const std::vector<float>& weights,
                             const std::vector<float>& bias, int out_c,
                             int k, int stride, int pad) {
  const auto amax = [](const float* v, std::size_t n) {
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(v[i]));
    return m;
  };
  const auto snap = [](float v, float inv) {
    float q = v * inv;
    q = q >= 0.0f ? q + 0.5f : q - 0.5f;
    const int i = static_cast<int>(q);
    return i > 127 ? 127 : (i < -127 ? -127 : i);
  };
  const float in_amax = amax(input.data(), input.size());
  const float w_amax = amax(weights.data(), weights.size());
  const int in_c = input.c(), h = input.h(), w = input.w();
  const int oh_n = (h + 2 * pad - k) / stride + 1;
  const int ow_n = (w + 2 * pad - k) / stride + 1;
  const float combined = (in_amax / 127.0f) * (w_amax / 127.0f);
  nn::Tensor out(input.n(), out_c, oh_n, ow_n);
  for (int b = 0; b < input.n(); ++b) {
    for (int oc = 0; oc < out_c; ++oc) {
      for (int oy = 0; oy < oh_n; ++oy) {
        for (int ox = 0; ox < ow_n; ++ox) {
          std::int32_t acc = 0;
          for (int ci = 0; ci < in_c; ++ci) {
            for (int ky = 0; ky < k; ++ky) {
              for (int kx = 0; kx < k; ++kx) {
                const int iy = oy * stride - pad + ky;
                const int ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const float wv = weights[((static_cast<std::size_t>(oc) *
                                               in_c + ci) * k + ky) * k + kx];
                acc += snap(input.At(b, ci, iy, ix), 127.0f / in_amax) *
                       snap(wv, 127.0f / w_amax);
              }
            }
          }
          out.At(b, oc, oy, ox) =
              combined * static_cast<float>(acc) + bias[oc];
        }
      }
    }
  }
  return out;
}

// Batch > 1, strides, kernel sizes other than 3 and 1, odd K, odd widths
// and M that is not a multiple of the GEMM row tile: the packed path must
// match the reference exactly on all of them.
TEST(QuantizeContainment, Int8ConvMatchesScalarReferenceOnAnyGeometry) {
  struct Geometry {
    int batch, in_c, out_c, k, stride, pad, h, w;
  };
  constexpr Geometry kCases[] = {
      {8, 3, 8, 3, 1, 1, 16, 16},  // batch 8, the detector's first layer
      {1, 3, 5, 3, 2, 1, 13, 11},  // stride 2, odd sizes, K = 27
      {2, 4, 7, 5, 1, 2, 9, 10},   // 5×5 kernel, pad 2
      {3, 5, 3, 1, 1, 0, 7, 9},    // 1×1 kernel, odd K = 5
      {1, 2, 9, 3, 3, 0, 17, 19},  // stride 3, no padding
      {1, 1, 1, 2, 1, 1, 5, 6},    // even kernel, asymmetric reach
      // The patch matrix is cut into 16-pixel panels; these panels span
      // output rows and images, and the last one is partly N-padding.
      {1, 3, 4, 3, 1, 1, 7, 10},   // out_w 10: n = 70, a 10-column tail
      {1, 32, 32, 3, 1, 1, 8, 8},  // the detector's 8×8 conv3, K = 288
      {3, 2, 5, 3, 1, 1, 5, 6},    // batch 3: n = 90, panels span images
      {3, 32, 32, 3, 1, 1, 8, 8},  // conv3 shape at batch 3
  };
  std::uint64_t seed = 77;
  for (const Geometry& g : kCases) {
    std::vector<float> weights(static_cast<std::size_t>(g.out_c) * g.in_c *
                               g.k * g.k);
    std::vector<float> bias(static_cast<std::size_t>(g.out_c));
    certkit::support::Xoshiro256 rng(seed++);
    for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
    for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-1, 1));
    nn::ConvLayer quant(g.in_c, g.out_c, g.k, g.stride, g.pad, weights, bias,
                        nn::Backend::kCpuNaive);
    quant.SetInputQuantization(true);

    nn::Tensor input(g.batch, g.in_c, g.h, g.w);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input.data()[i] = static_cast<float>(rng.UniformDouble(-3, 3));
    }
    const nn::Tensor want = ReferenceInt8Conv(input, weights, bias, g.out_c,
                                              g.k, g.stride, g.pad);
    nn::Tensor got;
    quant.ForwardInto(input, &got);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << "batch " << g.batch << " in_c " << g.in_c << " out_c " << g.out_c
        << " k " << g.k << " stride " << g.stride << " pad " << g.pad;
  }
}

// The activation scan is a max reduction the compiler vectorizes, with a
// scalar epilogue; a 75-value input has both parts. The max |x| (either
// sign) and a non-finite value must be found at every position: the first
// sets the scale the reference reproduces, the second forces the fp32
// fallback.
TEST(QuantizeContainment, ActivationScanSeesEveryPosition) {
  const int in_c = 3, out_c = 4, k = 3;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  certkit::support::Xoshiro256 rng(0x5CA4u);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
  const std::vector<float> bias(static_cast<std::size_t>(out_c), 0.25f);
  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, bias,
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, bias,
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  const nn::Tensor base = MakeInput(in_c, 5, 5, 9u);
  nn::Tensor got, want;
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (const float peak : {40.0f, -40.0f}) {
      nn::Tensor input = base;
      input.data()[i] = peak;
      quant.ForwardInto(input, &got);
      want = ReferenceInt8Conv(input, weights, bias, out_c, k, 1, 1);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << "max |x| = " << peak << " at index " << i;
    }
    for (const float poison : {kNan, -kNan, kInf, -kInf}) {
      nn::Tensor input = base;
      input.data()[i] = poison;
      quant.ForwardInto(input, &got);
      fp32.ForwardInto(input, &want);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << "no fp32 fallback for " << poison << " at index " << i;
    }
  }
}

}  // namespace
