// The int8 inference path of ConvLayer: per-layer symmetric scales, an
// int8-grid patch matrix, the int32-accumulating outer-product micro-GEMM,
// combined-scale dequantize.
//
// Properties the rest of the tree relies on:
//  * Deterministic and backend-independent — integer accumulation is exact,
//    so there is no FP-reassociation surface; the replay differential oracle
//    diffs this path against the fp32 reference (which stays bit-exact).
//  * Reentrant — all scratch is thread_local and the layer itself is never
//    mutated during a forward (the weight snapshot is written only by
//    SetInputQuantization), so one layer shared across ThreadPool threads is
//    race-free (the regression for the old flip-the-member-and-recurse bug).
//  * Allocation-free in steady state — every scratch vector only ever grows
//    to the layer's peak working-set size and is then reused.
//
// Layout note: quantized values are stored widened to int16. The weight
// snapshot is [M][K] padded to the GEMM's row tile and to even K; the patch
// matrix is written K-major with each K-pair interleaved per output pixel,
// [K/2][N][2] with N padded to the column tile, so one PMADDWD per vector
// folds a K-pair into a register tile of int32 accumulators. See
// kernels::micro::GemmS16S32. The activations are quantized eight per SSE2
// step (nn::QuantizeToGrid in nn/int8_grid.h).
#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/gemm.h"
#include "nn/int8_grid.h"
#include "nn/layers.h"

namespace nn {

namespace {

struct QuantScratch {
  std::vector<std::int16_t> padded;   // quantized input, zero-padded planes
  std::vector<std::int16_t> zeros;    // zero row for the odd-K padding tap
  std::vector<std::int16_t> patches;  // patch matrix [K/2][N][2]
  std::vector<std::int32_t> acc;      // GEMM accumulators [M][N]
};

QuantScratch& Scratch() {
  thread_local QuantScratch s;
  return s;
}

// Max-|x| scan in the integer domain: for non-negative IEEE-754 floats the
// bit pattern orders exactly like the value, so max over (bits & 0x7fffffff)
// IS max|x| — and any Inf/NaN surfaces as a pattern >= 0x7f800000. One
// branch-free int32 max reduction replaces the fabs/isfinite/compare loop
// the vectorizer cannot touch (early exit, NaN-sensitive float compares).
// Returns false when a non-finite value is present (containment policy).
bool ScanAmax(const float* data, std::size_t size, float* amax) {
  std::int32_t mbits = 0;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint32_t u;
    std::memcpy(&u, &data[i], sizeof(u));
    const std::int32_t m = static_cast<std::int32_t>(u & 0x7fffffffu);
    mbits = m > mbits ? m : mbits;
  }
  if (mbits >= 0x7f800000) return false;  // Inf or NaN in the tensor
  *amax = std::bit_cast<float>(static_cast<std::uint32_t>(mbits));
  return true;
}

// Whether a tensor with max |x| = amax has an int8 grid: amax must be
// nonzero and large enough that 127 / amax stays finite.
bool HasGrid(float amax) {
  return amax > 0.0f && std::isfinite(127.0f / amax);
}

// Geometry of one conv call. The quantized input planes carry the conv's
// zero padding, so every tap reads inside them.
struct PatchGeom {
  int batch, in_c, in_h, in_w, kernel, stride, pad, out_h, out_w;
  int padded_h, padded_w;  // in_h + 2 * pad, in_w + 2 * pad
  int k;                   // in_c * kernel * kernel
  int n;                   // batch * out_h * out_w
  int n_pad;               // n rounded up to the GEMM column tile
};

// Quantizes the input into [batch][in_c][padded_h][padded_w] planes with a
// zero border of width pad.
void QuantizePadded(const float* in, const PatchGeom& g, float inv_scale,
                    std::int16_t* padded) {
  const std::size_t pw = static_cast<std::size_t>(g.padded_w);
  for (int plane = 0; plane < g.batch * g.in_c; ++plane) {
    std::int16_t* dst = padded + static_cast<std::size_t>(plane) *
                                     g.padded_h * pw;
    std::fill(dst, dst + g.pad * pw, 0);
    for (int y = 0; y < g.in_h; ++y) {
      std::int16_t* row = dst + (g.pad + y) * pw;
      std::fill(row, row + g.pad, 0);
      QuantizeToGrid(in, row + g.pad, static_cast<std::size_t>(g.in_w),
                     inv_scale);
      std::fill(row + g.pad + g.in_w, row + pw, 0);
      in += g.in_w;
    }
    std::fill(dst + (g.pad + g.in_h) * pw, dst + g.padded_h * pw, 0);
  }
}

// dst[2i] = s0[i * stride], dst[2i + 1] = s1[i * stride] for i < count.
void Interleave(const std::int16_t* s0, const std::int16_t* s1, int stride,
                int count, std::int16_t* dst) {
  int i = 0;
  if (stride == 1) {
    for (; i + 8 <= count; i += 8) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s0 + i));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s1 + i));
      __m128i* d = reinterpret_cast<__m128i*>(dst + 2 * i);
      _mm_storeu_si128(d, _mm_unpacklo_epi16(a, b));
      _mm_storeu_si128(d + 1, _mm_unpackhi_epi16(a, b));
    }
  }
  for (; i < count; ++i) {
    dst[2 * i] = s0[i * stride];
    dst[2 * i + 1] = s1[i * stride];
  }
}

// Writes the patch matrix [K/2][n_pad][2] from the padded planes: row p
// holds, for every output pixel, the K-values 2p and 2p + 1 interleaved
// (K index r = (ci, kh, kw)). Tap r reads its plane from row kh, column kw
// on, so an output row is two strided runs of the padded planes and needs
// no bounds test. The K-padding tap of an odd K reads the zero row, and the
// padding columns [n, n_pad) are zero.
void PackPatches(const std::int16_t* padded, const PatchGeom& g,
                 const std::int16_t* zeros, std::int16_t* patches) {
  const std::size_t plane =
      static_cast<std::size_t>(g.padded_h) * g.padded_w;
  const int kk2 = g.kernel * g.kernel;
  const auto origin = [&](const std::int16_t* image, int r) {
    if (r >= g.k) return static_cast<const std::int16_t*>(nullptr);
    const int kh = r % kk2 / g.kernel, kw = r % g.kernel;
    return image + (r / kk2) * plane +
           static_cast<std::size_t>(kh) * g.padded_w + kw;
  };
  const std::size_t row_step =
      static_cast<std::size_t>(g.stride) * g.padded_w;
  for (int p = 0; p < (g.k + 1) / 2; ++p) {
    std::int16_t* dst = patches + 2 * static_cast<std::size_t>(p) * g.n_pad;
    for (int b = 0; b < g.batch; ++b) {
      const std::int16_t* image = padded + b * g.in_c * plane;
      const std::int16_t* s0 = origin(image, 2 * p);
      const std::int16_t* s1 = origin(image, 2 * p + 1);
      for (int oh = 0; oh < g.out_h; ++oh) {
        Interleave(s0 + oh * row_step, s1 ? s1 + oh * row_step : zeros,
                   g.stride, g.out_w, dst);
        dst += 2 * g.out_w;
      }
    }
    std::fill(dst, patches + 2 * (static_cast<std::size_t>(p) + 1) * g.n_pad,
              0);
  }
}

}  // namespace

void ConvLayer::SetInputQuantization(bool enabled) {
  quantize_inputs_ = enabled;
  q_weights_.clear();
  w_scale_ = 0.0f;
  if (!enabled) return;

  // Per-layer weight scale: max|w| / 127 over this layer's weights. A
  // non-finite weight (or an all-zero filter bank) has no usable grid; the
  // snapshot is then all zeros with scale 0, making the quantized output
  // exactly the bias — the same result the unsnapshotted path produced.
  float w_amax = 0.0f;
  bool finite = true;
  for (const float w : weights_) {
    if (!std::isfinite(w)) finite = false;
    const float a = std::fabs(w);
    if (a > w_amax) w_amax = a;
  }
  // GEMM operand A: [M][K] padded to the row tile and to even K, zeros in
  // the padding.
  const int k = in_c_ * kernel_ * kernel_;
  const int k_pad = kernels::micro::PadTo(k, 2);
  const int m_pad = kernels::micro::PadTo(out_c_, kernels::micro::kTileM);
  q_weights_.assign(static_cast<std::size_t>(m_pad) * k_pad, 0);
  if (!finite || !HasGrid(w_amax)) return;
  w_scale_ = w_amax / 127.0f;
  const float w_inv = 127.0f / w_amax;
  for (int oc = 0; oc < out_c_; ++oc) {
    for (int r = 0; r < k; ++r) {
      q_weights_[static_cast<std::size_t>(oc) * k_pad + r] =
          SnapToGrid(weights_[static_cast<std::size_t>(oc) * k + r], w_inv);
    }
  }
}

bool ConvLayer::QuantizedForwardInto(const Tensor& input, Tensor* out) const {
  // Dynamic per-tensor activation scale over the input. Any non-finite value
  // disables quantization for this call (containment policy in layers.h).
  const float* in = input.data();
  const std::size_t in_size = input.size();
  float in_amax = 0.0f;
  if (!ScanAmax(in, in_size, &in_amax)) return false;
  if (!HasGrid(in_amax)) return false;
  if (q_weights_.empty()) return false;  // no snapshot

  PatchGeom g;
  g.batch = input.n();
  g.in_c = in_c_;
  g.in_h = input.h();
  g.in_w = input.w();
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  g.out_h = (g.in_h + 2 * pad_ - kernel_) / stride_ + 1;
  g.out_w = (g.in_w + 2 * pad_ - kernel_) / stride_ + 1;
  CERTKIT_CHECK(g.out_h > 0 && g.out_w > 0);
  g.padded_h = g.in_h + 2 * pad_;
  g.padded_w = g.in_w + 2 * pad_;
  g.k = in_c_ * kernel_ * kernel_;
  g.n = g.batch * g.out_h * g.out_w;
  g.n_pad = kernels::micro::PadTo(g.n, kernels::micro::kTileN);
  const int k_pad = kernels::micro::PadTo(g.k, 2);
  const int m_pad = kernels::micro::PadTo(out_c_, kernels::micro::kTileM);
  QuantScratch& s = Scratch();

  const float in_scale = in_amax / 127.0f;
  s.padded.resize(static_cast<std::size_t>(g.batch) * in_c_ * g.padded_h *
                  g.padded_w);
  QuantizePadded(in, g, 127.0f / in_amax, s.padded.data());

  const std::size_t zeros_needed =
      static_cast<std::size_t>(g.out_w) * g.stride;
  if (s.zeros.size() < zeros_needed) s.zeros.resize(zeros_needed, 0);
  s.patches.resize(static_cast<std::size_t>(k_pad) * g.n_pad);
  PackPatches(s.padded.data(), g, s.zeros.data(), s.patches.data());

  // Register-tiled integer GEMM: C[M,N] = W[M,K] · patches in int32.
  s.acc.resize(static_cast<std::size_t>(m_pad) * g.n_pad);
  kernels::micro::GemmS16S32(q_weights_.data(), s.patches.data(),
                             s.acc.data(),
                             kernels::GemmShape{m_pad, g.n_pad, k_pad});

  // Dequantize with the combined scale and add bias, un-interleaving the
  // column index back into NCHW.
  out->Reshape(g.batch, out_c_, g.out_h, g.out_w);
  const float combined = in_scale * w_scale_;
  float* o = out->data();
  const std::size_t hw = static_cast<std::size_t>(g.out_h) * g.out_w;
  for (int b = 0; b < g.batch; ++b) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const float bias = bias_.empty() ? 0.0f : bias_[oc];
      const std::int32_t* arow = s.acc.data() +
                                 static_cast<std::size_t>(oc) * g.n_pad +
                                 static_cast<std::size_t>(b) * hw;
      float* orow = o + (static_cast<std::size_t>(b) * out_c_ + oc) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        orow[j] = combined * static_cast<float>(arow[j]) + bias;
      }
    }
  }
  return true;
}

}  // namespace nn
