// The int8 inference path of ConvLayer (tentpole of the allocation-free
// tick work): per-layer symmetric scales, int8-grid im2col, an
// int32-accumulating dot-product micro-GEMM, combined-scale dequantize.
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
// Layout note: quantized values are stored widened to int16 and the im2col
// patch matrix is built TRANSPOSED ([N, K] with K contiguous) so the GEMM
// runs as int16×int16→int32 dot products — the form the x86 vectorizer maps
// to PMADDWD. See kernels::micro::GemmS16S32DotT.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/gemm.h"
#include "nn/layers.h"

namespace nn {

namespace {

struct QuantScratch {
  std::vector<std::int16_t> q_input;  // quantized activations, input layout
  std::vector<std::int16_t> cols;     // transposed patch matrix [N, K]
  std::vector<std::int32_t> acc;      // GEMM accumulators [M, N]
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

// Transposed int16 im2col: row j = ((b*OH)+oh)*OW+ow holds that output
// pixel's K-length receptive-field patch contiguously (column r =
// (ci, kh, kw)). Zero padding is exact in the integer domain. KF is the
// compile-time kernel size (0 = generic): the backbone's 3×3 and the
// head's 1×1 get fully unrolled tap loops, which is worth ~2× on this
// stage — a runtime `kernel_` bound defeats the unroller.
template <int KF>
void Im2colT(const std::int16_t* q_input, int batch, int in_c, int in_h,
             int in_w, int kernel_rt, int stride, int pad, int out_h,
             int out_w, std::int16_t* cols) {
  const int kernel = KF > 0 ? KF : kernel_rt;
  const int kk2 = kernel * kernel;
  const int patch = in_c * kk2;
  for (int b = 0; b < batch; ++b) {
    const std::int16_t* image =
        q_input + static_cast<std::size_t>(b) * in_c * in_h * in_w;
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ++ow) {
        std::int16_t* prow =
            cols + (static_cast<std::size_t>(b) * out_h * out_w +
                    static_cast<std::size_t>(oh) * out_w + ow) *
                       patch;
        for (int ci = 0; ci < in_c; ++ci) {
          const std::int16_t* plane =
              image + static_cast<std::size_t>(ci) * in_h * in_w;
          std::int16_t* pdst = prow + static_cast<std::size_t>(ci) * kk2;
          for (int kh = 0; kh < kernel; ++kh) {
            const int iy = oh * stride - pad + kh;
            std::int16_t* drow = pdst + kh * kernel;
            if (iy < 0 || iy >= in_h) {
              for (int kw = 0; kw < kernel; ++kw) drow[kw] = 0;
              continue;
            }
            const std::int16_t* srow =
                plane + static_cast<std::size_t>(iy) * in_w;
            for (int kw = 0; kw < kernel; ++kw) {
              const int ix = ow * stride - pad + kw;
              drow[kw] = (ix >= 0 && ix < in_w) ? srow[ix] : 0;
            }
          }
        }
      }
    }
  }
}

// Symmetric int8-grid snap (scale = amax / 127), round half away from zero,
// computed in the branch-free truncate(q ± 0.5) form so the whole quantize
// loop vectorizes (std::round is a libm call the SSE2 target cannot inline).
// Values are bounded by amax, so the clamp only guards FP edge rounding.
inline std::int16_t SnapToGrid(float v, float inv_scale) {
  float q = v * inv_scale;
  q = q >= 0.0f ? q + 0.5f : q - 0.5f;
  int i = static_cast<int>(q);  // truncation toward zero
  i = i > 127 ? 127 : (i < -127 ? -127 : i);
  return static_cast<std::int16_t>(i);
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
  q_weights_.assign(weights_.size(), 0);
  if (!finite || w_amax == 0.0f) return;
  w_scale_ = w_amax / 127.0f;
  const float w_inv = 127.0f / w_amax;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    q_weights_[i] = SnapToGrid(weights_[i], w_inv);
  }
}

bool ConvLayer::QuantizedForwardInto(const Tensor& input, Tensor* out) const {
  // Dynamic per-tensor activation scale over the input. Any non-finite value
  // disables quantization for this call (containment policy in layers.h).
  const float* in = input.data();
  const std::size_t in_size = input.size();
  float in_amax = 0.0f;
  if (!ScanAmax(in, in_size, &in_amax)) return false;
  if (in_amax == 0.0f) return false;
  if (q_weights_.size() != weights_.size()) return false;  // no snapshot

  const int batch = input.n();
  const int in_h = input.h();
  const int in_w = input.w();
  const int out_h = (in_h + 2 * pad_ - kernel_) / stride_ + 1;
  const int out_w = (in_w + 2 * pad_ - kernel_) / stride_ + 1;
  CERTKIT_CHECK(out_h > 0 && out_w > 0);

  const int patch = in_c_ * kernel_ * kernel_;        // K
  const int cols_n = batch * out_h * out_w;           // N
  QuantScratch& s = Scratch();

  const float in_scale = in_amax / 127.0f;
  const float in_inv = 127.0f / in_amax;
  s.q_input.resize(in_size);
  for (std::size_t i = 0; i < in_size; ++i) {
    s.q_input[i] = SnapToGrid(in[i], in_inv);
  }

  s.cols.resize(static_cast<std::size_t>(cols_n) * patch);
  if (kernel_ == 3) {
    Im2colT<3>(s.q_input.data(), batch, in_c_, in_h, in_w, kernel_, stride_,
               pad_, out_h, out_w, s.cols.data());
  } else if (kernel_ == 1) {
    Im2colT<1>(s.q_input.data(), batch, in_c_, in_h, in_w, kernel_, stride_,
               pad_, out_h, out_w, s.cols.data());
  } else {
    Im2colT<0>(s.q_input.data(), batch, in_c_, in_h, in_w, kernel_, stride_,
               pad_, out_h, out_w, s.cols.data());
  }

  // Register-tiled integer GEMM: C[M,N] = W[M,K] · patchᵀ in int32.
  s.acc.resize(static_cast<std::size_t>(out_c_) * cols_n);
  kernels::micro::GemmS16S32DotT(q_weights_.data(), s.cols.data(),
                                 s.acc.data(),
                                 kernels::GemmShape{out_c_, cols_n, patch});

  // Dequantize with the combined scale and add bias, un-interleaving the
  // column index back into NCHW.
  out->Reshape(batch, out_c_, out_h, out_w);
  const float combined = in_scale * w_scale_;
  float* o = out->data();
  const std::size_t hw = static_cast<std::size_t>(out_h) * out_w;
  for (int b = 0; b < batch; ++b) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const float bias = bias_.empty() ? 0.0f : bias_[oc];
      const std::int32_t* arow = s.acc.data() +
                                 static_cast<std::size_t>(oc) * cols_n +
                                 static_cast<std::size_t>(b) * hw;
      float* orow =
          o + (static_cast<std::size_t>(b) * out_c_ + oc) * hw;
      for (std::size_t j = 0; j < hw; ++j) {
        orow[j] = combined * static_cast<float>(arow[j]) + bias;
      }
    }
  }
  return true;
}

}  // namespace nn
