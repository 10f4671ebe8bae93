// BatchNorm, activation, max-pool, and upsample layers, each with its own
// coverage unit (they model distinct files of the YOLO implementation).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "coverage/coverage.h"
#include "nn/layers.h"

namespace nn {

// ---------------------------------------------------------------- batchnorm
namespace {
struct BnProbes {
  certkit::cov::Unit* u;
  int d_identity;
  enum : int { kSApply = 0, kSIdentityFast, kSCount };
};
BnProbes& BnP() {
  static BnProbes p = [] {
    BnProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/batchnorm.cc");
    q.u->DeclareStatements(BnProbes::kSCount);
    q.d_identity = q.u->DeclareDecision(2);  // scale==1 && shift==0
    return q;
  }();
  return p;
}
}  // namespace

BatchNormLayer::BatchNormLayer(std::vector<float> scale,
                               std::vector<float> shift)
    : scale_(std::move(scale)), shift_(std::move(shift)) {
  CERTKIT_CHECK(scale_.size() == shift_.size());
  CERTKIT_CHECK(!scale_.empty());
}

void BatchNormLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  BnProbes& p = BnP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  CERTKIT_CHECK_MSG(input.c() == static_cast<int>(scale_.size()),
                    "batchnorm channel mismatch");
  out_t->Reshape(input.n(), input.c(), input.h(), input.w());
  const std::size_t hw = static_cast<std::size_t>(input.h()) * input.w();
  std::uint32_t seen = 0;  // d_identity condition masks evaluated
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      const float s = scale_[static_cast<std::size_t>(c)];
      const float b = shift_[static_cast<std::size_t>(c)];
      const unsigned mask = static_cast<unsigned>(s == 1.0f) |
                            static_cast<unsigned>(b == 0.0f) << 1;
      seen |= 1u << mask;
      const std::size_t plane =
          (static_cast<std::size_t>(n) * input.c() + c) * hw;
      const float* in = input.data() + plane;
      float* o = out_t->data() + plane;
      if (mask == 3) {
        // Identity channel: copy without FMA (fast path).
        for (std::size_t i = 0; i < hw; ++i) o[i] = in[i];
      } else {
        for (std::size_t i = 0; i < hw; ++i) o[i] = s * in[i] + b;
      }
    }
  }
  certkit::cov::RecordVectors(p.u, p.d_identity, seen,
                              certkit::cov::kOutcomeAnd2,
                              BnProbes::kSIdentityFast, BnProbes::kSApply);
}

// --------------------------------------------------------------- activation
namespace {
struct ActProbes {
  certkit::cov::Unit* u;
  int d_linear, d_relu, d_negative;
  enum : int {
    kSLinear = 0,
    kSReluClamp,
    kSReluPass,
    kSLeakyScale,
    kSLeakyPass,
    kSCount
  };
};
ActProbes& ActP() {
  static ActProbes p = [] {
    ActProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/activation.cc");
    q.u->DeclareStatements(ActProbes::kSCount);
    q.d_linear = q.u->DeclareDecision(1);
    q.d_relu = q.u->DeclareDecision(1);
    q.d_negative = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}
}  // namespace

ActivationLayer::ActivationLayer(Activation kind, float leaky_slope)
    : kind_(kind), leaky_slope_(leaky_slope) {}

void ActivationLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  ActProbes& p = ActP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  out_t->Reshape(input.n(), input.c(), input.h(), input.w());
  const float* in = input.data();
  float* o = out_t->data();
  const std::size_t size = input.size();
  if (p.u->Branch(p.d_linear, kind_ == Activation::kLinear)) {
    p.u->Stmt(ActProbes::kSLinear);
    std::copy(in, in + size, o);
    return;
  }
  const bool is_relu = p.u->Branch(p.d_relu, kind_ == Activation::kRelu);
  // The negative-branch value is stored first so that the select below is
  // branch-free and vectorizes (a product inside the select would not); the
  // values written are the same.
  if (is_relu) {
    std::fill(o, o + size, 0.0f);
  } else {
    const float slope = leaky_slope_;
    for (std::size_t i = 0; i < size; ++i) o[i] = slope * in[i];
  }
  // d_negative outcomes seen, as OR-reductions of the select's comparison.
  unsigned negative = 0, pass = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const float v = in[i];
    const bool neg = v < 0.0f;
    negative |= static_cast<unsigned>(neg);
    pass |= static_cast<unsigned>(!neg);
    o[i] = neg ? o[i] : v;
  }
  certkit::cov::RecordVectors(
      p.u, p.d_negative, pass | negative << 1,
      certkit::cov::kOutcomeIsCondition,
      is_relu ? ActProbes::kSReluClamp : ActProbes::kSLeakyScale,
      is_relu ? ActProbes::kSReluPass : ActProbes::kSLeakyPass);
}

// ------------------------------------------------------------------ maxpool
namespace {
struct PoolProbes {
  certkit::cov::Unit* u;
  int d_in_bounds, d_better;
  enum : int { kSWindow = 0, kSOutOfBounds, kSUpdateMax, kSCount };
};
PoolProbes& PoolP() {
  static PoolProbes p = [] {
    PoolProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate("yolo/pooling.cc");
    q.u->DeclareStatements(PoolProbes::kSCount);
    q.d_in_bounds = q.u->DeclareDecision(2);
    q.d_better = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}
}  // namespace

MaxPoolLayer::MaxPoolLayer(int size, int stride) : size_(size),
                                                   stride_(stride) {
  CERTKIT_CHECK(size > 0 && stride > 0);
}

void MaxPoolLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  PoolProbes& p = PoolP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  const int oh = (input.h() - size_) / stride_ + 1;
  const int ow = (input.w() - size_) / stride_ + 1;
  CERTKIT_CHECK_MSG(oh > 0 && ow > 0, "pool output would be empty");
  out_t->Reshape(input.n(), input.c(), oh, ow);
  Tensor& out = *out_t;
  // The d_in_bounds vectors seen follow from the shape alone: window taps
  // sweep rows and columns independently, every row and column has an
  // in-bounds tap, and a tap falls out of bounds only where the last window
  // rags past the edge.
  const bool rag_y = (oh - 1) * stride_ + size_ > input.h();
  const bool rag_x = (ow - 1) * stride_ + size_ > input.w();
  // Bit (cy | cx << 1) is the vector with those condition values.
  const std::uint32_t in_bounds =
      0b1000u | (rag_y ? 0b0100u : 0u) | (rag_x ? 0b0010u : 0u) |
      (rag_y && rag_x ? 0b0001u : 0u);
  // d_better outcomes seen, as OR-reductions of the max fold's comparison
  // (tracked while `track` is std::true_type).
  unsigned better = 0, worse = 0;
  const auto fold = [&](float v, float best, auto track) {
    const bool gt = v > best;
    if constexpr (decltype(track)::value) {
      better |= static_cast<unsigned>(gt);
      worse |= static_cast<unsigned>(!gt);
    }
    return gt ? v : best;
  };
  if (size_ == 2 && stride_ == 2 && input.h() % 2 == 0 &&
      input.w() % 2 == 0) {
    // Every pool in the detector is 2×2 stride 2 on even dims, so the
    // window never rags off the edge and the per-tap bounds checks (and
    // At()'s index arithmetic) can go. The max is folded in the generic
    // loop's tap order from the same -inf seed, so the `v > best`
    // comparison chain — including its NaN behavior — is unchanged; that
    // fold is the form the vectorizer maps to maxps.
    const auto pool_row = [&](const float* r0, const float* r1, float* orow,
                              auto track) {
      for (int x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        best = fold(r0[2 * x], best, track);
        best = fold(r0[2 * x + 1], best, track);
        best = fold(r1[2 * x], best, track);
        best = fold(r1[2 * x + 1], best, track);
        orow[x] = best;
      }
    };
    const std::size_t planes =
        static_cast<std::size_t>(input.n()) * input.c();
    const int iw = input.w();
    const float* src = input.data();
    float* dst = out.data();
    for (std::size_t pl = 0; pl < planes; ++pl) {
      const float* in_plane =
          src + pl * static_cast<std::size_t>(input.h()) * iw;
      float* out_plane = dst + pl * static_cast<std::size_t>(oh) * ow;
      for (int y = 0; y < oh; ++y) {
        const float* r0 = in_plane + static_cast<std::size_t>(2 * y) * iw;
        const float* r1 = r0 + iw;
        float* orow = out_plane + static_cast<std::size_t>(y) * ow;
        // Once both outcomes are seen no later window can add a fact, so
        // the remaining rows fold without the bookkeeping.
        if ((better & worse) != 0) {
          pool_row(r0, r1, orow, std::false_type{});
        } else {
          pool_row(r0, r1, orow, std::true_type{});
        }
      }
    }
  } else {
    for (int n = 0; n < input.n(); ++n) {
      for (int c = 0; c < input.c(); ++c) {
        for (int y = 0; y < oh; ++y) {
          for (int x = 0; x < ow; ++x) {
            float best = -std::numeric_limits<float>::infinity();
            for (int ky = 0; ky < size_; ++ky) {
              const int iy = y * stride_ + ky;
              if (iy >= input.h()) continue;  // ragged edge: skip
              for (int kx = 0; kx < size_; ++kx) {
                const int ix = x * stride_ + kx;
                if (ix >= input.w()) continue;
                best =
                    fold(input.At(n, c, iy, ix), best, std::true_type{});
              }
            }
            out.At(n, c, y, x) = best;
          }
        }
      }
    }
  }
  p.u->Stmt(PoolProbes::kSWindow);
  certkit::cov::RecordVectors(p.u, p.d_in_bounds, in_bounds,
                              certkit::cov::kOutcomeAnd2, -1,
                              PoolProbes::kSOutOfBounds);
  certkit::cov::RecordVectors(p.u, p.d_better, worse | better << 1,
                              certkit::cov::kOutcomeIsCondition,
                              PoolProbes::kSUpdateMax);
}

// ----------------------------------------------------------------- upsample
namespace {
struct UpProbes {
  certkit::cov::Unit* u;
  int d_factor2;
  enum : int { kSFast2x = 0, kSGeneric, kSCount };
};
UpProbes& UpP() {
  static UpProbes p = [] {
    UpProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/upsample.cc");
    q.u->DeclareStatements(UpProbes::kSCount);
    q.d_factor2 = q.u->DeclareDecision(1);
    return q;
  }();
  return p;
}
}  // namespace

UpsampleLayer::UpsampleLayer(int factor) : factor_(factor) {
  CERTKIT_CHECK(factor >= 1);
}

void UpsampleLayer::ForwardInto(const Tensor& input, Tensor* out_t) {
  UpProbes& p = UpP();
  CERTKIT_CHECK(out_t != nullptr && out_t != &input);
  out_t->Reshape(input.n(), input.c(), input.h() * factor_,
                 input.w() * factor_);
  Tensor& out = *out_t;
  if (p.u->Branch(p.d_factor2, factor_ == 2)) {
    // Unrolled 2x fast path.
    p.u->Stmt(UpProbes::kSFast2x);
    for (int n = 0; n < input.n(); ++n) {
      for (int c = 0; c < input.c(); ++c) {
        for (int y = 0; y < input.h(); ++y) {
          for (int x = 0; x < input.w(); ++x) {
            const float v = input.At(n, c, y, x);
            out.At(n, c, 2 * y, 2 * x) = v;
            out.At(n, c, 2 * y, 2 * x + 1) = v;
            out.At(n, c, 2 * y + 1, 2 * x) = v;
            out.At(n, c, 2 * y + 1, 2 * x + 1) = v;
          }
        }
      }
    }
    return;
  }
  p.u->Stmt(UpProbes::kSGeneric);
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      for (int y = 0; y < out.h(); ++y) {
        for (int x = 0; x < out.w(); ++x) {
          out.At(n, c, y, x) = input.At(n, c, y / factor_, x / factor_);
        }
      }
    }
  }
}

}  // namespace nn
