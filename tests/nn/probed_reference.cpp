#include "probed_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "coverage/coverage.h"

namespace nn::reference {

namespace {

using certkit::cov::Unit;

// The production Unit `name`, which the production layer has declared.
Unit& Declared(const char* name) {
  Unit& u = certkit::cov::Registry::Instance().GetOrCreate(name);
  CERTKIT_CHECK_MSG(u.declared_decisions() > 0,
                    name << " is not declared: run the production layer "
                            "once before its reference");
  return u;
}

// Probe ids, in the production declaration order.
namespace bn {
enum : int { kDIdentity = 0 };
enum : int { kSApply = 0, kSIdentityFast };
}  // namespace bn
namespace act {
enum : int { kDLinear = 0, kDRelu, kDNegative };
enum : int { kSLinear = 0, kSReluClamp, kSReluPass, kSLeakyScale, kSLeakyPass };
}  // namespace act
namespace pool {
enum : int { kDInBounds = 0, kDBetter };
enum : int { kSWindow = 0, kSOutOfBounds, kSUpdateMax };
}  // namespace pool
namespace pre {
enum : int { kDSameSize = 0, kDAspectMatch, kDPadPixel };
enum : int {
  kSNormalizeOnly = 0,
  kSResize,
  kSLetterboxSetup,
  kSLetterboxPad,
  kSLetterboxCopy
};
}  // namespace pre
namespace dec {
enum : int { kDAboveThreshold = 0, kDClamp, kDClassBetter };
enum : int { kSCell = 0, kSAccept, kSReject, kSClampApplied, kSClassUpdate };
}  // namespace dec
namespace nms {
enum : int { kDSuppress = 0, kDNoOverlap };
enum : int { kSKeep = 0, kSSuppress, kSZeroOverlap, kSOverlapCompute };
}  // namespace nms

float Sample(const Tensor& t, int n, int c, float fy, float fx) {
  int y = static_cast<int>(std::floor(fy));
  int x = static_cast<int>(std::floor(fx));
  y = std::clamp(y, 0, t.h() - 1);
  x = std::clamp(x, 0, t.w() - 1);
  return t.At(n, c, y, x);
}

float Sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }

}  // namespace

void BatchNorm(const std::vector<float>& scale,
               const std::vector<float>& shift, const Tensor& input,
               Tensor* out_t) {
  Unit& u = Declared("yolo/batchnorm.cc");
  out_t->Reshape(input.n(), input.c(), input.h(), input.w());
  Tensor& out = *out_t;
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      const float s = scale[static_cast<std::size_t>(c)];
      const float b = shift[static_cast<std::size_t>(c)];
      const bool c_scale1 = u.Cond(bn::kDIdentity, 0, s == 1.0f);
      const bool c_shift0 = u.Cond(bn::kDIdentity, 1, b == 0.0f);
      if (u.Dec(bn::kDIdentity, c_scale1 && c_shift0)) {
        u.Stmt(bn::kSIdentityFast);
        for (int y = 0; y < input.h(); ++y) {
          for (int x = 0; x < input.w(); ++x) {
            out.At(n, c, y, x) = input.At(n, c, y, x);
          }
        }
      } else {
        u.Stmt(bn::kSApply);
        for (int y = 0; y < input.h(); ++y) {
          for (int x = 0; x < input.w(); ++x) {
            out.At(n, c, y, x) = s * input.At(n, c, y, x) + b;
          }
        }
      }
    }
  }
}

void Activate(Activation kind, float leaky_slope, const Tensor& input,
              Tensor* out_t) {
  Unit& u = Declared("yolo/activation.cc");
  out_t->Reshape(input.n(), input.c(), input.h(), input.w());
  const float* in = input.data();
  float* o = out_t->data();
  if (u.Branch(act::kDLinear, kind == Activation::kLinear)) {
    u.Stmt(act::kSLinear);
    std::copy(in, in + input.size(), o);
    return;
  }
  const bool is_relu = u.Branch(act::kDRelu, kind == Activation::kRelu);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float v = in[i];
    if (u.Branch(act::kDNegative, v < 0.0f)) {
      if (is_relu) {
        u.Stmt(act::kSReluClamp);
        o[i] = 0.0f;
      } else {
        u.Stmt(act::kSLeakyScale);
        o[i] = leaky_slope * v;
      }
    } else {
      u.Stmt(is_relu ? act::kSReluPass : act::kSLeakyPass);
      o[i] = v;
    }
  }
}

void MaxPool(int size, int stride, const Tensor& input, Tensor* out_t) {
  Unit& u = Declared("yolo/pooling.cc");
  const int oh = (input.h() - size) / stride + 1;
  const int ow = (input.w() - size) / stride + 1;
  out_t->Reshape(input.n(), input.c(), oh, ow);
  Tensor& out = *out_t;
  for (int n = 0; n < input.n(); ++n) {
    for (int c = 0; c < input.c(); ++c) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          u.Stmt(pool::kSWindow);
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < size; ++ky) {
            for (int kx = 0; kx < size; ++kx) {
              const int iy = y * stride + ky;
              const int ix = x * stride + kx;
              const bool cy = u.Cond(pool::kDInBounds, 0, iy < input.h());
              const bool cx = u.Cond(pool::kDInBounds, 1, ix < input.w());
              if (!u.Dec(pool::kDInBounds, cy && cx)) {
                u.Stmt(pool::kSOutOfBounds);
                continue;
              }
              const float v = input.At(n, c, iy, ix);
              if (u.Branch(pool::kDBetter, v > best)) {
                u.Stmt(pool::kSUpdateMax);
                best = v;
              }
            }
          }
          out.At(n, c, y, x) = best;
        }
      }
    }
  }
}

void Preprocess(const Tensor& frame, int target_h, int target_w,
                Tensor* out_t) {
  Unit& u = Declared("yolo/preprocess.cc");
  constexpr float kScale = 1.0f / 255.0f;
  const bool hm = u.Cond(pre::kDSameSize, 0, frame.h() == target_h);
  const bool wm = u.Cond(pre::kDSameSize, 1, frame.w() == target_w);
  if (u.Dec(pre::kDSameSize, hm && wm)) {
    u.Stmt(pre::kSNormalizeOnly);
    out_t->Reshape(frame.n(), frame.c(), target_h, target_w);
    const float* in = frame.data();
    float* o = out_t->data();
    for (std::size_t i = 0; i < frame.size(); ++i) o[i] = in[i] * kScale;
    return;
  }
  const float frame_aspect =
      static_cast<float>(frame.w()) / static_cast<float>(frame.h());
  const float target_aspect =
      static_cast<float>(target_w) / static_cast<float>(target_h);
  out_t->Reshape(frame.n(), frame.c(), target_h, target_w);
  Tensor& out = *out_t;
  if (u.Branch(pre::kDAspectMatch,
               std::abs(frame_aspect - target_aspect) < 1e-6f)) {
    u.Stmt(pre::kSResize);
    const float sy = static_cast<float>(frame.h()) / target_h;
    const float sx = static_cast<float>(frame.w()) / target_w;
    for (int n = 0; n < frame.n(); ++n) {
      for (int c = 0; c < frame.c(); ++c) {
        for (int y = 0; y < target_h; ++y) {
          for (int x = 0; x < target_w; ++x) {
            out.At(n, c, y, x) =
                Sample(frame, n, c, y * sy, x * sx) * kScale;
          }
        }
      }
    }
    return;
  }
  u.Stmt(pre::kSLetterboxSetup);
  const float scale =
      std::min(static_cast<float>(target_w) / frame.w(),
               static_cast<float>(target_h) / frame.h());
  const int new_w = static_cast<int>(frame.w() * scale);
  const int new_h = static_cast<int>(frame.h() * scale);
  const int off_x = (target_w - new_w) / 2;
  const int off_y = (target_h - new_h) / 2;
  for (int n = 0; n < frame.n(); ++n) {
    for (int c = 0; c < frame.c(); ++c) {
      for (int y = 0; y < target_h; ++y) {
        for (int x = 0; x < target_w; ++x) {
          const bool in_y =
              u.Cond(pre::kDPadPixel, 0, y >= off_y && y < off_y + new_h);
          const bool in_x =
              u.Cond(pre::kDPadPixel, 1, x >= off_x && x < off_x + new_w);
          if (u.Dec(pre::kDPadPixel, in_y && in_x)) {
            u.Stmt(pre::kSLetterboxCopy);
            out.At(n, c, y, x) =
                Sample(frame, n, c, (y - off_y) / scale, (x - off_x) / scale) *
                kScale;
          } else {
            u.Stmt(pre::kSLetterboxPad);
            out.At(n, c, y, x) = 0.5f;
          }
        }
      }
    }
  }
}

void Decode(const Tensor& head, const DetectorConfig& config,
            std::vector<Detection>* out) {
  Unit& u = Declared("yolo/detection.cc");
  out->clear();
  const int grid_h = head.h();
  const int grid_w = head.w();
  const float cell_h =
      static_cast<float>(config.input_h) / static_cast<float>(grid_h);
  const float cell_w =
      static_cast<float>(config.input_w) / static_cast<float>(grid_w);
  for (int n = 0; n < head.n(); ++n) {
    for (int gy = 0; gy < grid_h; ++gy) {
      for (int gx = 0; gx < grid_w; ++gx) {
        u.Stmt(dec::kSCell);
        const float objectness = Sigmoid(head.At(n, 4, gy, gx));
        if (!u.Branch(dec::kDAboveThreshold,
                      objectness >= config.score_threshold)) {
          u.Stmt(dec::kSReject);
          continue;
        }
        u.Stmt(dec::kSAccept);
        Detection det;
        det.x = (gx + Sigmoid(head.At(n, 0, gy, gx))) * cell_w;
        det.y = (gy + Sigmoid(head.At(n, 1, gy, gx))) * cell_h;
        det.w = cell_w * std::exp(std::min(head.At(n, 2, gy, gx), 4.0f));
        det.h = cell_h * std::exp(std::min(head.At(n, 3, gy, gx), 4.0f));
        det.score = objectness;
        const bool out_x = u.Cond(
            dec::kDClamp, 0,
            det.x - det.w / 2 < 0.0f ||
                det.x + det.w / 2 > static_cast<float>(config.input_w));
        const bool out_y = u.Cond(
            dec::kDClamp, 1,
            det.y - det.h / 2 < 0.0f ||
                det.y + det.h / 2 > static_cast<float>(config.input_h));
        if (u.Dec(dec::kDClamp, out_x || out_y)) {
          u.Stmt(dec::kSClampApplied);
          const float x0 = std::max(0.0f, det.x - det.w / 2);
          const float y0 = std::max(0.0f, det.y - det.h / 2);
          const float x1 = std::min(static_cast<float>(config.input_w),
                                    det.x + det.w / 2);
          const float y1 = std::min(static_cast<float>(config.input_h),
                                    det.y + det.h / 2);
          det.x = (x0 + x1) / 2;
          det.y = (y0 + y1) / 2;
          det.w = x1 - x0;
          det.h = y1 - y0;
        }
        int best_cls = 0;
        float best_score = head.At(n, 5, gy, gx);
        for (int c = 1; c < config.num_classes; ++c) {
          const float s = head.At(n, 5 + c, gy, gx);
          if (u.Branch(dec::kDClassBetter, s > best_score)) {
            u.Stmt(dec::kSClassUpdate);
            best_score = s;
            best_cls = c;
          }
        }
        det.cls = best_cls;
        out->push_back(det);
      }
    }
  }
}

float Iou(const Detection& a, const Detection& b) {
  Unit& u = Declared("yolo/nms.cc");
  const float ax0 = a.x - a.w / 2, ax1 = a.x + a.w / 2;
  const float ay0 = a.y - a.h / 2, ay1 = a.y + a.h / 2;
  const float bx0 = b.x - b.w / 2, bx1 = b.x + b.w / 2;
  const float by0 = b.y - b.h / 2, by1 = b.y + b.h / 2;
  const float dx = std::min(ax1, bx1) - std::max(ax0, bx0);
  const float dy = std::min(ay1, by1) - std::max(ay0, by0);
  const bool no_x = u.Cond(nms::kDNoOverlap, 0, dx <= 0.0f);
  const bool no_y = u.Cond(nms::kDNoOverlap, 1, dy <= 0.0f);
  if (u.Dec(nms::kDNoOverlap, no_x || no_y)) {
    u.Stmt(nms::kSZeroOverlap);
    return 0.0f;
  }
  u.Stmt(nms::kSOverlapCompute);
  const float inter = dx * dy;
  const float area_a = a.w * a.h;
  const float area_b = b.w * b.h;
  const float uni = area_a + area_b - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

void Nms(std::vector<Detection>* detections, float iou_threshold) {
  Unit& u = Declared("yolo/nms.cc");
  std::vector<Detection>& d = *detections;
  std::sort(d.begin(), d.end(),
            [](const Detection& a, const Detection& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.y != b.y) return a.y < b.y;
              if (a.x != b.x) return a.x < b.x;
              return a.cls < b.cls;
            });
  std::vector<char> suppressed(d.size(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (suppressed[i]) continue;
    u.Stmt(nms::kSKeep);
    const Detection det = d[i];
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      if (suppressed[j]) continue;
      const bool same_cls = u.Cond(nms::kDSuppress, 0, det.cls == d[j].cls);
      const bool over =
          u.Cond(nms::kDSuppress, 1, reference::Iou(det, d[j]) > iou_threshold);
      if (u.Dec(nms::kDSuppress, same_cls && over)) {
        u.Stmt(nms::kSSuppress);
        suppressed[j] = 1;
      }
    }
    d[kept++] = det;
  }
  d.resize(kept);
}

}  // namespace nn::reference
