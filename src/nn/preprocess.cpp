// Frame preprocessing: normalization, resize, and letterboxing.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "coverage/coverage.h"
#include "nn/layers.h"

namespace nn {

namespace {
struct PreProbes {
  certkit::cov::Unit* u;
  int d_same_size, d_aspect_match, d_pad_pixel;
  enum : int {
    kSNormalizeOnly = 0,
    kSResize,
    kSLetterboxSetup,
    kSLetterboxPad,
    kSLetterboxCopy,
    kSCount
  };
};
PreProbes& P() {
  static PreProbes p = [] {
    PreProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "yolo/preprocess.cc");
    q.u->DeclareStatements(PreProbes::kSCount);
    q.d_same_size = q.u->DeclareDecision(2);  // h match && w match
    q.d_aspect_match = q.u->DeclareDecision(1);
    q.d_pad_pixel = q.u->DeclareDecision(2);
    return q;
  }();
  return p;
}

constexpr float kScale = 1.0f / 255.0f;  // 8-bit pixel values to [0, 1]

// Nearest-neighbour source index for a fractional position along an axis
// of `extent` samples. The fractional coordinate must be floored, not
// truncated: positions just below zero (top/left border under
// letterboxing, where (y - off) / scale can round a hair negative) must map
// to the border pixel via the clamp, not be pulled toward it by
// trunc-toward-zero.
int Nearest(float f, int extent) {
  return std::clamp(static_cast<int>(std::floor(f)), 0, extent - 1);
}

// Row y of channel c of image n.
const float* RowOf(const Tensor& t, int n, int c, int y) {
  return t.data() +
         ((static_cast<std::size_t>(n) * t.c() + c) * t.h() + y) * t.w();
}

// Scales `frame` into `out` preserving its aspect and pads the rest with
// mid-grey, publishing the d_pad_pixel facts once.
void Letterbox(const PreProbes& p, const Tensor& frame, Tensor* out_t) {
  Tensor& out = *out_t;
  const int target_h = out.h();
  const int target_w = out.w();
  const float scale =
      std::min(static_cast<float>(target_w) / frame.w(),
               static_cast<float>(target_h) / frame.h());
  const int new_w = static_cast<int>(frame.w() * scale);
  const int new_h = static_cast<int>(frame.h() * scale);
  const int off_x = (target_w - new_w) / 2;
  const int off_y = (target_h - new_h) / 2;
  // Every row splits into pad / image / pad column runs: [0, x0) and
  // [x1, target_w) fail the in_x condition, [x0, x1) passes it.
  const int x0 = std::clamp(off_x, 0, target_w);
  const int x1 = std::clamp(off_x + new_w, x0, target_w);
  const bool pad_cols = x0 > 0 || x1 < target_w;
  std::uint32_t seen = 0;  // d_pad_pixel condition masks evaluated
  for (int n = 0; n < frame.n(); ++n) {
    for (int c = 0; c < frame.c(); ++c) {
      for (int y = 0; y < target_h; ++y) {
        const bool in_y = y >= off_y && y < off_y + new_h;
        if (pad_cols) seen |= 1u << static_cast<unsigned>(in_y);
        if (x1 > x0) seen |= 1u << (static_cast<unsigned>(in_y) | 2u);
        float* row = &out.At(n, c, y, 0);
        if (!in_y) {
          std::fill(row, row + target_w, 0.5f);
          continue;
        }
        const float* src =
            RowOf(frame, n, c, Nearest((y - off_y) / scale, frame.h()));
        std::fill(row, row + x0, 0.5f);
        for (int x = x0; x < x1; ++x) {
          row[x] = src[Nearest((x - off_x) / scale, frame.w())] * kScale;
        }
        std::fill(row + x1, row + target_w, 0.5f);
      }
    }
  }
  certkit::cov::RecordVectors(p.u, p.d_pad_pixel, seen,
                              certkit::cov::kOutcomeAnd2,
                              PreProbes::kSLetterboxCopy,
                              PreProbes::kSLetterboxPad);
}

}  // namespace

Tensor Preprocess(const Tensor& frame, int target_h, int target_w) {
  Tensor out;
  PreprocessInto(frame, target_h, target_w, &out);
  return out;
}

void PreprocessInto(const Tensor& frame, int target_h, int target_w,
                    Tensor* out_t) {
  PreProbes& p = P();
  CERTKIT_CHECK(target_h > 0 && target_w > 0);
  CERTKIT_CHECK(out_t != nullptr && out_t != &frame);

  const bool hm = p.u->Cond(p.d_same_size, 0, frame.h() == target_h);
  const bool wm = p.u->Cond(p.d_same_size, 1, frame.w() == target_w);
  if (p.u->Dec(p.d_same_size, hm && wm)) {
    // Already the right size: normalize into the reused buffer.
    p.u->Stmt(PreProbes::kSNormalizeOnly);
    out_t->Reshape(frame.n(), frame.c(), target_h, target_w);
    const float* in = frame.data();
    float* o = out_t->data();
    const std::size_t size = frame.size();
    for (std::size_t i = 0; i < size; ++i) o[i] = in[i] * kScale;
    return;
  }

  const float frame_aspect =
      static_cast<float>(frame.w()) / static_cast<float>(frame.h());
  const float target_aspect =
      static_cast<float>(target_w) / static_cast<float>(target_h);
  out_t->Reshape(frame.n(), frame.c(), target_h, target_w);
  Tensor& out = *out_t;

  if (p.u->Branch(p.d_aspect_match,
                  std::abs(frame_aspect - target_aspect) < 1e-6f)) {
    // Plain resize.
    p.u->Stmt(PreProbes::kSResize);
    const float sy = static_cast<float>(frame.h()) / target_h;
    const float sx = static_cast<float>(frame.w()) / target_w;
    for (int n = 0; n < frame.n(); ++n) {
      for (int c = 0; c < frame.c(); ++c) {
        for (int y = 0; y < target_h; ++y) {
          const float* src = RowOf(frame, n, c, Nearest(y * sy, frame.h()));
          float* row = &out.At(n, c, y, 0);
          for (int x = 0; x < target_w; ++x) {
            row[x] = src[Nearest(x * sx, frame.w())] * kScale;
          }
        }
      }
    }
    return;
  }

  // Letterbox: preserve aspect, pad with mid-grey. Typical square scenario
  // frames never reach this path — a deliberate Figure 5 coverage gap.
  p.u->Stmt(PreProbes::kSLetterboxSetup);
  Letterbox(p, frame, &out);
}

}  // namespace nn
