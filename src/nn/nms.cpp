// Non-maximum suppression.
#include <algorithm>
#include <cstdint>

#include "coverage/coverage.h"
#include "nn/detector.h"

namespace nn {

namespace {
struct NmsProbes {
  certkit::cov::Unit* u;
  int d_suppress;     // same class && IoU over threshold
  int d_no_overlap;   // zero intersection fast path
  enum : int {
    kSKeep = 0,
    kSSuppress,
    kSZeroOverlap,
    kSOverlapCompute,
    kSCount
  };
};
NmsProbes& P() {
  static NmsProbes p = [] {
    NmsProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate("yolo/nms.cc");
    q.u->DeclareStatements(NmsProbes::kSCount);
    q.d_suppress = q.u->DeclareDecision(2);
    q.d_no_overlap = q.u->DeclareDecision(2);  // dx <= 0 || dy <= 0
    return q;
  }();
  return p;
}

// A detection's corner coordinates and area, computed once per NMS pass
// instead of once per pair (same expressions, so the same bits).
struct Box {
  float x0, x1, y0, y1, area;
};

Box BoxOf(const Detection& d) {
  return {d.x - d.w / 2, d.x + d.w / 2, d.y - d.h / 2, d.y + d.h / 2,
          d.w * d.h};
}

// IoU of a and b. Sets *no_overlap to the d_no_overlap condition mask
// (bit 0: dx <= 0, bit 1: dy <= 0); both conditions are always evaluated.
inline float IouMasked(const Box& a, const Box& b, unsigned* no_overlap) {
  const float dx = std::min(a.x1, b.x1) - std::max(a.x0, b.x0);
  const float dy = std::min(a.y1, b.y1) - std::max(a.y0, b.y0);
  *no_overlap = static_cast<unsigned>(dx <= 0.0f) |
                static_cast<unsigned>(dy <= 0.0f) << 1;
  if (*no_overlap != 0) return 0.0f;
  const float inter = dx * dy;
  const float uni = a.area + b.area - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

// Publishes the d_no_overlap condition masks in `seen`.
void RecordOverlap(const NmsProbes& p, std::uint32_t seen) {
  certkit::cov::RecordVectors(p.u, p.d_no_overlap, seen,
                              certkit::cov::kOutcomeOr2,
                              NmsProbes::kSZeroOverlap,
                              NmsProbes::kSOverlapCompute);
}

}  // namespace

float Iou(const Detection& a, const Detection& b) {
  unsigned no_overlap = 0;
  const float iou = IouMasked(BoxOf(a), BoxOf(b), &no_overlap);
  RecordOverlap(P(), 1u << no_overlap);
  return iou;
}

std::vector<Detection> Nms(std::vector<Detection> detections,
                           float iou_threshold) {
  NmsInPlace(&detections, iou_threshold);
  return detections;
}

void NmsInPlace(std::vector<Detection>* detections, float iou_threshold) {
  NmsProbes& p = P();
  std::vector<Detection>& d = *detections;
  // Score-descending with a positional tie-break so that equal-score
  // detections are ordered deterministically regardless of backend.
  std::sort(d.begin(), d.end(),
            [](const Detection& a, const Detection& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.y != b.y) return a.y < b.y;
              if (a.x != b.x) return a.x < b.x;
              return a.cls < b.cls;
            });
  // Suppression flags and boxes live in thread_local scratch so pool workers
  // running per-frame NMS never contend or allocate once warm. Survivors are
  // compacted in place: the write cursor trails i, and the inner loop only
  // reads slots > i, so no live element is overwritten before it is read.
  thread_local std::vector<char> suppressed;
  thread_local std::vector<Box> boxes;
  suppressed.assign(d.size(), 0);
  boxes.resize(d.size());
  std::transform(d.begin(), d.end(), boxes.begin(), BoxOf);
  std::size_t kept = 0;
  // Condition masks evaluated per decision, published after the loop. Both
  // conditions of d_suppress are evaluated eagerly, so a cross-class pair
  // still computes its IoU and yields its d_no_overlap facts.
  std::uint32_t suppress = 0, overlap = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (suppressed[i]) continue;
    const Detection det = d[i];
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      if (suppressed[j]) continue;
      const bool same_cls = det.cls == d[j].cls;
      unsigned no_overlap = 0;
      const bool over =
          IouMasked(boxes[i], boxes[j], &no_overlap) > iou_threshold;
      overlap |= 1u << no_overlap;
      suppress |= 1u << (static_cast<unsigned>(same_cls) |
                         static_cast<unsigned>(over) << 1);
      if (same_cls && over) suppressed[j] = 1;
    }
    d[kept++] = det;
  }
  d.resize(kept);
  if (kept == 0) return;
  p.u->Stmt(NmsProbes::kSKeep);
  certkit::cov::RecordVectors(p.u, p.d_suppress, suppress,
                              certkit::cov::kOutcomeAnd2,
                              NmsProbes::kSSuppress);
  RecordOverlap(p, overlap);
}

}  // namespace nn
