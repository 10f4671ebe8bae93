// Test-only probed layers: the per-element instrumented loops of nn's
// batchnorm, activation, max-pool, preprocess, decode and NMS as they were
// before the production loops summarized their coverage facts. Every
// condition and decision fires its own probe, on the production Units and
// with the production probe ids, so probe_summary_test.cpp can hold the
// summarized loops to the same CoverSets and the same output bits. Not
// linked into any production target.
//
// Each function needs the production layer to have run once in the
// process first: that is what declares the Unit it probes.
#ifndef CERTKIT_TESTS_NN_PROBED_REFERENCE_H_
#define CERTKIT_TESTS_NN_PROBED_REFERENCE_H_

#include <vector>

#include "nn/detector.h"
#include "nn/layers.h"

namespace nn::reference {

void BatchNorm(const std::vector<float>& scale,
               const std::vector<float>& shift, const Tensor& input,
               Tensor* out);
void Activate(Activation kind, float leaky_slope, const Tensor& input,
              Tensor* out);
void MaxPool(int size, int stride, const Tensor& input, Tensor* out);
void Preprocess(const Tensor& frame, int target_h, int target_w,
                Tensor* out);
void Decode(const Tensor& head, const DetectorConfig& config,
            std::vector<Detection>* out);
float Iou(const Detection& a, const Detection& b);
void Nms(std::vector<Detection>* detections, float iou_threshold);

}  // namespace nn::reference

#endif  // CERTKIT_TESTS_NN_PROBED_REFERENCE_H_
