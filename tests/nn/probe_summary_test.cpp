// Summarized coverage facts: each nn layer whose loop accumulates its
// coverage facts in locals and publishes them once per call must record
// exactly the CoverSet of its per-element probed reference
// (probed_reference.h), and write the same output bits. Inputs are
// randomized and salted with NaN, ±inf and ±0.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coverage/coverage.h"
#include "nn/detector.h"
#include "nn/layers.h"
#include "probed_reference.h"
#include "support/rng.h"

namespace nn {
namespace {

using certkit::cov::CoverSet;
using certkit::support::Xoshiro256;

// Everything the calling thread's probes record while `run` executes.
template <typename Fn>
CoverSet Captured(Fn&& run) {
  certkit::cov::ThreadCapture capture;
  run();
  return capture.Take();
}

std::string Describe(const CoverSet& cover) {
  std::ostringstream os;
  for (const auto& [name, unit] : cover) {
    os << name << " stmts{";
    for (const int s : unit.stmts) os << ' ' << s;
    os << " }";
    for (const auto& [id, d] : unit.decisions) {
      os << " d" << id << "{";
      for (const auto& [mask, outcome] : d.vectors) {
        os << ' ' << mask << (outcome ? "T" : "F");
      }
      os << " }";
    }
    os << "; ";
  }
  return os.str();
}

void ExpectSameFacts(const CoverSet& want, const CoverSet& got) {
  EXPECT_FALSE(want.empty());
  EXPECT_TRUE(want == got) << "reference: " << Describe(want)
                           << "\nsummarized: " << Describe(got);
}

// A uniform value in [lo, hi), or now and then one of NaN, ±inf, ±0.
float Salted(Xoshiro256& rng, double lo, double hi) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float special[] = {std::numeric_limits<float>::quiet_NaN(), kInf,
                           -kInf, 0.0f, -0.0f};
  if (rng.UniformInt(0, 7) == 0) return special[rng.UniformInt(0, 4)];
  return static_cast<float>(rng.UniformDouble(lo, hi));
}

Tensor RandomTensor(int n, int c, int h, int w, Xoshiro256& rng, double lo,
                    double hi) {
  Tensor t(n, c, h, w);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = Salted(rng, lo, hi);
  }
  return t;
}

void ExpectSameBits(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.n(), got.n());
  ASSERT_EQ(want.c(), got.c());
  ASSERT_EQ(want.h(), got.h());
  ASSERT_EQ(want.w(), got.w());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0);
}

void ExpectSameBits(const std::vector<Detection>& want,
                    const std::vector<Detection>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i].x),
              std::bit_cast<std::uint32_t>(got[i].x));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i].y),
              std::bit_cast<std::uint32_t>(got[i].y));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i].w),
              std::bit_cast<std::uint32_t>(got[i].w));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i].h),
              std::bit_cast<std::uint32_t>(got[i].h));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i].score),
              std::bit_cast<std::uint32_t>(got[i].score));
    EXPECT_EQ(want[i].cls, got[i].cls);
  }
}

TEST(ProbeSummaryTest, ActivationMatchesReference) {
  Xoshiro256 rng(11);
  const Activation kinds[] = {Activation::kRelu, Activation::kLeakyRelu,
                              Activation::kLinear};
  for (const Activation kind : kinds) {
    // Mixed signs, then all non-negative (no clamp/scale facts at all).
    for (const double lo : {-4.0, 0.0}) {
      SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                      << " lo " << lo);
      Tensor in = RandomTensor(2, 3, 5, 7, rng, lo, 4.0);
      if (lo == 0.0) {
        for (std::size_t i = 0; i < in.size(); ++i) {
          in.data()[i] = std::fabs(in.data()[i]);
        }
      }
      ActivationLayer layer(kind, 0.1f);
      Tensor got, want;
      const CoverSet summarized =
          Captured([&] { layer.ForwardInto(in, &got); });
      const CoverSet reference =
          Captured([&] { reference::Activate(kind, 0.1f, in, &want); });
      ExpectSameFacts(reference, summarized);
      ExpectSameBits(want, got);
    }
  }
}

TEST(ProbeSummaryTest, BatchNormMatchesReference) {
  Xoshiro256 rng(12);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Channels hit every d_identity vector, plus a NaN scale.
  const std::vector<std::vector<float>> scales = {
      {1.0f, 1.0f, 2.0f, 0.5f, nan}, {1.0f, 1.0f, 1.0f, 1.0f, 1.0f}};
  const std::vector<std::vector<float>> shifts = {
      {0.0f, -0.0f, 0.0f, 0.25f, 0.0f}, {0.0f, 3.0f, 0.0f, 0.0f, 0.0f}};
  for (std::size_t k = 0; k < scales.size(); ++k) {
    SCOPED_TRACE(k);
    const Tensor in = RandomTensor(2, 5, 4, 6, rng, -3.0, 3.0);
    BatchNormLayer layer(scales[k], shifts[k]);
    Tensor got, want;
    const CoverSet summarized = Captured([&] { layer.ForwardInto(in, &got); });
    const CoverSet reference = Captured(
        [&] { reference::BatchNorm(scales[k], shifts[k], in, &want); });
    ExpectSameFacts(reference, summarized);
    ExpectSameBits(want, got);
  }
}

TEST(ProbeSummaryTest, MaxPoolMatchesReferenceOnEvenAndRaggedShapes) {
  Xoshiro256 rng(13);
  struct Shape {
    int size, stride, h, w;
  };
  const Shape shapes[] = {
      {2, 2, 6, 8},  // even: the 2×2 stride-2 path
      {2, 2, 5, 8},  // ragged rows
      {2, 2, 6, 7},  // ragged columns
      {2, 2, 5, 7},  // ragged both ways
      {3, 2, 7, 8},  // overlapping windows
      {3, 1, 5, 5},  // stride 1, no rag
      {2, 3, 7, 7},  // stride past the window: gaps between windows
      {2, 2, 1, 1},  // one window, mostly out of bounds
  };
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.size << "/" << s.stride << " on "
                                    << s.h << "x" << s.w);
    const Tensor in = RandomTensor(2, 3, s.h, s.w, rng, -5.0, 5.0);
    MaxPoolLayer layer(s.size, s.stride);
    Tensor got, want;
    const CoverSet summarized = Captured([&] { layer.ForwardInto(in, &got); });
    const CoverSet reference =
        Captured([&] { reference::MaxPool(s.size, s.stride, in, &want); });
    ExpectSameFacts(reference, summarized);
    ExpectSameBits(want, got);
  }
}

TEST(ProbeSummaryTest, PreprocessMatchesReference) {
  Xoshiro256 rng(14);
  struct Shape {
    int n, h, w, target_h, target_w;
  };
  const Shape shapes[] = {
      {1, 16, 16, 16, 16},   // square: normalize only
      {2, 32, 32, 16, 16},   // resize down
      {1, 8, 12, 16, 24},    // resize up
      {1, 16, 32, 16, 16},   // letterbox: pad rows
      {2, 40, 24, 16, 16},   // letterbox: pad columns
      {1, 64, 128, 64, 64},  // the campaign's letterbox shape
  };
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.h << "x" << s.w << " -> "
                                    << s.target_h << "x" << s.target_w);
    const Tensor frame = RandomTensor(s.n, 3, s.h, s.w, rng, 0.0, 255.0);
    Tensor got, want;
    const CoverSet summarized = Captured(
        [&] { PreprocessInto(frame, s.target_h, s.target_w, &got); });
    const CoverSet reference = Captured([&] {
      reference::Preprocess(frame, s.target_h, s.target_w, &want);
    });
    ExpectSameFacts(reference, summarized);
    ExpectSameBits(want, got);
  }
}

TEST(ProbeSummaryTest, DecodeMatchesReferenceForOneAndThreeClasses) {
  Xoshiro256 rng(15);
  for (const int classes : {1, 3}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(testing::Message() << classes << " classes, trial "
                                      << trial);
      DetectorConfig config;
      config.input_h = 48;
      config.input_w = 64;
      config.num_classes = classes;
      config.score_threshold = 0.4f;
      const Tensor head = RandomTensor(2, 5 + classes, 6, 8, rng, -4.0, 6.0);
      std::vector<Detection> got, want;
      const CoverSet summarized =
          Captured([&] { DecodeDetectionsInto(head, config, &got); });
      const CoverSet reference =
          Captured([&] { reference::Decode(head, config, &want); });
      ExpectSameFacts(reference, summarized);
      ExpectSameBits(want, got);
    }
  }
}

std::vector<Detection> RandomDetections(int n, Xoshiro256& rng) {
  std::vector<Detection> out;
  for (int i = 0; i < n; ++i) {
    Detection d;
    // Centres and scores stay finite: they order the NMS sort.
    d.x = static_cast<float>(rng.UniformDouble(0.0, 48.0));
    d.y = static_cast<float>(rng.UniformDouble(0.0, 48.0));
    d.w = Salted(rng, 0.0, 20.0);
    d.h = Salted(rng, 0.0, 20.0);
    d.score = static_cast<float>(rng.UniformInt(1, 12)) / 12.0f;
    d.cls = static_cast<int>(rng.UniformInt(0, 2));
    out.push_back(d);
  }
  return out;
}

TEST(ProbeSummaryTest, NmsMatchesReferenceWithMixedClasses) {
  Xoshiro256 rng(16);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<Detection> dets =
        RandomDetections(static_cast<int>(rng.UniformInt(1, 40)), rng);
    std::vector<Detection> got = dets, want = dets;
    const CoverSet summarized = Captured([&] { NmsInPlace(&got, 0.45f); });
    const CoverSet reference =
        Captured([&] { reference::Nms(&want, 0.45f); });
    ExpectSameFacts(reference, summarized);
    ExpectSameBits(want, got);
  }
  // The public Iou records one pair's d_no_overlap facts per call.
  const std::vector<Detection> pair = RandomDetections(2, rng);
  for (const auto& [a, b] : {std::pair{pair[0], pair[1]},
                             std::pair{pair[0], pair[0]}}) {
    float got = 0.0f, want = 0.0f;
    const CoverSet summarized = Captured([&] { got = Iou(a, b); });
    const CoverSet reference =
        Captured([&] { want = reference::Iou(a, b); });
    ExpectSameFacts(reference, summarized);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want),
              std::bit_cast<std::uint32_t>(got));
  }
}

// Fleet workers run the summarized layers concurrently on shared Units,
// each under its own capture: every capture must still hold exactly its
// own thread's facts.
TEST(ProbeSummaryTest, ConcurrentCapturesSeeOnlyTheirOwnFacts) {
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  std::vector<CoverSet> want(kThreads);
  Xoshiro256 rng(17);
  MaxPoolLayer pool(2, 2);
  ActivationLayer leaky(Activation::kLeakyRelu, 0.1f);
  for (int t = 0; t < kThreads; ++t) {
    // Thread t sees negative values only when t is odd, and a ragged pool
    // only when t >= 2.
    Tensor in = RandomTensor(1, 2, 6 + t / 2, 8, rng, t % 2 ? -4.0 : 0.5,
                             4.0);
    if (t % 2 == 0) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.data()[i] = std::fabs(in.data()[i]);
      }
    }
    Tensor scratch;
    pool.ForwardInto(in, &scratch);  // declares the Units
    leaky.ForwardInto(in, &scratch);
    want[static_cast<std::size_t>(t)] = Captured([&] {
      reference::MaxPool(2, 2, in, &scratch);
      reference::Activate(Activation::kLeakyRelu, 0.1f, in, &scratch);
    });
    inputs.push_back(std::move(in));
  }
  std::vector<CoverSet> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MaxPoolLayer local_pool(2, 2);
      ActivationLayer local_leaky(Activation::kLeakyRelu, 0.1f);
      Tensor scratch;
      const Tensor& in = inputs[static_cast<std::size_t>(t)];
      got[static_cast<std::size_t>(t)] = Captured([&] {
        for (int rep = 0; rep < 50; ++rep) {
          local_pool.ForwardInto(in, &scratch);
          local_leaky.ForwardInto(in, &scratch);
        }
      });
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ExpectSameFacts(want[static_cast<std::size_t>(t)],
                    got[static_cast<std::size_t>(t)]);
  }
}

}  // namespace
}  // namespace nn
