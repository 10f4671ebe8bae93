// Determinism of the isaac_sim auto-tuner: the tile configuration chosen
// for a shape must be a pure function of (shape, sm_count) — no wall clock,
// no dependence on call count, evaluation order, or how many host threads
// the device runs on. The tuning cache is keyed on exactly (shape,
// sm_count), which is what lets concurrent campaign candidates share it
// without a reset and still evaluate reproducibly at any --jobs.
#include <gtest/gtest.h>

#include <vector>

#include "gpusim/gpusim.h"
#include "kernels/conv.h"

namespace kernels {
namespace {

ConvShape SmallShape() {
  ConvShape s;
  s.batch = 1;
  s.in_channels = 8;
  s.in_h = 16;
  s.in_w = 16;
  s.out_channels = 16;
  s.kernel_h = 3;
  s.kernel_w = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

TEST(TunerDeterminismTest, SameConfigAcrossRepeatedColdTunes) {
  const ConvShape s = SmallShape();
  std::vector<float> input(s.InputSize(), 0.25f);
  std::vector<float> weights(s.WeightSize(), 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(s.out_channels), 0.0f);
  std::vector<float> output(s.OutputSize(), 0.0f);

  const unsigned sms = gpusim::Device::Instance().sm_count();
  isaac_sim::ResetTuningCache();
  isaac_sim::Conv2d(input.data(), weights.data(), bias.data(), output.data(),
                    s);
  const int first = isaac_sim::TunedConfigIndex(s, sms);
  ASSERT_GE(first, 0);
  ASSERT_LT(first, isaac_sim::CandidateCount());

  // 100 cold re-tunes of the same shape: the pick never wavers — there is
  // no measurement in the loop, so nothing to be lucky about.
  for (int i = 0; i < 100; ++i) {
    isaac_sim::ResetTuningCache();
    isaac_sim::Conv2d(input.data(), weights.data(), bias.data(),
                      output.data(), s);
    ASSERT_EQ(isaac_sim::TunedConfigIndex(s, sms), first) << "re-tune " << i;
  }
}

TEST(TunerDeterminismTest, SameConfigForAnyDevicePoolWidth) {
  const ConvShape s = SmallShape();
  std::vector<float> input(s.InputSize(), 0.25f);
  std::vector<float> weights(s.WeightSize(), 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(s.out_channels), 0.0f);
  std::vector<float> out1(s.OutputSize(), 0.0f);
  std::vector<float> out4(s.OutputSize(), 0.0f);

  // Two devices with very different host parallelism (the analogue of
  // --jobs 1 vs --jobs 4): the tuner consults only sm_count, so the picks
  // and the outputs must coincide exactly.
  gpusim::Device d1(1);
  gpusim::Device d4(4);
  isaac_sim::ResetTuningCache();
  isaac_sim::Conv2d(input.data(), weights.data(), bias.data(), out1.data(),
                    s, d1);
  const int pick1 = isaac_sim::TunedConfigIndex(s, d1.sm_count());
  isaac_sim::ResetTuningCache();
  isaac_sim::Conv2d(input.data(), weights.data(), bias.data(), out4.data(),
                    s, d4);
  const int pick4 = isaac_sim::TunedConfigIndex(s, d4.sm_count());
  EXPECT_EQ(pick1, pick4);
  EXPECT_EQ(out1, out4);
}

TEST(TunerDeterminismTest, PickIsArgminOfModeledCostWithLowestIndexTie) {
  const ConvShape s = SmallShape();
  for (const unsigned sms : {1u, 4u, 16u, 64u}) {
    const int pick = isaac_sim::PickConfig(s, sms);
    const std::uint64_t best = isaac_sim::ModeledConfigCost(s, pick, sms);
    for (int c = 0; c < isaac_sim::CandidateCount(); ++c) {
      const std::uint64_t cost = isaac_sim::ModeledConfigCost(s, c, sms);
      ASSERT_GE(cost, best) << "config " << c << " sms " << sms;
      // Lowest-index tie-break: nothing cheaper OR EQUAL before the pick.
      if (c < pick) {
        ASSERT_GT(cost, best) << "config " << c;
      }
    }
  }
}

TEST(TunerDeterminismTest, BatchShapesAreTunedIndependently) {
  ConvShape s1 = SmallShape();
  ConvShape s8 = SmallShape();
  s8.batch = 8;
  std::vector<float> input(s8.InputSize(), 0.25f);
  std::vector<float> weights(s8.WeightSize(), 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(s8.out_channels), 0.0f);
  std::vector<float> output(s8.OutputSize(), 0.0f);

  const unsigned sms = gpusim::Device::Instance().sm_count();
  isaac_sim::ResetTuningCache();
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s1, sms), -1);
  isaac_sim::Conv2d(input.data(), weights.data(), bias.data(), output.data(),
                    s8);
  // Tuning the 8-batch shape must not populate the batch-1 entry.
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s1, sms), -1);
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s8, sms),
            isaac_sim::PickConfig(s8, sms));
}

// The memo key includes sm_count: a pick made for one device width is never
// served to another, so a shared cache gives every caller the pick its own
// PickConfig would make.
TEST(TunerDeterminismTest, MemoIsKeyedOnSmCount) {
  const ConvShape s = SmallShape();
  std::vector<float> input(s.InputSize(), 0.25f);
  std::vector<float> weights(s.WeightSize(), 0.5f);
  std::vector<float> output(s.OutputSize(), 0.0f);
  gpusim::Device narrow(1);
  narrow.set_sm_count(1);
  gpusim::Device wide(1);
  wide.set_sm_count(64);

  isaac_sim::ResetTuningCache();
  isaac_sim::Conv2d(input.data(), weights.data(), nullptr, output.data(), s,
                    wide);
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s, 1), -1);
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s, 64), isaac_sim::PickConfig(s, 64));
  isaac_sim::Conv2d(input.data(), weights.data(), nullptr, output.data(), s,
                    narrow);
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s, 1), isaac_sim::PickConfig(s, 1));
  EXPECT_EQ(isaac_sim::TunedConfigIndex(s, 64), isaac_sim::PickConfig(s, 64));
}

}  // namespace
}  // namespace kernels
