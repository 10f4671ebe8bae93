// Scenario edge cases the campaign mutator is allowed to generate: empty
// worlds, maximum actor counts, and egos posed far outside the road extent.
// None of these may crash, produce non-finite pixels, or trip REQ-SCEN-001
// validation incorrectly.
#include "ad/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/check.h"
#include "support/fnv.h"

namespace adpilot {
namespace {

bool FrameIsFinite(const nn::Tensor& frame) {
  const float* data = frame.data();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

TEST(ScenarioEdgeTest, ZeroActorScenarioRendersBackgroundOnly) {
  ScenarioConfig cfg;
  cfg.num_vehicles = 0;
  cfg.num_pedestrians = 0;
  EXPECT_TRUE(ValidateScenarioConfig(cfg).empty());
  Scenario scenario(cfg);
  EXPECT_TRUE(scenario.ground_truth().empty());
  scenario.Step(0.1);
  const Pose ego{{0.0, 0.0}, 0.0};
  const nn::Tensor frame = scenario.RenderCameraFrame(ego);
  ASSERT_TRUE(FrameIsFinite(frame));
  // Pure road background: noise floor only, no obstacle brightness.
  const float* data = frame.data();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_GE(data[i], 20.0f);
    EXPECT_LT(data[i], 26.0f);
  }
}

TEST(ScenarioEdgeTest, MaximumActorCountsAreValidAndRender) {
  ScenarioConfig cfg;
  cfg.num_vehicles = ScenarioConfig::kMaxVehicles;
  cfg.num_pedestrians = ScenarioConfig::kMaxPedestrians;
  EXPECT_TRUE(ValidateScenarioConfig(cfg).empty());
  Scenario scenario(cfg);
  EXPECT_EQ(scenario.ground_truth().size(),
            static_cast<std::size_t>(ScenarioConfig::kMaxVehicles +
                                     ScenarioConfig::kMaxPedestrians));
  for (int i = 0; i < 20; ++i) scenario.Step(0.1);
  for (const Obstacle& a : scenario.ground_truth()) {
    EXPECT_TRUE(std::isfinite(a.position.x) && std::isfinite(a.position.y));
    EXPECT_TRUE(std::isfinite(a.velocity.x) && std::isfinite(a.velocity.y));
  }
  EXPECT_TRUE(FrameIsFinite(scenario.RenderCameraFrame({{0.0, 0.0}, 0.0})));
}

TEST(ScenarioEdgeTest, OverCapActorCountsAreRejected) {
  ScenarioConfig vehicles;
  vehicles.num_vehicles = ScenarioConfig::kMaxVehicles + 1;
  EXPECT_FALSE(ValidateScenarioConfig(vehicles).empty());
  EXPECT_THROW(Scenario{vehicles}, certkit::support::ContractViolation);

  ScenarioConfig pedestrians;
  pedestrians.num_pedestrians = ScenarioConfig::kMaxPedestrians + 1;
  EXPECT_FALSE(ValidateScenarioConfig(pedestrians).empty());
  EXPECT_THROW(Scenario{pedestrians}, certkit::support::ContractViolation);
}

TEST(ScenarioEdgeTest, EgoOutsideRoadExtentRendersSafely) {
  ScenarioConfig cfg;
  cfg.num_vehicles = 3;
  cfg.num_pedestrians = 2;
  Scenario scenario(cfg);
  // Far behind the road start, far past its end, far off to the side, and
  // rotated arbitrarily: every view must render finite pixels without any
  // agent landing in the window incorrectly.
  const Pose poses[] = {{{-500.0, 0.0}, 0.0},
                        {{1.0e6, 0.0}, 0.0},
                        {{200.0, 4000.0}, 2.5},
                        {{-1.0e5, -1.0e5}, -3.0}};
  for (const Pose& ego : poses) {
    const nn::Tensor frame = scenario.RenderCameraFrame(ego);
    ASSERT_TRUE(FrameIsFinite(frame));
    const float* data = frame.data();
    for (std::size_t i = 0; i < frame.size(); ++i) {
      EXPECT_GE(data[i], 20.0f);  // background only: no agents in view
      EXPECT_LT(data[i], 26.0f);
    }
  }
}

TEST(ScenarioEdgeTest, SpeedRangeFieldsAreHonoredAndValidated) {
  ScenarioConfig cfg;
  cfg.num_vehicles = 8;
  cfg.vehicle_speed_min = 5.0;
  cfg.vehicle_speed_max = 5.5;
  Scenario scenario(cfg);
  for (const Obstacle& a : scenario.ground_truth()) {
    EXPECT_GE(a.velocity.x, 5.0);
    EXPECT_LT(a.velocity.x, 5.5);
  }

  ScenarioConfig inverted = cfg;
  inverted.vehicle_speed_min = 6.0;
  inverted.vehicle_speed_max = 6.0;  // empty range
  EXPECT_FALSE(ValidateScenarioConfig(inverted).empty());
  EXPECT_THROW(Scenario{inverted}, certkit::support::ContractViolation);

  ScenarioConfig negative = cfg;
  negative.vehicle_speed_min = -1.0;
  EXPECT_FALSE(ValidateScenarioConfig(negative).empty());
}

TEST(ScenarioEdgeTest, ClampProducesConstructibleConfigsFromGarbage) {
  ScenarioConfig garbage;
  garbage.num_vehicles = 9999;
  garbage.num_pedestrians = -5;
  garbage.num_lanes = 0;
  garbage.lane_width = -3.0;
  garbage.road_length = 1.0;
  garbage.vehicle_speed_min = 100.0;
  garbage.vehicle_speed_max = -2.0;
  const ScenarioConfig clamped = ClampScenarioConfig(garbage);
  EXPECT_TRUE(ValidateScenarioConfig(clamped).empty())
      << ValidateScenarioConfig(clamped);
  EXPECT_NO_THROW(Scenario{clamped});
}

// FNV-1a of the rendered frames, pinned bit-exactly: three seeds, each
// rendered from two poses in sequence, so the digests also pin the RNG
// stream the background noise consumes across frames. The second pose puts
// the first vehicle at the far-right corner of the window, so its rectangle
// is clipped at two frame edges.
TEST(ScenarioEdgeTest, RenderedFramesAreBitStable) {
  struct Golden {
    std::uint64_t seed;
    std::uint64_t digest[2];
  };
  constexpr Golden kGolden[] = {
      {1234, {0x6f8bf4da9a009ff9ull, 0x71993d2dd69c805cull}},
      {7, {0xfd29aad860379bdbull, 0x60eb90cd6f9e8852ull}},
      {99, {0x9297c46e3a6dde61ull, 0x7acda570eb420f56ull}},
  };
  constexpr int kSize = CameraModel::kImageSize;
  for (const Golden& g : kGolden) {
    ScenarioConfig cfg;
    cfg.seed = g.seed;
    cfg.num_vehicles = 4;
    cfg.num_pedestrians = 2;
    Scenario scenario(cfg);
    scenario.Step(0.1);
    const Vec2 lead = scenario.ground_truth()[0].position;
    const Pose poses[] = {{{0.0, 0.0}, 0.05},
                          {{lead.x - 27.5, lead.y - 15.5}, 0.0}};
    for (int p = 0; p < 2; ++p) {
      const nn::Tensor frame = scenario.RenderCameraFrame(poses[p]);
      ASSERT_EQ(frame.size(), static_cast<std::size_t>(3 * kSize * kSize));
      EXPECT_EQ(certkit::support::FnvBytes(frame.data(),
                                           frame.size() * sizeof(float)),
                g.digest[p])
          << "seed " << g.seed << " pose " << p;
    }
    // The clipped vehicle covers the top-right corner pixel.
    const nn::Tensor corner = scenario.RenderCameraFrame(poses[1]);
    EXPECT_EQ(corner.At(0, 0, 0, kSize - 1), 230.0f) << "seed " << g.seed;
  }
}

TEST(ScenarioEdgeTest, ConfigJsonIsStable) {
  const ScenarioConfig cfg;  // defaults
  // Doubles serialize in shortest round-trip form (support::JsonNumber), so
  // integral values carry no padding zeros and mutated full-precision
  // values survive the replay round trip bit-exactly.
  EXPECT_EQ(ScenarioConfigJson(cfg),
            "{\"num_vehicles\":3,\"num_pedestrians\":0,"
            "\"road_length\":400,\"lane_width\":4,\"num_lanes\":2,"
            "\"vehicle_speed_min\":2,\"vehicle_speed_max\":8,"
            "\"seed\":1234}");
}

}  // namespace
}  // namespace adpilot
