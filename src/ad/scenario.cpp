#include "ad/scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/check.h"
#include "support/json.h"

namespace adpilot {

std::string ValidateScenarioConfig(const ScenarioConfig& config) {
  std::ostringstream reason;
  if (config.num_lanes < 1) {
    reason << "scenario requires at least one lane (num_lanes = "
           << config.num_lanes << ")";
  } else if (config.num_vehicles < 0) {
    reason << "negative vehicle count: " << config.num_vehicles;
  } else if (config.num_vehicles > ScenarioConfig::kMaxVehicles) {
    reason << "vehicle count " << config.num_vehicles << " exceeds cap "
           << ScenarioConfig::kMaxVehicles;
  } else if (config.num_pedestrians < 0) {
    reason << "negative pedestrian count: " << config.num_pedestrians;
  } else if (config.num_pedestrians > ScenarioConfig::kMaxPedestrians) {
    reason << "pedestrian count " << config.num_pedestrians << " exceeds cap "
           << ScenarioConfig::kMaxPedestrians;
  } else if (!(config.lane_width > 0.0)) {
    reason << "lane width must be positive: " << config.lane_width;
  } else if (!(config.road_length > 0.0)) {
    reason << "road length must be positive: " << config.road_length;
  } else if (!(config.vehicle_speed_min >= 0.0)) {
    reason << "vehicle speed min must be non-negative: "
           << config.vehicle_speed_min;
  } else if (!(config.vehicle_speed_max > config.vehicle_speed_min)) {
    reason << "vehicle speed range is empty: [" << config.vehicle_speed_min
           << ", " << config.vehicle_speed_max << ")";
  }
  return reason.str();
}

ScenarioConfig ClampScenarioConfig(const ScenarioConfig& config) {
  ScenarioConfig out = config;
  out.num_vehicles =
      std::clamp(out.num_vehicles, 0, ScenarioConfig::kMaxVehicles);
  out.num_pedestrians =
      std::clamp(out.num_pedestrians, 0, ScenarioConfig::kMaxPedestrians);
  out.num_lanes = std::clamp(out.num_lanes, 1, 8);
  out.lane_width = std::clamp(out.lane_width, 2.0, 8.0);
  out.road_length = std::clamp(out.road_length, 50.0, 2000.0);
  out.vehicle_speed_min = std::clamp(out.vehicle_speed_min, 0.0, 30.0);
  if (out.vehicle_speed_max <= out.vehicle_speed_min) {
    out.vehicle_speed_max = out.vehicle_speed_min + 1.0;
  }
  out.vehicle_speed_max = std::clamp(out.vehicle_speed_max,
                                     out.vehicle_speed_min + 0.5, 40.0);
  return out;
}

std::string ScenarioConfigJson(const ScenarioConfig& config) {
  // Doubles use the shortest round-trip form (support::JsonNumber): the
  // campaign mutator produces full-precision values, and the replay
  // deserializer must reconstruct them bit-exactly from this JSON.
  using certkit::support::JsonNumber;
  std::ostringstream out;
  out << "{\"num_vehicles\":" << config.num_vehicles
      << ",\"num_pedestrians\":" << config.num_pedestrians
      << ",\"road_length\":" << JsonNumber(config.road_length)
      << ",\"lane_width\":" << JsonNumber(config.lane_width)
      << ",\"num_lanes\":" << config.num_lanes
      << ",\"vehicle_speed_min\":" << JsonNumber(config.vehicle_speed_min)
      << ",\"vehicle_speed_max\":" << JsonNumber(config.vehicle_speed_max)
      << ",\"seed\":" << config.seed << "}";
  return out.str();
}

bool CameraModel::EgoToPixel(const Vec2& ego, double* px, double* py) {
  CERTKIT_CHECK(px != nullptr && py != nullptr);
  if (ego.x < -kBehind || ego.x >= kAhead || ego.y < -kHalfWidth ||
      ego.y >= kHalfWidth) {
    return false;
  }
  // Row 0 is the far edge; columns grow to the right (negative y is left).
  *px = (ego.y + kHalfWidth) / kMetersPerPixel;
  *py = (kAhead - ego.x) / kMetersPerPixel;
  return true;
}

Vec2 CameraModel::PixelToEgo(double px, double py) {
  return {kAhead - (py + 0.5) * kMetersPerPixel,
          (px + 0.5) * kMetersPerPixel - kHalfWidth};
}

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config), rng_(config.seed) {
  // REQ-SCEN-001: a scenario shall only be constructed from a valid world
  // description. In particular num_lanes == 0 would underflow the lane
  // sampling bound below.
  const std::string reason = ValidateScenarioConfig(config);
  CERTKIT_CHECK_MSG(reason.empty(), "REQ-SCEN-001: " << reason);
  // Vehicles ahead of the origin in random lanes, driving forward at
  // varied speeds.
  for (int i = 0; i < config_.num_vehicles; ++i) {
    Obstacle v;
    v.id = i;
    v.cls = ObstacleClass::kVehicle;
    const int lane =
        static_cast<int>(rng_.UniformInt(0, config_.num_lanes - 1));
    v.position = {20.0 + 25.0 * i + rng_.UniformDouble(0.0, 10.0),
                  (lane + 0.5) * config_.lane_width -
                      config_.num_lanes * config_.lane_width / 2.0};
    v.velocity = {rng_.UniformDouble(config_.vehicle_speed_min,
                                     config_.vehicle_speed_max),
                  0.0};
    v.length = 4.5;
    v.width = 2.0;
    agents_.push_back(v);
  }
  for (int i = 0; i < config_.num_pedestrians; ++i) {
    Obstacle p;
    p.id = config_.num_vehicles + i;
    p.cls = ObstacleClass::kPedestrian;
    p.position = {30.0 + 20.0 * i, rng_.UniformDouble(-6.0, 6.0)};
    p.velocity = {0.0, rng_.UniformDouble(-1.0, 1.0)};
    p.length = 1.0;
    p.width = 1.0;
    agents_.push_back(p);
  }
}

void Scenario::Step(double dt) {
  CERTKIT_CHECK(dt > 0.0);
  time_ += dt;
  for (Obstacle& a : agents_) {
    a.position = a.position + a.velocity * dt;
    // Vehicles loop back so the scenario never empties.
    if (a.position.x > config_.road_length) {
      a.position.x -= config_.road_length;
    }
    // Pedestrians bounce between the road edges.
    if (a.cls == ObstacleClass::kPedestrian) {
      const double half_road =
          config_.num_lanes * config_.lane_width / 2.0 + 2.0;
      if (a.position.y > half_road || a.position.y < -half_road) {
        a.velocity.y = -a.velocity.y;
      }
    }
  }
}

nn::Tensor Scenario::RenderCameraFrame(const Pose& ego_pose) {
  nn::Tensor frame;
  RenderCameraFrameInto(ego_pose, &frame);
  return frame;
}

void Scenario::RenderCameraFrameInto(const Pose& ego_pose,
                                     nn::Tensor* frame_out) {
  constexpr int kSize = CameraModel::kImageSize;
  // Every pixel is overwritten below, so reshaping without clearing is safe.
  frame_out->Reshape(1, 3, kSize, kSize);
  nn::Tensor& frame = *frame_out;
  // Road background with mild sensor noise, one draw per value in NCHW
  // memory order (channel, row, column).
  float* pixels = frame.data();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    pixels[i] = 20.0f + static_cast<float>(rng_.UniformDouble(0.0, 6.0));
  }
  // Obstacles as bright axis-aligned rectangles (ego frame).
  for (const Obstacle& a : agents_) {
    const Vec2 center = ego_pose.WorldToEgo(a.position);
    const double hx = a.length / 2.0;
    const double hy = a.width / 2.0;
    const float brightness = a.cls == ObstacleClass::kVehicle ? 230.0f
                                                              : 180.0f;
    for (double ex = center.x - hx; ex <= center.x + hx;
         ex += CameraModel::kMetersPerPixel / 2.0) {
      for (double ey = center.y - hy; ey <= center.y + hy;
           ey += CameraModel::kMetersPerPixel / 2.0) {
        double px = 0.0, py = 0.0;
        if (!CameraModel::EgoToPixel({ex, ey}, &px, &py)) continue;
        const int ix = std::clamp(static_cast<int>(px), 0, kSize - 1);
        const int iy = std::clamp(static_cast<int>(py), 0, kSize - 1);
        for (int c = 0; c < 3; ++c) {
          frame.At(0, c, iy, ix) = brightness;
        }
      }
    }
  }
}

}  // namespace adpilot
