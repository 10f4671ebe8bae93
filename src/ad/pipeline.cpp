#include "ad/pipeline.h"

#include <algorithm>
#include <chrono>

#include "coverage/coverage.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/fnv.h"
#include "timing/timing.h"

namespace adpilot {

namespace {

// Architectural-level coverage probes (ISO 26262-6 Table 12): one function
// probe per pipeline stage, one call probe per Tick -> stage edge.
struct PipeProbes {
  certkit::cov::Unit* u;
  int f_routing, f_perception, f_prediction, f_localization, f_planning,
      f_control, f_canbus;
  int c_perception, c_prediction, c_localization, c_planning, c_control,
      c_canbus;
};

PipeProbes& P() {
  static PipeProbes p = [] {
    PipeProbes q;
    q.u = &certkit::cov::Registry::Instance().GetOrCreate(
        "adpilot/pipeline.cc");
    q.f_routing = q.u->DeclareFunctionProbe("routing::FindRoute");
    q.f_perception = q.u->DeclareFunctionProbe("perception::Process");
    q.f_prediction = q.u->DeclareFunctionProbe("prediction::Predict");
    q.f_localization = q.u->DeclareFunctionProbe("localization::Update");
    q.f_planning = q.u->DeclareFunctionProbe("planning::PlanTrajectory");
    q.f_control = q.u->DeclareFunctionProbe("control::Compute");
    q.f_canbus = q.u->DeclareFunctionProbe("canbus::Step");
    q.c_perception = q.u->DeclareCallProbe("Tick", "perception");
    q.c_prediction = q.u->DeclareCallProbe("Tick", "prediction");
    q.c_localization = q.u->DeclareCallProbe("Tick", "localization");
    q.c_planning = q.u->DeclareCallProbe("Tick", "planning");
    q.c_control = q.u->DeclareCallProbe("Tick", "control");
    q.c_canbus = q.u->DeclareCallProbe("Tick", "canbus");
    return q;
  }();
  return p;
}

// One duration sink per pipeline stage: the ExecutionTimer that WCET
// estimation and the metrics export read, fed by the same obs::Span that
// records the trace event. References are stable across
// TimerRegistry::ResetAll (it resets values in place), so caching them is
// safe.
struct PipeObs {
  certkit::timing::ExecutionTimer *tick, *perception, *prediction, *planning,
      *control, *canbus, *localization, *safety;
  certkit::obs::Counter* ticks;
};

PipeObs& O() {
  static PipeObs o = [] {
    auto& timers = certkit::timing::TimerRegistry::Instance();
    auto mk = [&](const char* stage) {
      return &timers.GetOrCreate(std::string("adpilot/") + stage);
    };
    PipeObs q;
    q.tick = mk("tick");
    q.perception = mk("perception");
    q.prediction = mk("prediction");
    q.planning = mk("planning");
    q.control = mk("control");
    q.canbus = mk("canbus");
    q.localization = mk("localization");
    q.safety = mk("safety");
    q.ticks = &certkit::obs::MetricsRegistry::Instance().GetCounter(
        "adpilot/ticks");
    return q;
  }();
  return o;
}

}  // namespace

ApolloPilot::ApolloPilot(const PilotConfig& config)
    : config_(config),
      scenario_(config.scenario),
      perception_(config.perception),
      behavior_(config.behavior),
      canbus_(Pose{{0.0, -config.scenario.lane_width / 2.0}, 0.0},
              config.vehicle),
      range_monitor_(config.safety),
      plausibility_monitor_(config.safety),
      watchdog_(config.safety,
                &certkit::timing::TimerRegistry::Instance().GetOrCreate(
                    "adpilot/tick_effective")),
      degradation_(config.safety) {
  // Route: lane graph down the road, start near the ego, goal at goal_x.
  const double spacing = 10.0;
  const int segments =
      static_cast<int>(config_.scenario.road_length / spacing) + 1;
  graph_ = LaneGraph::StraightRoad(config_.scenario.num_lanes, segments,
                                   spacing, config_.scenario.lane_width);
  const Pose initial = canbus_.vehicle().state().pose;
  const int start = graph_.NearestNode(initial.position);
  const int goal =
      graph_.NearestNode({config_.goal_x, initial.position.y});
  P().u->EnterFunction(P().f_routing);
  auto route = FindRoute(graph_, start, goal);
  CERTKIT_CHECK_MSG(route.ok(), "no route to goal: "
                                    << route.status().ToString());
  route_ = std::move(route).value();

  localizer_ = std::make_unique<EkfLocalizer>(initial, 0.0,
                                              config_.localization);
  last_published_est_ = localizer_->state();
}

void ApolloPilot::SetFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  if (injector_ == nullptr) {
    canbus_.SetFrameFault(nullptr);
    return;
  }
  canbus_.SetFrameFault([this](CanFrame* frame) {
    if (injector_->DropFrame()) return false;
    injector_->MutateFrame(frame);
    return true;
  });
}

TickReport ApolloPilot::Tick() {
  certkit::obs::Span tick_span("tick", "pipeline", O().tick);
  O().ticks->Add();
  const auto tick_start = std::chrono::steady_clock::now();
  const double dt = config_.tick;
  const bool safety_on = config_.safety.enabled;
  TickReport report;
  ++tick_index_;
  // Black-box journal entry for the whole tick; per-stage scopes below sit
  // beside the obs::Span of each stage (the flight recorder is the
  // crash-surviving counterpart of the post-run trace).
  certkit::obs::FlightStageScope flight_tick(certkit::obs::FlightStage::kTick,
                                             tick_index_);
  time_ += dt;
  report.time = time_;
  // Replay capture (tap installed only): stream signatures accumulate as
  // each pipeline point produces its data, and fire in one OnTick at the
  // end. The digests hash exact bit patterns, so they cost a pass over the
  // frame/lists and nothing else.
  TickSignature tick_sig;
  const bool tapped = tick_tap_ != nullptr;
  tick_sig.tick = tick_index_;
  const std::int64_t log_at_tick_start = safety_log_.size();

  if (injector_ != nullptr) injector_->BeginTick(tick_index_);
  control_flow_monitor_.BeginTick(tick_index_);

  // 1. World advances.
  {
    certkit::obs::Span span("scenario", "pipeline");
    certkit::obs::FlightStageScope flight(
        certkit::obs::FlightStage::kScenario, tick_index_);
    scenario_.Step(dt);
  }

  // 2. Localization estimate (used as the ego pose everywhere downstream).
  // A stale-localization fault freezes the published estimate at its last
  // value; the plausibility monitor compares whatever is published against
  // its dead-reckoning envelope (propagated from last tick's odometry).
  VehicleState est = localizer_->state();
  if (injector_ != nullptr && injector_->StaleLocalization()) {
    est = last_published_est_;
  }
  last_published_est_ = est;
  report.localized = est;
  if (tapped) {
    tick_sig.state =
        DigestVehicleState(est, certkit::support::kFnvOffsetBasis);
  }
  if (safety_on) {
    plausibility_monitor_.Check(tick_index_, est, &safety_log_);
  }

  // 3. Perception on the camera frame rendered at the *estimated* pose.
  // A sensor-dropout fault loses the frame: the perception stage does not
  // run (the control-flow monitor flags the missing stage) and the pipeline
  // coasts on the previous tick's tracks.
  std::vector<Obstacle>& tracked = tracked_scratch_;
  if (injector_ != nullptr && injector_->SensorDropout()) {
    tracked = last_tracked_;
    report.detections = 0;
  } else {
    if (frame_scratch_.empty()) frame_scratch_.resize(1);
    scenario_.RenderCameraFrameInto(est.pose, &frame_scratch_[0]);
    const nn::Tensor& frame = frame_scratch_[0];
    if (tapped) {
      tick_sig.frame =
          DigestTensor(frame, certkit::support::kFnvOffsetBasis);
    }
    P().u->EnterFunction(P().f_perception);
    P().u->CallSite(P().c_perception);
    control_flow_monitor_.Enter(TickStage::kPerception);
    {
      certkit::obs::Span span("perception", "pipeline", O().perception);
      certkit::obs::FlightStageScope flight(
          certkit::obs::FlightStage::kPerception, tick_index_);
      // Batch-of-one through the batch engine: bit-identical to the
      // single-frame path, but every intermediate is member scratch.
      perception_.ProcessBatchInto(frame_scratch_, est.pose, dt, &tracked);
    }
    report.detections = perception_.last_detections().size();
    if (tapped) {
      tick_sig.detections = DigestObstacles(
          perception_.last_detections(), certkit::support::kFnvOffsetBasis);
    }
  }
  if (injector_ != nullptr) injector_->CorruptObstacles(&tracked);
  // Table 4 range check on the perception output; implausible obstacles are
  // discarded before they reach prediction/planning.
  if (safety_on) {
    range_monitor_.CheckAndSanitizeObstacles(tick_index_, est.pose, &tracked,
                                             &safety_log_);
  }
  last_tracked_ = tracked;
  report.tracked_obstacles = tracked.size();
  if (tapped) {
    tick_sig.tracked =
        DigestObstacles(tracked, certkit::support::kFnvOffsetBasis);
  }

  // 4. Prediction.
  P().u->EnterFunction(P().f_prediction);
  P().u->CallSite(P().c_prediction);
  control_flow_monitor_.Enter(TickStage::kPrediction);
  std::vector<PredictedObstacle>& predictions = predictions_scratch_;
  {
    certkit::obs::Span span("prediction", "pipeline", O().prediction);
    certkit::obs::FlightStageScope flight(
        certkit::obs::FlightStage::kPrediction, tick_index_);
    PredictObstaclesInto(tracked, config_.prediction, &predictions);
  }

  // 5. Planning along the route.
  // 5a. Behavior decision (cruise / follow / overtake / stop).
  const BehaviorDecision decision = behavior_.Decide(est, predictions);
  report.behavior = decision.behavior;

  P().u->EnterFunction(P().f_planning);
  P().u->CallSite(P().c_planning);
  control_flow_monitor_.Enter(TickStage::kPlanning);
  PlanResult& plan = plan_scratch_;
  {
    certkit::obs::Span span("planning", "pipeline", O().planning);
    certkit::obs::FlightStageScope flight(
        certkit::obs::FlightStage::kPlanning, tick_index_);
    ApplyBehaviorInto(config_.planner, decision, &planner_config_scratch_);
    PlanTrajectoryInto(est, route_, predictions, planner_config_scratch_,
                       &planner_scratch_, &plan);
  }
  report.plan_collision_free = plan.collision_free;

  // 6. Control.
  P().u->EnterFunction(P().f_control);
  P().u->CallSite(P().c_control);
  control_flow_monitor_.Enter(TickStage::kControl);
  ControlCommand cmd;
  {
    certkit::obs::Span span("control", "pipeline", O().control);
    certkit::obs::FlightStageScope flight(
        certkit::obs::FlightStage::kControl, tick_index_);
    cmd = controller_.Compute(est, plan.trajectory, dt);
  }
  bool overridden = false;

  if (safety_on) {
    certkit::obs::Span span("safety", "safety", O().safety);
    certkit::obs::FlightStageScope flight(certkit::obs::FlightStage::kSafety,
                                          tick_index_);
    // Table 4 range check on the actuation output (critical on failure).
    overridden |= range_monitor_.CheckCommand(tick_index_, &cmd, &safety_log_);

    // Deadline watchdog over the tick execution time (plus any injected
    // overrun). Checked before actuation so a timing fault can degrade this
    // very cycle.
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tick_start)
            .count() +
        (injector_ != nullptr ? injector_->TimingOverrunSeconds() : 0.0);
    watchdog_.Check(tick_index_, elapsed, &safety_log_);

    // Close the tick's verdict: everything logged since the last tally
    // (including last tick's post-actuation monitors) drives degradation.
    std::size_t warnings = 0, criticals = 0;
    safety_log_.TallySince(violations_tallied_, &warnings, &criticals);
    violations_tallied_ = safety_log_.size();
    degradation_.Update(warnings, criticals);
    overridden |= degradation_.ApplyToCommand(&cmd, est.speed);
  }
  report.safety_state = degradation_.state();
  report.command = cmd;
  report.command_overridden = overridden;
  if (tapped) {
    tick_sig.command = DigestCommand(cmd, certkit::support::kFnvOffsetBasis);
  }

  // 7. Actuation over the CAN bus; chassis feedback drives localization.
  P().u->EnterFunction(P().f_canbus);
  P().u->CallSite(P().c_canbus);
  control_flow_monitor_.Enter(TickStage::kCanBus);
  const std::int64_t delivered_before = canbus_.frames_delivered();
  const std::int64_t rejected_before = canbus_.frames_rejected();
  ChassisFeedback fb;
  {
    certkit::obs::Span span("canbus", "pipeline", O().canbus);
    certkit::obs::FlightStageScope flight(certkit::obs::FlightStage::kCanBus,
                                          tick_index_);
    canbus_.SendCommand(cmd);
    fb = canbus_.Step(dt, config_.localization.gnss_noise,
                      config_.localization.speed_noise);
  }
  if (safety_on) {
    // Bus supervision: a corrupted frame was rejected by the receiver-side
    // checksum, a lost frame never arrived. Both are handled by the bus
    // holding the last valid command.
    if (canbus_.frames_rejected() > rejected_before) {
      safety_log_.Record({tick_index_, MonitorId::kCanBus, Severity::kWarning,
                          /*handled=*/true,
                          "corrupted command frame rejected by checksum"});
    } else if (canbus_.frames_delivered() == delivered_before) {
      safety_log_.Record({tick_index_, MonitorId::kCanBus, Severity::kWarning,
                          /*handled=*/true,
                          "command frame lost; holding last valid command"});
    }
  }

  P().u->EnterFunction(P().f_localization);
  P().u->CallSite(P().c_localization);
  control_flow_monitor_.Enter(TickStage::kLocalization);
  {
    certkit::obs::Span span("localization", "pipeline", O().localization);
    certkit::obs::FlightStageScope flight(
        certkit::obs::FlightStage::kLocalization, tick_index_);
    localizer_->Predict(fb.state.acceleration, fb.state.yaw_rate, dt);
    localizer_->UpdatePosition(fb.gnss_position);
    localizer_->UpdateSpeed(fb.wheel_speed);
  }
  // Advance the dead-reckoning envelope with this tick's odometry; it is
  // compared against the published estimate at the top of the next tick.
  plausibility_monitor_.Propagate(fb.state.acceleration, fb.state.yaw_rate,
                                  dt);

  report.ground_truth = fb.state;

  if (safety_on) {
    control_flow_monitor_.EndTick(&safety_log_);
  }
  report.new_violations =
      static_cast<std::size_t>(safety_log_.size() - log_at_tick_start);

  // Safety bookkeeping against ground truth. An empty world is reported as
  // the explicit no-obstacle state, not a sentinel distance.
  for (const Obstacle& o : scenario_.ground_truth()) {
    const double d =
        fb.state.pose.position.DistanceTo(o.position) -
        std::max(o.length, o.width) / 2.0;
    if (!report.obstacle_in_range || d < report.min_obstacle_distance) {
      report.min_obstacle_distance = d;
    }
    report.obstacle_in_range = true;
  }
  if (report.obstacle_in_range) {
    min_clearance_ = std::min(min_clearance_, report.min_obstacle_distance);
    clearance_sampled_ = true;
  }
  if (tapped) {
    tick_sig.faults_injected =
        injector_ != nullptr ? injector_->total_injected() : 0;
    tick_tap_->OnTick(tick_sig);
  }
  return report;
}

std::vector<TickReport> ApolloPilot::Run(double seconds) {
  CERTKIT_CHECK(seconds > 0.0);
  std::vector<TickReport> reports;
  const int ticks = static_cast<int>(seconds / config_.tick);
  reports.reserve(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    reports.push_back(Tick());
  }
  return reports;
}

bool ApolloPilot::ReachedGoal() const {
  return canbus_.vehicle().state().pose.position.x >= config_.goal_x;
}

}  // namespace adpilot
