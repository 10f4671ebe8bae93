// drive: one operation is one ApolloPilot::Tick of the release-flavor
// pipeline — int8 detector on the CPU backend, coverage probes off — on a
// single thread. Eight pilots, each on its own seeded scenario whose actor
// counts span the REQ-SCEN-001 envelope, take turns running 100-tick
// episodes; each finished episode's tick-report digest is checked against
// the seed's reference and the pilot restarts fresh.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "ad/pipeline.h"
#include "ad/replay_tap.h"
#include "coverage/coverage.h"
#include "nn/detector.h"
#include "obs/flight_recorder.h"
#include "timing/timing.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPilots = 8;
constexpr std::size_t kEpisodeTicks = 100;
constexpr int kSetupReps = 25;
// Traced run: one shadow-detector sample every this many ticks.
constexpr std::size_t kShadowStride = 4;

adpilot::PilotConfig DriveConfig(std::uint64_t seed, int k) {
  using adpilot::ScenarioConfig;
  adpilot::PilotConfig cfg;
  cfg.scenario.seed = SplitMix64(seed * kPilots + static_cast<unsigned>(k));
  // Actor counts walk the envelope corner to corner, so tracking,
  // prediction and planning load differs from pilot to pilot.
  cfg.scenario.num_vehicles = k * ScenarioConfig::kMaxVehicles / (kPilots - 1);
  cfg.scenario.num_pedestrians =
      ((k * 3) % kPilots) * ScenarioConfig::kMaxPedestrians / (kPilots - 1);
  cfg.perception.backend = nn::Backend::kCpuNaive;
  cfg.perception.quantized_weights = true;
  // Wall-clock time must never change behaviour.
  cfg.safety.tick_deadline = 1e9;
  return cfg;
}

// A fresh pilot with its first (buffer-growing) tick already taken.
std::unique_ptr<adpilot::ApolloPilot> StartPilot(
    std::uint64_t seed, int k, std::vector<adpilot::TickReport>* reports) {
  auto pilot = std::make_unique<adpilot::ApolloPilot>(DriveConfig(seed, k));
  reports->clear();
  reports->reserve(kEpisodeTicks);
  reports->push_back(pilot->Tick());
  return pilot;
}

std::int64_t NonFiniteCommands(const std::vector<adpilot::TickReport>& r) {
  std::int64_t bad = 0;
  for (const adpilot::TickReport& t : r) {
    if (!std::isfinite(t.command.throttle) || !std::isfinite(t.command.brake) ||
        !std::isfinite(t.command.steering)) {
      ++bad;
    }
  }
  return bad;
}

double Us(Clock::time_point t0) { return SecondsSince(t0) * 1e6; }

nn::DetectorConfig PerceptionDetectorConfig(nn::Backend backend) {
  // Exactly what adpilot::Perception builds for a default PerceptionConfig.
  nn::DetectorConfig cfg;
  cfg.input_h = adpilot::CameraModel::kImageSize;
  cfg.input_w = adpilot::CameraModel::kImageSize;
  cfg.num_classes = 2;
  cfg.score_threshold = adpilot::PerceptionConfig{}.score_threshold;
  cfg.backend = backend;
  return cfg;
}

std::unique_ptr<nn::TinyYoloDetector> MakeDetector(nn::Backend backend,
                                                   bool int8) {
  auto det = std::make_unique<nn::TinyYoloDetector>(
      PerceptionDetectorConfig(backend));
  nn::InitBlobDetectorWeights(det.get());
  if (int8) nn::QuantizeDetectorWeights(det.get());
  return det;
}

// Per-frame samples of the shadow detector's layers, in microseconds.
struct LayerSamples {
  std::vector<double> render, preprocess, conv, conv0, batchnorm, activation,
      maxpool, upsample, decode, nms;
  double conv_macs = 0.0;
  double conv_s = 0.0;
};

bool SameDetections(const std::vector<nn::Detection>& a,
                    const std::vector<nn::Detection>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

// A detector built exactly as Perception builds it, with warm scratch
// buffers of its own, run layer by layer through its public calls.
struct Shadow {
  std::unique_ptr<nn::TinyYoloDetector> det;
  nn::Tensor input, act[2];
  std::vector<nn::Detection> got, want;
};

// Times one frame through the shadow's layers and returns whether the
// result equals DetectInto on the same frame.
bool ShadowLayers(Shadow* shadow, const nn::Tensor& frame, LayerSamples* s) {
  nn::TinyYoloDetector* det = shadow->det.get();
  std::vector<nn::Detection>& got = shadow->got;
  const nn::DetectorConfig& cfg = det->config();
  auto t0 = Clock::now();
  nn::PreprocessInto(frame, cfg.input_h, cfg.input_w, &shadow->input);
  s->preprocess.push_back(Us(t0));
  double conv = 0, conv0 = -1, bn = 0, activation = 0, pool = 0, up = 0;
  const nn::Tensor* cur = &shadow->input;
  for (std::size_t i = 0; i < det->network().layer_count(); ++i) {
    nn::Layer& layer = det->network().layer(i);
    nn::Tensor* out = &shadow->act[i % 2];
    t0 = Clock::now();
    layer.ForwardInto(*cur, out);
    const double us = Us(t0);
    const std::string name = layer.Name();
    if (name == "conv") {
      conv += us;
      if (conv0 < 0) conv0 = us;
      auto& weights = static_cast<nn::ConvLayer&>(layer).mutable_weights();
      s->conv_macs += static_cast<double>(out->n()) * out->h() * out->w() *
                      static_cast<double>(weights.size());
    } else if (name == "batchnorm") {
      bn += us;
    } else if (name == "activation") {
      activation += us;
    } else if (name == "maxpool") {
      pool += us;
    } else {
      up += us;
    }
    cur = out;
  }
  s->conv.push_back(conv);
  s->conv0.push_back(conv0);
  s->batchnorm.push_back(bn);
  s->activation.push_back(activation);
  s->maxpool.push_back(pool);
  s->upsample.push_back(up);
  s->conv_s += conv * 1e-6;
  t0 = Clock::now();
  nn::DecodeDetectionsInto(*cur, cfg, &got);
  s->decode.push_back(Us(t0));
  t0 = Clock::now();
  nn::NmsInPlace(&got, cfg.nms_iou_threshold);
  s->nms.push_back(Us(t0));
  det->DetectInto(frame, &shadow->want);
  return SameDetections(got, shadow->want);
}

}  // namespace

std::vector<std::uint64_t> DriveReference(std::uint64_t seed) {
  certkit::cov::SetProbesEnabled(false);
  std::vector<std::uint64_t> digests;
  std::vector<adpilot::TickReport> reports;
  for (int k = 0; k < kPilots; ++k) {
    auto pilot = StartPilot(seed, k, &reports);
    while (reports.size() < kEpisodeTicks) reports.push_back(pilot->Tick());
    digests.push_back(adpilot::DigestTickReports(reports));
  }
  return digests;
}

Outcome RunDrive(const RunOptions& options) {
  certkit::cov::SetProbesEnabled(false);
  Outcome out;
  std::vector<std::unique_ptr<adpilot::ApolloPilot>> pilots(kPilots);
  std::vector<std::vector<adpilot::TickReport>> reports(kPilots);
  // Each set-up and each episode runs on the next CPU in turn, so a run
  // samples every CPU of a shared host for about the same time instead of
  // whichever CPU (and neighbour load) the scheduler happened to pick.
  CpuSet cpus;
  std::size_t hop = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = rep == 0 ? ProcessStart() : Clock::now();
    cpus.Pin(hop++);
    for (int k = 0; k < kPilots; ++k) {
      pilots[k] = StartPilot(options.seed, k, &reports[k]);
    }
    out.setup_s.push_back(SecondsSince(start));
  }

  std::vector<Episode> episodes;
  out.op_s.reserve(1 << 16);
  cpus.Pin(hop++);
  Window window;
  for (int k = 0;;) {
    const auto t0 = Clock::now();
    adpilot::TickReport report = pilots[k]->Tick();
    out.op_s.push_back(SecondsSince(t0));
    reports[k].push_back(report);
    if (reports[k].size() < kEpisodeTicks) continue;
    window.Pause();
    episodes.push_back({k, adpilot::DigestTickReports(reports[k]),
                        static_cast<std::int64_t>(kEpisodeTicks - 1)});
    out.failed += NonFiniteCommands(reports[k]);
    pilots[k] = StartPilot(options.seed, k, &reports[k]);
    k = (k + 1) % kPilots;
    cpus.Pin(hop++);
    if (window.Elapsed() >= options.seconds) break;
    window.Resume();
  }
  out.window_s = window.Elapsed();
  out.failed += FailedOps(
      episodes,
      ReferenceFor(options.references, "drive", options.seed, DriveReference));
  return out;
}

std::vector<Metric> DriveLayers(std::uint64_t seed, Checks* checks) {
  certkit::cov::SetProbesEnabled(false);
  auto& timers = certkit::timing::TimerRegistry::Instance();

  Shadow shadow{MakeDetector(nn::Backend::kCpuNaive, true), {}, {}, {}, {}};
  struct Arm {
    const char* name;
    std::unique_ptr<nn::TinyYoloDetector> det;
    std::vector<double> us;
  };
  Arm arms[] = {
      {"cpu_naive_fp32", MakeDetector(nn::Backend::kCpuNaive, false), {}},
      {"closed_sim_fp32", MakeDetector(nn::Backend::kClosedSim, false), {}},
      {"open_sim_fp32", MakeDetector(nn::Backend::kOpenSim, false), {}},
      {"int8", MakeDetector(nn::Backend::kCpuNaive, true), {}},
  };

  std::vector<std::unique_ptr<adpilot::ApolloPilot>> pilots(kPilots);
  std::vector<std::vector<adpilot::TickReport>> reports(kPilots);
  for (int k = 0; k < kPilots; ++k) {
    pilots[k] = StartPilot(seed, k, &reports[k]);
  }
  timers.ResetAll();
  const std::int64_t events0 = certkit::obs::GetFlightRecorderStats().events;

  LayerSamples s;
  nn::Tensor frame;
  std::vector<nn::Detection> dets;
  bool warm = false;
  std::int64_t ticks = 0;
  for (int k = 0; k < kPilots; ++k) {
    while (reports[k].size() < kEpisodeTicks) {
      reports[k].push_back(pilots[k]->Tick());
      ++ticks;
      if (reports[k].size() % kShadowStride != 0) continue;
      // A copy of the world renders the frame at the tick's pose without
      // advancing the pilot's own scenario RNG.
      adpilot::Scenario world = pilots[k]->scenario();
      const auto t0 = Clock::now();
      world.RenderCameraFrameInto(reports[k].back().localized.pose, &frame);
      const double render_us = Us(t0);
      if (!warm) {  // size every scratch buffer before sampling
        LayerSamples discard;
        ShadowLayers(&shadow, frame, &discard);
        for (Arm& arm : arms) arm.det->DetectInto(frame, &dets);
        warm = true;
      }
      s.render.push_back(render_us);
      checks->Expect(ShadowLayers(&shadow, frame, &s));
      for (Arm& arm : arms) {
        const auto t1 = Clock::now();
        arm.det->DetectInto(frame, &dets);
        arm.us.push_back(Us(t1));
      }
    }
  }
  const double events = static_cast<double>(
      certkit::obs::GetFlightRecorderStats().events - events0);

  std::vector<Metric> m;
  const char* kStages[] = {"tick",    "perception",   "prediction", "planning",
                           "control", "safety",       "localization",
                           "canbus"};
  for (const char* stage : kStages) {
    const auto stats =
        timers.GetOrCreate(std::string("adpilot/") + stage).GetStats();
    m.push_back({std::string("ad.") + stage + "_us", stats.mean * 1e6, "us"});
  }
  m.push_back({"ad.render_us", Median(s.render), "us"});
  m.push_back({"nn.preprocess_us", Median(s.preprocess), "us"});
  m.push_back({"nn.conv_us", Median(s.conv), "us"});
  m.push_back({"nn.conv0_us", Median(s.conv0), "us"});
  m.push_back({"nn.batchnorm_us", Median(s.batchnorm), "us"});
  m.push_back({"nn.activation_us", Median(s.activation), "us"});
  m.push_back({"nn.maxpool_us", Median(s.maxpool), "us"});
  m.push_back({"nn.upsample_us", Median(s.upsample), "us"});
  m.push_back({"nn.decode_us", Median(s.decode), "us"});
  m.push_back({"nn.nms_us", Median(s.nms), "us"});
  m.push_back({"nn.conv_gmacs_per_s", s.conv_macs / s.conv_s / 1e9, "GMAC/s"});
  const Arm* best_fp32 = nullptr;
  for (const Arm& arm : arms) {
    const double us = Median(arm.us);
    m.push_back({std::string("nn.detect_us.") + arm.name, us, "us"});
    if (std::strcmp(arm.name, "int8") != 0 &&
        (best_fp32 == nullptr || us < Median(best_fp32->us))) {
      best_fp32 = &arm;
    }
  }
  const double int8_us = Median(arms[3].us);
  m.push_back({"nn.int8_vs_best_fp32_x", Median(best_fp32->us) / int8_us, "x"});
  std::printf("[layers] drive bases: best fp32 is %s; %zu shadow frames over "
              "%lld ticks\n",
              best_fp32->name, s.render.size(), static_cast<long long>(ticks));
  m.push_back({"obs.flight_events_per_tick", events / ticks, "count"});

  // The shadow work must not perturb the pilots: their episodes still match
  // a plain single-thread drive.
  const std::vector<std::uint64_t> reference = DriveReference(seed);
  for (int k = 0; k < kPilots; ++k) {
    checks->Expect(adpilot::DigestTickReports(reports[k]) == reference[k]);
  }
  return m;
}

}  // namespace perfbench
