// Tick-path performance driver — the headline claim of the register-tiled,
// allocation-free tick work, runnable as one self-checking binary.
//
// Four contracts, each checked at runtime (nonzero exit on any breach, so
// CI treats this binary like a test):
//
//  1. SPEEDUP — the optimized tick (int8 detector: outer-product PMADDWD
//     GEMM over a pair-interleaved int16 patch matrix, snapshotted weights)
//     is at least --speedup_floor times faster (default 10x) than the fig7
//     CPU-BLAS baseline (fp32 kCpuNaive, same pipeline, same scenario).
//     Both arms run with coverage probes off: the comparison is kernel
//     against kernel, not instrumentation against its absence. Arms
//     alternate block-wise so frequency/thermal drift cancels instead of
//     biasing one arm. The int8 tick is also reported against every fp32
//     backend (closed-sim and open-sim too), with a second ratio against
//     the fastest of them.
//  2. INSTRUMENTATION — with coverage probes on and a live
//     cov::ThreadCapture (a campaign worker's hot path), each arm's p50
//     tick stays within 3x of the same arm with probes off. The hot layer
//     loops record their coverage facts in locals and publish them once
//     per call, so the probed and unprobed ticks run the same loops.
//  3. ALLOCATIONS — after warm-up, ApolloPilot::Tick performs ZERO heap
//     allocations in either arm (counting operator new/delete replacements
//     from support/alloc_hooks.cpp; skipped in TSan/ASan trees where the
//     sanitizer runtime owns the allocator).
//  4. ACCURACY — on the detector's real layer-0 shape, the int8 conv
//     output tracks the bit-exact fp32 reference within the theoretical
//     quantization-grid error bound (the same gate the containment test
//     enforces: K/2 * (in_step*|w|max + w_step*|x|max + in_step*w_step)).
//
// It also reports GEMM throughput on a 256³ shape: the naive cpublas
// reference's GFLOP/s and the int8 kernel's GOPS for each ISA
// instantiation the CPU supports. The kernels' exactness is pinned by the
// gemm property test, not here. A host fingerprint (hardware threads, ISA
// flags, the dispatched int8 instantiation, compiler, build type, git
// revision) says where the numbers came from.
//
// Output is one JSON document. Wall-clock fields vary run to run, so the
// file is *not* byte-stable; a reference run is committed as
// bench/BENCH_pipeline.json.
//
// Usage:
//   pipeline_tick [--ticks N] [--warmup N] [--blocks N] [--speedup_floor X]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ad/pipeline.h"
#include "bench/bench_util.h"
#include "coverage/coverage.h"
#include "kernels/gemm.h"
#include "nn/layers.h"
#include "support/alloc_counter.h"
#include "support/flags.h"
#include "support/rng.h"
#include "timing/timing.h"

namespace {

using Clock = std::chrono::steady_clock;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "pipeline_tick: CONTRACT FAILURE: %s\n",
                 what.c_str());
    ++g_failures;
  }
}

// The tick arms. int8 runs on the fig7 CPU reference backend with the
// quantized-weights switch that routes convs onto the int8 path.
struct ArmConfig {
  const char* name;
  nn::Backend backend;
  bool quantized;
};
constexpr ArmConfig kNaiveFp32{"cpu_naive_fp32", nn::Backend::kCpuNaive,
                               false};
constexpr ArmConfig kClosedFp32{"closed_sim_fp32", nn::Backend::kClosedSim,
                                false};
constexpr ArmConfig kOpenFp32{"open_sim_fp32", nn::Backend::kOpenSim, false};
constexpr ArmConfig kInt8{"cpu_int8", nn::Backend::kCpuNaive, true};

adpilot::PilotConfig MakeConfig(const ArmConfig& arm) {
  adpilot::PilotConfig cfg;
  cfg.perception.backend = arm.backend;
  cfg.perception.quantized_weights = arm.quantized;
  // The watchdog compares against wall-clock time; on a loaded machine a
  // slow-but-correct baseline tick must not become a logged violation
  // (violations allocate their message strings).
  cfg.safety.tick_deadline = 1e9;
  return cfg;
}

// The instrumented tick's p50 may cost at most this many uninstrumented
// ones (contract 2).
constexpr double kInstrumentedCeiling = 3.0;

// One block of per-tick latency samples. A fresh pilot per block keeps the
// workload identical across blocks and arms (same scenario schedule from
// tick 0); the untimed warm-up grows every buffer to its peak size first.
// A probed block runs under a ThreadCapture, as a campaign worker does.
void MeasureBlock(const ArmConfig& arm, bool probed, int warmup, int ticks,
                  std::vector<double>* out) {
  certkit::cov::SetProbesEnabled(probed);
  std::optional<certkit::cov::ThreadCapture> capture;
  if (probed) capture.emplace();
  adpilot::ApolloPilot pilot(MakeConfig(arm));
  for (int t = 0; t < warmup; ++t) pilot.Tick();
  for (int t = 0; t < ticks; ++t) {
    const auto t0 = Clock::now();
    pilot.Tick();
    const auto t1 = Clock::now();
    out->push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  certkit::cov::SetProbesEnabled(false);
}

// Steady-state allocation count for one arm: allocations per measured tick
// after warm-up (must be exactly zero when the counting hooks are linked).
std::uint64_t SteadyAllocs(const ArmConfig& arm, int warmup, int ticks) {
  adpilot::ApolloPilot pilot(MakeConfig(arm));
  for (int t = 0; t < warmup; ++t) pilot.Tick();
  certkit::support::AllocScope scope;
  for (int t = 0; t < ticks; ++t) pilot.Tick();
  return scope.allocations();
}

// Accuracy gate on the detector's real layer-0 shape (3->8 channels, 3x3,
// 64x64): int8 output vs the bit-exact fp32 reference, bounded by the
// quantization-grid error sum — the containment test's formula.
double AccuracyGate(float* bound_out) {
  const int in_c = 3, out_c = 8, k = 3, hw = 64;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  std::vector<float> bias(out_c);
  certkit::support::Xoshiro256 rng(0xBEEFu);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
  for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-1, 1));

  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, bias,
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, bias,
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  nn::Tensor input(1, in_c, hw, hw);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.UniformDouble(-4, 4));
  }

  float in_amax = 0.0f, w_amax = 0.0f;
  for (std::size_t i = 0; i < input.size(); ++i) {
    in_amax = std::max(in_amax, std::fabs(input.data()[i]));
  }
  for (const float w : weights) w_amax = std::max(w_amax, std::fabs(w));
  const float in_step = in_amax / 127.0f;
  const float w_step = w_amax / 127.0f;
  const float patch = static_cast<float>(in_c) * k * k;
  *bound_out =
      patch * 0.5f *
          (in_step * w_amax + w_step * in_amax + in_step * w_step) +
      1e-4f;

  nn::Tensor want, got;
  fp32.ForwardInto(input, &want);
  quant.ForwardInto(input, &got);
  Check(got.size() == want.size(), "accuracy gate: output shape mismatch");
  Check(std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(float)) != 0,
        "accuracy gate: int8 path did not run (outputs bit-identical)");

  double max_abs_err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_abs_err = std::max(
        max_abs_err,
        static_cast<double>(std::fabs(got.data()[i] - want.data()[i])));
  }
  return max_abs_err;
}

// GEMM throughput on a representative square shape: the naive CPU-BLAS
// reference, and each compiled instantiation of the int8 kernel the
// quantized conv path runs (0 for one the CPU cannot run).
struct GemmResult {
  double cpublas_gflops = 0.0;
  std::vector<double> int8_gops;  // per micro::GemmS16S32Variants() entry
};

template <typename Fn>
double OpsPerSecond(double ops_per_call, int reps, Fn&& fn) {
  fn();  // warm
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = Clock::now();
  return ops_per_call * reps / std::chrono::duration<double>(t1 - t0).count();
}

GemmResult GemmThroughput() {
  const kernels::GemmShape shape{256, 256, 256};
  const std::size_t mk = 256 * 256;
  const double ops = 2.0 * 256 * 256 * 256;
  GemmResult r;

  std::vector<float> a(mk), b(mk), c(mk);
  certkit::support::Xoshiro256 rng(0xC0FFEEu);
  for (float& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  r.cpublas_gflops = OpsPerSecond(ops, 3, [&] {
                       kernels::cpublas::Sgemm(a.data(), b.data(), c.data(),
                                               shape);
                     }) / 1e9;

  // 256 is a multiple of both tiles, so the packed operands need no
  // padding; their contents do not matter for timing.
  std::vector<std::int16_t> qa(mk), qb(mk);
  std::vector<std::int32_t> qc(mk);
  for (std::size_t i = 0; i < mk; ++i) {
    qa[i] = static_cast<std::int16_t>((i * 7) % 255) - 127;
    qb[i] = static_cast<std::int16_t>((i * 13) % 255) - 127;
  }
  for (const auto& v : kernels::micro::GemmS16S32Variants()) {
    r.int8_gops.push_back(
        v.supported ? OpsPerSecond(ops, 50,
                                   [&] {
                                     v.gemm(qa.data(), qb.data(), qc.data(),
                                            shape);
                                   }) /
                          1e9
                    : 0.0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  certkit::support::FlagParser flags(argc, argv);
  const int ticks = static_cast<int>(*flags.GetInt("ticks", 40));
  const int warmup = static_cast<int>(*flags.GetInt("warmup", 20));
  const int blocks = static_cast<int>(*flags.GetInt("blocks", 3));
  const double speedup_floor =
      static_cast<double>(*flags.GetInt("speedup_floor", 10));

  // Probes off except in the instrumented arms (see the header comment).
  certkit::cov::SetProbesEnabled(false);

  // --- 1. accuracy gate ----------------------------------------------------
  float bound = 0.0f;
  const double max_abs_err = AccuracyGate(&bound);
  Check(max_abs_err <= bound,
        "int8 conv drifted past the quantization-grid error bound (" +
            std::to_string(max_abs_err) + " > " + std::to_string(bound) +
            ")");

  // --- 2. GEMM throughput (reported, not gated) ---------------------------
  const GemmResult gemm = GemmThroughput();

  // --- 3. steady-state allocations ----------------------------------------
  const bool counting = certkit::support::AllocCountingActive();
  const std::uint64_t base_allocs = SteadyAllocs(kNaiveFp32, warmup, ticks);
  const std::uint64_t opt_allocs = SteadyAllocs(kInt8, warmup, ticks);
  if (counting) {
    Check(base_allocs == 0,
          "baseline steady-state tick touched the heap " +
              std::to_string(base_allocs) + " times");
    Check(opt_allocs == 0,
          "optimized steady-state tick touched the heap " +
              std::to_string(opt_allocs) + " times");
  }

  // --- 4. tick latency, alternating arms, probes off and on -------------
  // Every fp32 backend and int8 uninstrumented; naive fp32 and int8 also
  // instrumented.
  struct Arm {
    const ArmConfig* config;
    bool probed;
    std::vector<double> us;
    double p50 = 0.0, p99 = 0.0;
  };
  Arm arms[] = {{&kNaiveFp32, false, {}},  {&kClosedFp32, false, {}},
                {&kOpenFp32, false, {}},   {&kInt8, false, {}},
                {&kNaiveFp32, true, {}},   {&kInt8, true, {}}};
  for (int b = 0; b < blocks; ++b) {
    for (Arm& arm : arms) {
      MeasureBlock(*arm.config, arm.probed, warmup, ticks, &arm.us);
    }
  }
  using certkit::timing::NearestRankQuantile;
  for (Arm& arm : arms) {
    std::sort(arm.us.begin(), arm.us.end());
    arm.p50 = NearestRankQuantile(arm.us, 0.50);
    arm.p99 = NearestRankQuantile(arm.us, 0.99);
  }
  const Arm& base = arms[0];
  const Arm& opt = arms[3];
  const auto int8_speedup = [&opt](const Arm& fp32) {
    return opt.p50 > 0.0 ? fp32.p50 / opt.p50 : 0.0;
  };
  const double speedup = int8_speedup(base);
  Check(speedup >= speedup_floor,
        "tick speedup " + std::to_string(speedup) + "x below the " +
            std::to_string(speedup_floor) + "x floor");
  const Arm* best_fp32 = &arms[0];
  for (int i = 1; i < 3; ++i) {
    if (arms[i].p50 < best_fp32->p50) best_fp32 = &arms[i];
  }
  const Arm* instrumented[2] = {&arms[4], &arms[5]};
  double overhead[2] = {0.0, 0.0};  // probed p50 over unprobed, per arm
  for (int q = 0; q < 2; ++q) {
    const Arm& plain = q ? opt : base;
    overhead[q] = instrumented[q]->p50 / plain.p50;
    Check(overhead[q] <= kInstrumentedCeiling,
          std::string(plain.config->name) + " instrumented tick " +
              std::to_string(overhead[q]) + "x its uninstrumented p50, over "
              "the " + std::to_string(kInstrumentedCeiling) + "x ceiling");
  }

  certkit::cov::SetProbesEnabled(true);

  std::string fp32_json;
  for (int i = 0; i < 3; ++i) {
    char row[192];
    std::snprintf(row, sizeof(row),
                  "%s\"%s\":{\"p50_us\":%.1f,\"p99_us\":%.1f,"
                  "\"int8_speedup_p50\":%.2f}",
                  i ? "," : "", arms[i].config->name, arms[i].p50,
                  arms[i].p99, int8_speedup(arms[i]));
    fp32_json += row;
  }
  std::string instrumented_json;
  for (int q = 0; q < 2; ++q) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "\"%s\":{\"p50_us\":%.1f,\"p99_us\":%.1f,"
                  "\"overhead_x\":%.2f},",
                  instrumented[q]->config->name, instrumented[q]->p50,
                  instrumented[q]->p99, overhead[q]);
    instrumented_json += row;
  }
  std::string gops_json;
  const auto variants = kernels::micro::GemmS16S32Variants();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    char row[64];
    std::snprintf(row, sizeof(row), "%s\"%s\":%.2f", i ? "," : "",
                  variants[i].isa, gemm.int8_gops[i]);
    gops_json += row;
  }

  std::printf(
      "{\"pipeline_tick\":{\"host\":{%s,\"int8_kernel\":\"%s\"},"
      "\"ticks_per_block\":%d,\"blocks\":%d,\"warmup\":%d,"
      "\"baseline\":{\"backend\":\"%s\",\"p50_us\":%.1f,"
      "\"p99_us\":%.1f,\"steady_allocs_per_%d_ticks\":%llu},"
      "\"optimized\":{\"backend\":\"%s\",\"p50_us\":%.1f,"
      "\"p99_us\":%.1f,\"steady_allocs_per_%d_ticks\":%llu},"
      "\"speedup_p50\":%.2f,\"speedup_floor\":%.1f,"
      "\"fp32_backends\":{%s},"
      "\"best_fp32\":{\"backend\":\"%s\",\"int8_speedup_p50\":%.2f},"
      "\"instrumented\":{%s\"ceiling_x\":%.1f},"
      "\"alloc_counting_active\":%s,"
      "\"gemm_256\":{\"cpublas_gflops\":%.2f,\"int8_gops\":{%s}},"
      "\"int8_accuracy\":{\"max_abs_err\":%.6f,\"grid_bound\":%.6f},"
      "\"checks_failed\":%d}}\n",
      benchutil::HostFingerprintFields().c_str(),
      kernels::micro::GemmS16S32Dispatched().isa, ticks, blocks, warmup,
      base.config->name, base.p50, base.p99, ticks,
      static_cast<unsigned long long>(base_allocs), opt.config->name, opt.p50,
      opt.p99, ticks, static_cast<unsigned long long>(opt_allocs), speedup,
      speedup_floor, fp32_json.c_str(), best_fp32->config->name,
      int8_speedup(*best_fp32), instrumented_json.c_str(),
      kInstrumentedCeiling, counting ? "true" : "false",
      gemm.cpublas_gflops, gops_json.c_str(), max_abs_err,
      static_cast<double>(bound), g_failures);
  return g_failures == 0 ? 0 : 1;
}
