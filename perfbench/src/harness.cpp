#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/json.h"
#include "timing/timing.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point ProcessStart() { return g_process_start; }

void Window::Pause() {
  if (paused_) return;
  paused_ = true;
  paused_at_ = Clock::now();
}

void Window::Resume() {
  if (!paused_) return;
  paused_ = false;
  paused_s_ += SecondsSince(paused_at_);
}

double Window::Elapsed() const {
  const double total = SecondsSince(start_);
  const double paused = paused_s_ + (paused_ ? SecondsSince(paused_at_) : 0);
  return total - paused;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return certkit::timing::NearestRankQuantile(values, q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  // NearestRankQuantile returns the sample at rank ceil(q * n); everything
  // ranked after it lies beyond.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n - std::max<std::size_t>(rank, 1);
}

bool PercentileSupported(std::size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= 10;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // small benchmark started from a larger parent (the Python runner) would
  // report the parent's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<Metric> EndToEndMetrics(const Outcome& outcome) {
  const double ops = static_cast<double>(outcome.op_s.size());
  const double p50 = outcome.op_s.empty() ? 0.0 : Quantile(outcome.op_s, 0.5);
  return {
      {"setup_s", Median(outcome.setup_s), "s"},
      {"ops_per_s", outcome.window_s > 0 ? ops / outcome.window_s : 0.0,
       "1/s"},
      {"op_p50_ms", p50 * 1e3, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

void PrintEndToEnd(const char* label, const Outcome& o) {
  const std::size_t n = o.op_s.size();
  std::printf("[%s] setup_s = %.6f s (median of %zu set-ups:", label,
              Median(o.setup_s), o.setup_s.size());
  for (double s : o.setup_s) std::printf(" %.4f", s);
  std::printf(")\n");
  std::printf("[%s] ops_per_s = %.4f 1/s (%zu ops in %.3f s)\n", label,
              o.window_s > 0 ? static_cast<double>(n) / o.window_s : 0.0, n,
              o.window_s);
  const struct {
    const char* name;
    double q;
  } kPercentiles[] = {{"op_p50_ms", 0.5}, {"op_p90_ms", 0.9},
                      {"op_p99_ms", 0.99}};
  for (const auto& p : kPercentiles) {
    const std::size_t beyond = n == 0 ? 0 : SamplesBeyond(n, p.q);
    if (PercentileSupported(n, p.q)) {
      std::printf("[%s] %s = %.6f ms (n=%zu, %zu beyond)\n", label, p.name,
                  Quantile(o.op_s, p.q) * 1e3, n, beyond);
    } else {
      std::printf("[%s] %s not reported (n=%zu, %zu beyond, need 10)\n",
                  label, p.name, n, beyond);
    }
  }
  std::printf("[%s] failed_ops_ratio = %.6f (%" PRId64 " of %zu)\n", label,
              n == 0 ? 0.0 : static_cast<double>(o.failed) / n, o.failed, n);
  std::printf("[%s] peak_rss_mb = %.3f MB\n", label, PeakRssMb());
}

void PrintMetrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("[%s] %s = %.6g %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ResultJson(bool correct, std::int64_t attempted,
                       std::int64_t failed,
                       const std::vector<Metric>& metrics) {
  using certkit::support::JsonEscape;
  using certkit::support::JsonNumber;
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ",";
    out << JsonEscape(metrics[i].name) << ":{\"value\":"
        << JsonNumber(metrics[i].value)
        << ",\"unit\":" << JsonEscape(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

double SpeedProbeMs() {
  std::vector<std::int16_t> a(32768), b(32768);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int16_t>(i * 7);
    b[i] = static_cast<std::int16_t>(i * 13);
  }
  // A single random cycle through 256 KiB, so each load depends on the
  // last. Kept small: the probe runs first and must not raise the peak RSS
  // the workload reports.
  std::vector<std::uint32_t> next(1 << 16);
  for (std::size_t i = 0; i < next.size(); ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 1;
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    x = SplitMix64(x);
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> ms;
  volatile std::int64_t sink = 0;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    std::int64_t acc = 0;
    for (int r = 0; r < 16; ++r) {
      for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    }
    float f = 1.0f;
    for (int i = 0; i < 80000; ++i) f = f * 1.0000001f + 0.5f;
    std::uint32_t p = 0;
    for (int i = 0; i < 16000; ++i) p = next[p];
    sink = acc + static_cast<std::int64_t>(f) + p;
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  (void)sink;
  return Median(ms);
}

}  // namespace

std::string FingerprintJson(const std::string& source_rev) {
  using certkit::support::JsonEscape;
  using certkit::support::JsonNumber;
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  __builtin_cpu_init();
  std::string isa;
  if (__builtin_cpu_supports("avx2")) isa += "avx2";
  if (__builtin_cpu_supports("avx512f")) {
    isa += isa.empty() ? "avx512f" : ",avx512f";
  }
  if (isa.empty()) isa = "baseline";
  std::ostringstream out;
  out << "{\"nproc\":" << HardwareThreads() << ",\"isa\":" << JsonEscape(isa)
      << ",\"compiler\":" << JsonEscape(PERFBENCH_COMPILER)
      << ",\"build_type\":" << JsonEscape(PERFBENCH_BUILD_TYPE)
      << ",\"source_rev\":" << JsonEscape(source_rev)
      << ",\"loadavg_1m\":" << JsonNumber(load[0])
      << ",\"speed_probe_ms\":" << JsonNumber(SpeedProbeMs()) << "}";
  return out.str();
}

CpuSet::CpuSet() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
}

CpuSet::~CpuSet() {
  if (cpus_.empty()) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int c : cpus_) CPU_SET(c, &allowed);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuSet::Pin(std::size_t index) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[index % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::int64_t FailedOps(const std::vector<Episode>& episodes,
                       const std::vector<std::uint64_t>& reference) {
  std::int64_t failed = 0;
  for (const Episode& e : episodes) {
    const bool known =
        e.key >= 0 && static_cast<std::size_t>(e.key) < reference.size();
    if (!known || reference[static_cast<std::size_t>(e.key)] != e.digest) {
      failed += e.ops;
    }
  }
  return failed;
}

bool LoadShippedReference(const std::string& path, const std::string& workload,
                          std::uint64_t seed,
                          std::vector<std::uint64_t>* digests) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    if (!(fields >> name >> line_seed) || name != workload ||
        line_seed != seed) {
      continue;
    }
    digests->clear();
    std::string hex;
    while (fields >> hex) {
      digests->push_back(std::strtoull(hex.c_str(), nullptr, 16));
    }
    return !digests->empty();
  }
  return false;
}

std::string ReferenceLine(const std::string& workload, std::uint64_t seed,
                          const std::vector<std::uint64_t>& digests) {
  std::ostringstream out;
  out << workload << " " << seed;
  for (std::uint64_t d : digests) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), " %016" PRIx64, d);
    out << hex;
  }
  return out.str();
}

}  // namespace perfbench
