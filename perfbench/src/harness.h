// perfbench harness: timing, the one quantile rule, result emission, the
// host fingerprint and the reference-digest gate shared by every workload.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

// Set when main() starts; the first set-up repetition of every workload is
// timed from here ("process start to the first timed operation").
Clock::time_point ProcessStart();

// Wall-clock window that can be paused while the benchmark does its own
// bookkeeping (digest checks, pilot rebuilds), so only operations count.
class Window {
 public:
  Window() : start_(Clock::now()) {}
  void Pause();
  void Resume();
  double Elapsed() const;

 private:
  Clock::time_point start_;
  Clock::time_point paused_at_{};
  double paused_s_ = 0.0;
  bool paused_ = false;
};

// --- The quantile rule ------------------------------------------------------
// Every percentile the benchmark prints is certkit::timing::
// NearestRankQuantile over the sorted samples; nothing interpolates.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);
// A percentile is reported only when at least ten samples lie beyond it.
bool PercentileSupported(std::size_t n, double q);

// --- Metrics and results ----------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `setup_s` holds one entry per set-up
// repetition; `op_s` one latency per completed timed operation.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> op_s;
  double window_s = 0.0;
  std::int64_t failed = 0;  // operations whose output failed its check
};

// The end-to-end metrics named in BENCHMARK.json, in its order.
std::vector<Metric> EndToEndMetrics(const Outcome& outcome);

// Human-readable lines (every metric with its unit, sample counts, the
// percentiles the sample count supports, failed_ops_ratio).
void PrintEndToEnd(const char* label, const Outcome& outcome);
void PrintMetrics(const char* label, const std::vector<Metric>& metrics);

// The final stdout line: {"correct","attempted","failed","metrics"}.
std::string ResultJson(bool correct, std::int64_t attempted,
                       std::int64_t failed,
                       const std::vector<Metric>& metrics);

double PeakRssMb();

// --- Host fingerprint -------------------------------------------------------
// Includes speed_probe_ms, the median time of a fixed benchmark-owned kernel
// (integer dot products, a dependent float chain, a pointer chase).
// It does not touch certkit code, so it moves only with the host: on shared
// machines whose speed drifts, compare uses it to flag run sets taken at
// different host speeds.
std::string FingerprintJson(const std::string& source_rev);
int HardwareThreads();

// Output checks of a traced run's layer measurements.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void Expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// The CPUs this process may run on. Pin() confines the calling thread to
// one of them (index taken modulo the count); the destructor restores the
// original mask.
class CpuSet {
 public:
  CpuSet();
  ~CpuSet();
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  void Pin(std::size_t index);

 private:
  std::vector<int> cpus_;
};

// --- Seeds and the reference-digest gate ------------------------------------
std::uint64_t SplitMix64(std::uint64_t x);

// One checked unit of output: `ops` operations produced `digest`, which must
// equal reference slot `key`.
struct Episode {
  int key = 0;
  std::uint64_t digest = 0;
  std::int64_t ops = 0;
};

// Operations belonging to episodes whose digest differs from its reference
// (an episode with no reference slot counts as failed too).
std::int64_t FailedOps(const std::vector<Episode>& episodes,
                       const std::vector<std::uint64_t>& reference);

// Shipped reference digests: lines "<workload> <seed> <hex> <hex> ..." in
// `path`. Returns false when the file has no line for (workload, seed).
bool LoadShippedReference(const std::string& path, const std::string& workload,
                          std::uint64_t seed,
                          std::vector<std::uint64_t>* digests);
std::string ReferenceLine(const std::string& workload, std::uint64_t seed,
                          const std::vector<std::uint64_t>& digests);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
