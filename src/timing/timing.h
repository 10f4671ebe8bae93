// certkit timing: execution-time measurement and WCET estimation support.
//
// Observation 1 of the paper ties cyclomatic complexity directly to timing
// analysis: "Such high code complexity challenges the functional
// verification of the code as well as its timing analysis (e.g., worst-case
// execution time and response time) estimation." This module provides the
// measurement side of that analysis for the AD pipeline:
//
//  * ExecutionTimer — a fixed-memory, lock-free duration histogram per task:
//    exact count, sum, minimum and high-water mark, plus nearest-rank
//    quantiles with a bounded relative error;
//  * EstimateWcetEnvelope — the classical measurement-based bound: observed
//    maximum times an engineering margin;
//  * EstimatePwcet — a measurement-based probabilistic WCET in the MBPTA
//    tradition: a Gumbel (EVT) tail fitted to block maxima by the method of
//    moments, evaluated at a target exceedance probability. It needs the
//    raw samples in arrival order, so it takes a sample vector (a trace's
//    span durations), not a timer;
//  * ScopedTimer — RAII measurement of a code region.
//
// All statistics are deterministic functions of the recorded samples.
#ifndef CERTKIT_TIMING_TIMING_H_
#define CERTKIT_TIMING_TIMING_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/published_list.h"
#include "support/status.h"

namespace certkit::timing {

// Nearest-rank quantile on a sorted, non-empty sample vector: the smallest
// sample whose rank ceil(q * N) covers at least fraction q of the
// distribution. q = 0 yields the minimum, q = 1 the maximum. WCET
// percentiles must never interpolate below an observed sample, so the
// returned value is always a member of the sample set. This is the rank law
// ExecutionTimer::Quantile applies over bucket upper bounds.
double NearestRankQuantile(const std::vector<double>& sorted, double q);

struct TimingStats {
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;   // the high-water mark (HWM)
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Durations are recorded as integer nanoseconds into log-linear buckets
// (HdrHistogram-style): below 2 * kSubBuckets ns every value has its own
// bucket, and each higher power of two [2^e, 2^(e+1)) splits into
// kSubBuckets equal buckets, up to 2^64 - 1 ns (~584 years; longer values
// clamp into the top bucket). A bucket's upper bound is therefore within
// 1/kSubBuckets of every value in it. Memory is fixed (kBuckets counters,
// ~15 KB) however many samples arrive.
//
// Record is lock-free and allocation-free: relaxed fetch_adds on the
// bucket and the nanosecond sum, CAS loops on the exact minimum and
// maximum, and the count last with release order — so a reader that sees
// count >= 1 also sees that sample in the buckets and a real min/max. Every
// accessor only loads atomics, which makes them safe on the flight
// recorder's fatal-signal path.
class ExecutionTimer {
 public:
  // The one precision knob: sub-buckets per power of two. 32 bounds a
  // reported quantile's relative error by 3.2% for samples >= 1 us.
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kBuckets = (64 - kSubBucketBits + 1) * kSubBuckets;

  static constexpr int BucketOf(std::uint64_t ns) {
    if (ns < static_cast<std::uint64_t>(kSubBuckets)) {
      return static_cast<int>(ns);
    }
    const int e = std::bit_width(ns) - 1;
    const int shift = e - kSubBucketBits;
    return ((e - kSubBucketBits + 1) << kSubBucketBits) +
           static_cast<int>(ns >> shift) - kSubBuckets;
  }
  // Largest nanosecond value that lands in `bucket` (inclusive).
  static constexpr std::uint64_t BucketUpperNanos(int bucket) {
    if (bucket < 2 * kSubBuckets) return static_cast<std::uint64_t>(bucket);
    const int shift = (bucket >> kSubBucketBits) - 1;
    const std::uint64_t sub =
        static_cast<std::uint64_t>(bucket & (kSubBuckets - 1));
    return ((kSubBuckets + sub) << shift) + ((std::uint64_t{1} << shift) - 1);
  }

  explicit ExecutionTimer(std::string name);

  // `seconds` must be finite and >= 0 (anything else is an instrumentation
  // bug and trips a contract check).
  void Record(double seconds);
  std::int64_t sample_count() const;
  const std::string& name() const { return name_; }

  // count/min/max exact; mean exact to the nanosecond; quantiles as
  // Quantile() reports them.
  TimingStats GetStats() const;

  // Nearest-rank quantile over bucket upper bounds: with N samples and
  // rank = ceil(q * N) (at least 1, q clamped to [0, 1]), the upper bound
  // of the bucket holding the rank-th smallest sample, capped at the exact
  // maximum. Never below the exact NearestRankQuantile of the samples and
  // at most ~3.2% above it. 0.0 when empty. Allocation-free.
  double Quantile(double q) const;

  // Exact sum of the recorded durations in nanoseconds (modulo 2^64).
  std::uint64_t sum_nanos() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::int64_t bucket_value(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  // Envelope WCET: max observed * margin (margin >= 1).
  double EstimateWcetEnvelope(double margin = 1.2) const;

  void Reset();

 private:
  // Quantiles for ascending `qs` over `total` samples in one walk over the
  // buckets, each clamped to [lo, hi]. A single walk keeps the results
  // ordered even while other threads record.
  void WalkQuantiles(std::span<const double> qs, std::span<double> out,
                     std::int64_t total, double lo, double hi) const;

  std::string name_;
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Samples strictly above `deadline` seconds.
std::int64_t CountOver(const std::vector<double>& samples, double deadline);

// Probabilistic WCET: Gumbel fit over the maxima of consecutive blocks of
// `block_size` samples (method of moments), evaluated at the given
// exceedance probability per invocation. Requires at least 2 full blocks;
// returns InvalidArgument otherwise. Smaller probabilities give larger
// bounds.
support::Result<double> EstimatePwcet(const std::vector<double>& samples,
                                      double exceedance_probability,
                                      int block_size = 10);

// Named-timer registry (one per task/stage).
class TimerRegistry {
 public:
  // Timers beyond this many still work but are invisible to the lock-free
  // published view (and so to flight dumps); the codebase registers ~10.
  static constexpr int kMaxPublished = 256;
  using Published = support::PublishedList<const ExecutionTimer*,
                                           kMaxPublished>;

  static TimerRegistry& Instance();
  ExecutionTimer& GetOrCreate(const std::string& name);
  // Every timer, in name order.
  std::vector<const ExecutionTimer*> Timers() const;
  // (name, stats) for every timer, in name order — the form the obs-layer
  // metrics export consumes. Sample counts are deterministic for a fixed
  // workload; the statistics themselves are wall clock.
  std::vector<std::pair<std::string, TimingStats>> SnapshotStats() const;
  void ResetAll();

  // Lock-free walk in registration order, for the fatal-signal dump.
  const Published& published() const { return published_; }

 private:
  TimerRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ExecutionTimer>> timers_;
  Published published_;
};

// RAII region timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(ExecutionTimer& timer)
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto end = std::chrono::steady_clock::now();
    timer_.Record(std::chrono::duration<double>(end - start_).count());
  }

 private:
  ExecutionTimer& timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace certkit::timing

#endif  // CERTKIT_TIMING_TIMING_H_
