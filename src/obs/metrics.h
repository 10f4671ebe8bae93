// certkit obs: a registry of named counters, gauges, and fixed-bucket
// histograms — the queryable side of the observability layer.
//
// The ISO 26262 assessment needs monitor activity (violations, deadline
// misses, degradation transitions) and fleet behavior (queue depth,
// candidates evaluated) as *numbers a tool can read*, not lines in a log.
// Every metric here is designed so that its exported value is a pure
// function of the workload and the seed:
//
//  * Counter   — monotonically increasing int64; increments commute, so
//                concurrent fleet workers produce the same total for any
//                --jobs count;
//  * Gauge     — last-set double; set only from serial sections (the
//                campaign's breed/merge phases) to stay deterministic;
//  * Histogram — fixed upper-bound buckets. Sample *counts* are
//                deterministic (one sample per stage per tick); the bucket
//                occupancy of duration histograms is wall-clock-derived, so
//                the JSON export gates bucket/sum/min/max/quantile fields
//                behind include_timing, matching the campaign-JSON
//                convention.
//
// Every metric is readable without taking a lock: counters, gauges, and
// histogram buckets are plain atomics, and the registry publishes a
// fixed-capacity array of {name, kind, pointer} entries with a
// release-stored count. That makes the whole registry safe to walk from
// the flight recorder's fatal-signal dump path (flight_recorder.h), which
// may fire while another thread holds no lock, one lock, or is mid-update.
//
// MetricsJson(Snapshot(), ...) is the export; schema in DESIGN.md.
#ifndef CERTKIT_OBS_METRICS_H_
#define CERTKIT_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace certkit::obs {

class Counter {
 public:
  void Add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  // Atomic increment, for live levels (the serve queue depth decrements as
  // each request retires). Adds commute, so the settled value is
  // deterministic even when workers race; only intermediate readings vary.
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds:
// sample v lands in the first bucket with v <= bounds[i]; samples above the
// last bound land in the implicit overflow bucket (index bounds.size()).
// Non-finite samples are dropped (recorded nowhere, not even the count) —
// a NaN duration is an instrumentation bug, not a tail observation.
//
// Lock-free: Record touches only atomics (count_ is bumped last, with
// release order, so a reader that observes count >= 1 also observes a real
// min/max). Accessors are therefore safe from the signal-handler dump path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket occupancy, length bounds().size() + 1 (overflow last).
  std::vector<std::int64_t> BucketCounts() const;
  std::int64_t count() const;
  double sum() const;
  double min() const;  // 0.0 when empty
  double max() const;  // 0.0 when empty
  // Nearest-rank quantile over bucket upper bounds: with N = count() and
  // rank = ceil(q * N), returns the upper bound of the bucket containing
  // the rank-th smallest sample. Overflow-bucket samples report +inf
  // (their bound is unbounded); an empty histogram reports 0.0. Same rank
  // law as timing::NearestRankQuantile, pinned by tests. Reads the live
  // bucket atomics without allocating, so the flight-dump writer calls it
  // from the fatal-signal path.
  double Quantile(double q) const;
  void Reset();

  // Raw lock-free bucket access for the async-signal-safe flight-dump
  // writer (BucketCounts allocates; this does not).
  std::size_t bucket_count() const { return buckets_.size(); }
  std::int64_t bucket_value(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// The Histogram::Quantile law as a free function over snapshot rows (the
// MetricsJson exporter uses it).
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<std::int64_t>& buckets, double q);

// A point-in-time copy of every registered metric, in name order.
struct MetricsSnapshot {
  struct HistogramRow {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::int64_t> buckets;  // overflow last
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramRow> histograms;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One registry entry, published for lock-free iteration. `name` points at
// the std::map node's key (node-stable for the process lifetime; the
// registry never erases) and `metric` at the heap object behind the
// unique_ptr, so both stay valid once the entry is visible.
struct PublishedMetric {
  const std::string* name = nullptr;
  MetricKind kind = MetricKind::kCounter;
  const void* metric = nullptr;
};

// Process-wide metric registry. Get* registers on first use and returns a
// stable reference afterwards (ResetAll zeroes values but never invalidates
// references, so instrumentation sites may cache them).
class MetricsRegistry {
 public:
  // Registrations beyond this many metrics still work (map-backed) but are
  // invisible to the lock-free published view; the current codebase
  // registers a few dozen.
  static constexpr int kMaxPublished = 256;

  static MetricsRegistry& Instance();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `bounds` is consulted on first registration only; later calls return
  // the existing histogram regardless.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  MetricsSnapshot Snapshot() const;
  void ResetAll();

  // Lock-free registry walk (registration order, not name order). The
  // count is release-published after the entry fields are written, so a
  // reader — including a signal handler — sees only complete entries.
  int PublishedCount() const {
    const int n = published_count_.load(std::memory_order_acquire);
    return n < kMaxPublished ? n : kMaxPublished;
  }
  const PublishedMetric& PublishedAt(int i) const { return published_[i]; }

 private:
  MetricsRegistry() = default;
  void Publish(const std::string& name, MetricKind kind, const void* metric);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  PublishedMetric published_[kMaxPublished];
  std::atomic<int> published_count_{0};
};

// Renders a snapshot (plus the timing::TimerRegistry's sample counts) as
// the metrics JSON document. Deterministic for a fixed seed and workload;
// `include_timing` adds the wall-clock-derived fields (histogram buckets,
// sums, extrema, p50/p90/p99 quantiles, and timer statistics). Schema in
// DESIGN.md.
std::string MetricsJson(const MetricsSnapshot& snapshot, bool include_timing);

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_METRICS_H_
