// certkit obs: a registry of named counters and gauges — the queryable side
// of the observability layer.
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
//                campaign's breed/merge phases) to stay deterministic.
//
// Durations live in timing::ExecutionTimer (one per pipeline stage, fed by
// obs::Span); the metrics export carries their rows under "timers", with
// the wall-clock-derived fields gated behind include_timing, matching the
// campaign-JSON convention.
//
// Every metric is readable without taking a lock: counters and gauges are
// plain atomics, and the registry publishes a fixed-capacity list of
// {name, kind, pointer} entries with a release-stored count
// (support::PublishedList). That makes the whole registry safe to walk from
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

#include "support/published_list.h"

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

// A point-in-time copy of every registered metric, in name order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

enum class MetricKind { kCounter, kGauge };

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
  using Published = support::PublishedList<PublishedMetric, kMaxPublished>;

  static MetricsRegistry& Instance();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  MetricsSnapshot Snapshot() const;
  void ResetAll();

  // Lock-free registry walk (registration order, not name order); a
  // reader — including a signal handler — sees only complete entries.
  const Published& published() const { return published_; }

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  Published published_;
};

// Renders a snapshot (plus the timing::TimerRegistry's sample counts) as
// the metrics JSON document. Deterministic for a fixed seed and workload;
// `include_timing` adds the wall-clock-derived timer statistics (mean,
// extrema and quantiles). Schema in DESIGN.md.
std::string MetricsJson(const MetricsSnapshot& snapshot, bool include_timing);

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_METRICS_H_
