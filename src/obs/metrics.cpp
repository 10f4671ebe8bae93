#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "support/check.h"
#include "support/json.h"
#include "timing/timing.h"

namespace certkit::obs {

namespace {

// Fixed-width double rendering so exports are byte-stable across platforms
// with identical inputs (no locale, no %g exponent-form ambiguity for the
// magnitudes metrics take).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Quantile fields render +inf (overflow bucket) as a JSON string, since
// bare Infinity is not valid JSON.
std::string QuantileNum(double v) {
  if (std::isinf(v)) return "\"+inf\"";
  return Num(v);
}

void AtomicMinDouble(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// The one nearest-rank rule over bucket upper bounds: the ceil(q*N)-th
// smallest sample, 1-based, with q clamped to [0, 1] and q=0 mapping to
// rank 1 — identical to timing::NearestRankQuantile over a sorted list.
// `bucket(i)` reads bucket i; Histogram::Quantile passes the live atomics,
// so the walk allocates nothing and is async-signal-safe (buckets may move
// between the two passes; a rank the second pass cannot reach reports
// +inf, which a post-mortem tolerates).
template <typename BucketAt>
double NearestRankBucket(const std::vector<double>& bounds,
                         std::size_t bucket_count, BucketAt bucket, double q) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < bucket_count; ++i) total += bucket(i);
  if (total <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::int64_t rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < bucket_count; ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      if (i < bounds.size()) return bounds[i];
      break;  // overflow bucket
    }
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  CERTKIT_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  CERTKIT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "histogram bounds must be ascending");
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::Record(double v) {
  if (!std::isfinite(v)) return;
  // First bucket whose inclusive upper bound covers v; overflow otherwise.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  AtomicMinDouble(min_, v);
  AtomicMaxDouble(max_, v);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Count last, with release order: a reader that sees count >= 1 also
  // sees a finite min/max (not the ±inf sentinels).
  count_.fetch_add(1, std::memory_order_release);
}

std::vector<std::int64_t> Histogram::BucketCounts() const {
  std::vector<std::int64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::int64_t Histogram::count() const {
  return count_.load(std::memory_order_acquire);
}

double Histogram::sum() const {
  return count() == 0 ? 0.0 : sum_.load(std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  return NearestRankBucket(
      bounds_, bucket_count(),
      [this](std::size_t i) { return bucket_value(i); }, q);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  count_.store(0, std::memory_order_release);
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<std::int64_t>& buckets, double q) {
  return NearestRankBucket(
      bounds, buckets.size(), [&buckets](std::size_t i) { return buckets[i]; },
      q);
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::Publish(const std::string& name, MetricKind kind,
                              const void* metric) {
  // Called with mu_ held, so writers are serial; readers are lock-free.
  const int n = published_count_.load(std::memory_order_relaxed);
  if (n >= kMaxPublished) return;
  published_[n].name = &name;
  published_[n].kind = kind;
  published_[n].metric = metric;
  published_count_.store(n + 1, std::memory_order_release);
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    Publish(it->first, MetricKind::kCounter, it->second.get());
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    Publish(it->first, MetricKind::kGauge, it->second.get());
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(bounds)).first;
    Publish(it->first, MetricKind::kHistogram, it->second.get());
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.bounds = h->bounds();
    row.buckets = h->BucketCounts();
    row.count = h->count();
    row.sum = h->sum();
    row.min = h->min();
    row.max = h->max();
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsJson(const MetricsSnapshot& snapshot,
                        bool include_timing) {
  std::ostringstream out;
  out << "{\"metrics\":{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out << ",";
    out << support::JsonEscape(snapshot.counters[i].first) << ":"
        << snapshot.counters[i].second;
  }
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out << ",";
    out << support::JsonEscape(snapshot.gauges[i].first) << ":"
        << Num(snapshot.gauges[i].second);
  }
  out << "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (i > 0) out << ",";
    out << support::JsonEscape(h.name) << ":{\"count\":" << h.count
        << ",\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out << ",";
      out << Num(h.bounds[b]);
    }
    out << "]";
    if (include_timing) {
      out << ",\"buckets\":[";
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (b > 0) out << ",";
        out << h.buckets[b];
      }
      out << "],\"sum\":" << Num(h.sum) << ",\"min\":" << Num(h.min)
          << ",\"max\":" << Num(h.max)
          << ",\"p50\":" << QuantileNum(HistogramQuantile(h.bounds, h.buckets, 0.50))
          << ",\"p90\":" << QuantileNum(HistogramQuantile(h.bounds, h.buckets, 0.90))
          << ",\"p99\":" << QuantileNum(HistogramQuantile(h.bounds, h.buckets, 0.99));
    }
    out << "}";
  }
  // Timers come from the same instrumentation (obs::Span feeds the
  // ExecutionTimer the WCET estimates read); sample counts are
  // deterministic, the statistics are wall clock.
  out << "},\"timers\":{";
  const auto stats = timing::TimerRegistry::Instance().SnapshotStats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) out << ",";
    out << support::JsonEscape(stats[i].first)
        << ":{\"count\":" << stats[i].second.count;
    if (include_timing && stats[i].second.count > 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ",\"mean_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f,"
                    "\"max_us\":%.3f",
                    stats[i].second.mean * 1e6, stats[i].second.p95 * 1e6,
                    stats[i].second.p99 * 1e6, stats[i].second.max * 1e6);
      out << buf;
    }
    out << "}";
  }
  out << "}}}";
  return out.str();
}

}  // namespace certkit::obs
