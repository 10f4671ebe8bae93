#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

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

}  // namespace

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    published_.Append({&it->first, MetricKind::kCounter, it->second.get()});
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    published_.Append({&it->first, MetricKind::kGauge, it->second.get()});
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
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
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
  // Timers are the duration sink obs::Span feeds (one per pipeline
  // stage); sample counts are deterministic, the statistics are wall clock.
  out << "},\"timers\":{";
  const auto stats = timing::TimerRegistry::Instance().SnapshotStats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const timing::TimingStats& t = stats[i].second;
    if (i > 0) out << ",";
    out << support::JsonEscape(stats[i].first) << ":{\"count\":" << t.count;
    if (include_timing && t.count > 0) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\"mean_us\":%.3f,\"min_us\":%.3f,\"p50_us\":%.3f,"
                    "\"p90_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f,"
                    "\"max_us\":%.3f",
                    t.mean * 1e6, t.min * 1e6, t.p50 * 1e6, t.p90 * 1e6,
                    t.p95 * 1e6, t.p99 * 1e6, t.max * 1e6);
      out << buf;
    }
    out << "}";
  }
  out << "}}}";
  return out.str();
}

}  // namespace certkit::obs
