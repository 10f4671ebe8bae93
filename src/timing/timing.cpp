#include "timing/timing.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numbers>

#include "support/check.h"

namespace certkit::timing {

namespace {

constexpr double kEulerMascheroni = 0.5772156649015329;
constexpr double kInf = std::numeric_limits<double>::infinity();

static_assert(ExecutionTimer::BucketOf(~std::uint64_t{0}) ==
                  ExecutionTimer::kBuckets - 1,
              "the top bucket must end at 2^64 - 1 ns");
static_assert(ExecutionTimer::BucketUpperNanos(ExecutionTimer::kBuckets - 1) ==
              ~std::uint64_t{0});

// Seconds to nanoseconds: round to nearest, then up by one if the result,
// read back as seconds, would sit below the sample. Every bucket upper
// bound converted back to seconds is therefore >= each sample in it (the
// quantile guarantee), and a duration that came from whole nanoseconds maps
// back to exactly those nanoseconds.
std::uint64_t ToNanos(double seconds) {
  constexpr double kTwoTo64 = 18446744073709551616.0;
  const double rounded = std::round(seconds * 1e9);
  if (rounded >= kTwoTo64) return std::numeric_limits<std::uint64_t>::max();
  std::uint64_t ns = static_cast<std::uint64_t>(rounded);
  if (static_cast<double>(ns) / 1e9 < seconds) ++ns;
  return ns;
}

// Nearest-rank position of quantile q among `total` samples: ceil(q * N),
// at least 1, with q clamped to [0, 1] (NaN maps to the minimum).
std::int64_t Rank(double q, std::int64_t total) {
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total))));
}

void AtomicMin(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double NearestRankQuantile(const std::vector<double>& sorted, double q) {
  CERTKIT_CHECK(!sorted.empty());
  CERTKIT_CHECK(q >= 0.0 && q <= 1.0);
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

ExecutionTimer::ExecutionTimer(std::string name)
    : name_(std::move(name)), min_(kInf), max_(-kInf) {}

void ExecutionTimer::Record(double seconds) {
  CERTKIT_CHECK_MSG(seconds >= 0.0 && seconds < kInf,
                    "execution time must be finite and non-negative");
  const std::uint64_t ns = ToNanos(seconds);
  buckets_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  AtomicMin(min_, seconds);
  AtomicMax(max_, seconds);
  count_.fetch_add(1, std::memory_order_release);
}

std::int64_t ExecutionTimer::sample_count() const {
  return count_.load(std::memory_order_acquire);
}

void ExecutionTimer::WalkQuantiles(std::span<const double> qs,
                                   std::span<double> out, std::int64_t total,
                                   double lo, double hi) const {
  std::size_t k = 0;
  // The top bucket also holds every clamped duration, so `hi` (the exact
  // maximum) is its only sound bound: the walk stops one bucket short.
  std::int64_t seen = 0;
  for (int i = 0; i + 1 < kBuckets && k < qs.size(); ++i) {
    seen += bucket_value(i);
    const double bound = static_cast<double>(BucketUpperNanos(i)) / 1e9;
    while (k < qs.size() && seen >= Rank(qs[k], total)) {
      out[k++] = std::min(std::max(bound, lo), hi);
    }
  }
  for (; k < qs.size(); ++k) out[k] = hi;
}

double ExecutionTimer::Quantile(double q) const {
  const std::int64_t total = sample_count();
  if (total <= 0) return 0.0;
  double out = 0.0;
  WalkQuantiles({&q, 1}, {&out, 1}, total,
                min_.load(std::memory_order_relaxed),
                max_.load(std::memory_order_relaxed));
  return out;
}

TimingStats ExecutionTimer::GetStats() const {
  TimingStats stats;
  stats.count = sample_count();
  if (stats.count == 0) return stats;
  stats.min = min_.load(std::memory_order_relaxed);
  stats.max = max_.load(std::memory_order_relaxed);
  stats.mean = static_cast<double>(sum_nanos()) / 1e9 /
               static_cast<double>(stats.count);
  static constexpr double kQs[] = {0.50, 0.90, 0.95, 0.99};
  double q[std::size(kQs)];
  WalkQuantiles(kQs, q, stats.count, stats.min, stats.max);
  stats.p50 = q[0];
  stats.p90 = q[1];
  stats.p95 = q[2];
  stats.p99 = q[3];
  return stats;
}

double ExecutionTimer::EstimateWcetEnvelope(double margin) const {
  CERTKIT_CHECK(margin >= 1.0);
  if (sample_count() == 0) return 0.0;
  return max_.load(std::memory_order_relaxed) * margin;
}

void ExecutionTimer::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
  count_.store(0, std::memory_order_release);
}

std::int64_t CountOver(const std::vector<double>& samples, double deadline) {
  return std::count_if(samples.begin(), samples.end(),
                       [deadline](double v) { return v > deadline; });
}

support::Result<double> EstimatePwcet(const std::vector<double>& samples,
                                      double exceedance_probability,
                                      int block_size) {
  if (exceedance_probability <= 0.0 || exceedance_probability >= 1.0) {
    return support::InvalidArgumentError(
        "exceedance probability must be in (0, 1)");
  }
  if (block_size < 1) {
    return support::InvalidArgumentError("block size must be positive");
  }
  const std::size_t block = static_cast<std::size_t>(block_size);
  std::vector<double> maxima;
  for (std::size_t start = 0; start + block <= samples.size();
       start += block) {
    maxima.push_back(*std::max_element(samples.begin() + start,
                                       samples.begin() + start + block));
  }
  if (maxima.size() < 2) {
    return support::InvalidArgumentError(
        "need at least 2 full blocks of samples for the EVT fit");
  }

  // Method-of-moments Gumbel fit to the block maxima.
  double sum = 0.0;
  for (double v : maxima) sum += v;
  const double mean = sum / static_cast<double>(maxima.size());
  double var = 0.0;
  for (double v : maxima) var += (v - mean) * (v - mean);
  var /= static_cast<double>(maxima.size() - 1);
  const double stddev = std::sqrt(var);
  if (stddev < 1e-15) {
    // Degenerate (constant) maxima: the bound is the constant itself.
    return mean;
  }
  const double beta = stddev * std::numbers::sqrt3 * std::numbers::sqrt2 /
                      std::numbers::pi;  // s * sqrt(6) / pi
  const double mu = mean - kEulerMascheroni * beta;

  // Per-invocation exceedance -> per-block exceedance.
  const double block_exceedance =
      1.0 - std::pow(1.0 - exceedance_probability, block_size);
  // Gumbel quantile at probability (1 - block_exceedance).
  const double q = 1.0 - block_exceedance;
  return mu - beta * std::log(-std::log(q));
}

TimerRegistry& TimerRegistry::Instance() {
  static TimerRegistry* registry = new TimerRegistry();
  return *registry;
}

ExecutionTimer& TimerRegistry::GetOrCreate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(name, std::make_unique<ExecutionTimer>(name)).first;
    published_.Append(it->second.get());
  }
  return *it->second;
}

std::vector<const ExecutionTimer*> TimerRegistry::Timers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ExecutionTimer*> out;
  out.reserve(timers_.size());
  for (const auto& [name, timer] : timers_) out.push_back(timer.get());
  return out;
}

std::vector<std::pair<std::string, TimingStats>>
TimerRegistry::SnapshotStats() const {
  std::vector<const ExecutionTimer*> timers = Timers();
  std::vector<std::pair<std::string, TimingStats>> out;
  out.reserve(timers.size());
  for (const ExecutionTimer* timer : timers) {
    out.emplace_back(timer->name(), timer->GetStats());
  }
  return out;
}

void TimerRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, timer] : timers_) timer->Reset();
}

}  // namespace certkit::timing
