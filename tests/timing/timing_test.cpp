// Tests for the execution-time measurement and WCET estimation module: the
// fixed-memory log-linear ExecutionTimer (exact count/sum/min/max, bucket
// quantiles within the stated error of the exact nearest-rank rule,
// lock-free recording from many threads, no allocation), the nearest-rank
// rule itself, and the sample-vector pWCET fit.
#include "timing/timing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "support/alloc_counter.h"
#include "support/rng.h"

namespace certkit::timing {
namespace {

// Relative error bound of a reported quantile for samples >= 1 us: one
// bucket width (1/kSubBuckets) plus the nanosecond rounding.
constexpr double kQuantileError = 0.032;

TEST(TimerTest, StatsOnKnownSamples) {
  ExecutionTimer t("t");
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) t.Record(v);
  const TimingStats s = t.GetStats();
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_GE(s.p95, 4.0);
  EXPECT_LE(s.p95, 5.0);
}

TEST(TimerTest, QuantilesUseNearestRank) {
  // The WCET percentiles are nearest-rank by definition: the reported value
  // must be an observed sample, never an interpolation below one. For
  // samples 1..100, p95 is exactly the 95th sample and p99 the 99th.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(NearestRankQuantile(samples, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile(samples, 1.0), 100.0);

  // Small sample sets round up to the covering rank: for {1, 2},
  // ceil(0.95 * 2) = 2 -> the maximum.
  EXPECT_DOUBLE_EQ(NearestRankQuantile({1.0, 2.0}, 0.95), 2.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile({7.0}, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(NearestRankQuantile({7.0}, 0.99), 7.0);

  // A timer applies the same rank law, capped at its exact maximum: a
  // single sample reports itself at every quantile.
  ExecutionTimer one("nr_one");
  one.Record(7.0);
  EXPECT_DOUBLE_EQ(one.GetStats().p95, 7.0);
  EXPECT_DOUBLE_EQ(one.GetStats().p99, 7.0);
}

TEST(TimerTest, EmptyTimerStats) {
  ExecutionTimer t("empty");
  const TimingStats s = t.GetStats();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(t.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(t.EstimateWcetEnvelope(), 0.0);
}

TEST(TimerTest, CountOverDeadline) {
  const std::vector<double> samples = {0.05, 0.08, 0.12, 0.09, 0.15};
  EXPECT_EQ(CountOver(samples, 0.10), 2);
  EXPECT_EQ(CountOver(samples, 0.20), 0);
  EXPECT_EQ(CountOver(samples, 0.0), 5);
  EXPECT_EQ(CountOver({}, 0.0), 0);
}

TEST(TimerTest, EnvelopeWcet) {
  ExecutionTimer t("e");
  t.Record(0.10);
  t.Record(0.25);
  EXPECT_DOUBLE_EQ(t.EstimateWcetEnvelope(1.2), 0.30);
  EXPECT_DOUBLE_EQ(t.EstimateWcetEnvelope(1.0), 0.25);
}

TEST(TimerTest, NegativeSampleRejected) {
  ExecutionTimer t("n");
  EXPECT_THROW(t.Record(-0.1), support::ContractViolation);
  EXPECT_THROW(t.Record(std::numeric_limits<double>::quiet_NaN()),
               support::ContractViolation);
  EXPECT_THROW(t.Record(std::numeric_limits<double>::infinity()),
               support::ContractViolation);
  EXPECT_EQ(t.sample_count(), 0);
}

TEST(TimerTest, ResetClears) {
  ExecutionTimer t("r");
  t.Record(1.0);
  t.Reset();
  EXPECT_EQ(t.sample_count(), 0);
  EXPECT_EQ(t.sum_nanos(), 0u);
  EXPECT_DOUBLE_EQ(t.Quantile(1.0), 0.0);
  t.Record(2.0);
  EXPECT_DOUBLE_EQ(t.GetStats().min, 2.0);
  EXPECT_DOUBLE_EQ(t.GetStats().max, 2.0);
}

// Below 2 * kSubBuckets ns every value has its own bucket; above, each
// power of two splits into kSubBuckets buckets, so a bucket's width is at
// most 1/kSubBuckets of its lower edge. The buckets tile [0, 2^64) without
// gaps and every value lands in the bucket whose inclusive bounds hold it.
TEST(TimerTest, BucketLayoutIsLogLinear) {
  using T = ExecutionTimer;
  EXPECT_EQ(T::kBuckets, 1920);
  std::uint64_t lower = 0;
  for (int i = 0; i < T::kBuckets; ++i) {
    const std::uint64_t upper = T::BucketUpperNanos(i);
    ASSERT_GE(upper, lower) << i;
    EXPECT_EQ(T::BucketOf(lower), i);
    EXPECT_EQ(T::BucketOf(upper), i);
    if (i < 2 * T::kSubBuckets) {
      EXPECT_EQ(upper, lower) << i;
    } else {
      EXPECT_LE(static_cast<double>(upper - lower + 1),
                static_cast<double>(lower) / T::kSubBuckets)
          << i;
    }
    if (i + 1 < T::kBuckets) {
      EXPECT_EQ(T::BucketOf(upper + 1), i + 1);
    }
    lower = upper + 1;
  }
  EXPECT_EQ(T::BucketUpperNanos(T::kBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

// Durations past the bucket range (2^64 ns, ~584 years) clamp into the top
// bucket; the exact extrema still report them.
TEST(TimerTest, HugeSamplesClampIntoTopBucket) {
  ExecutionTimer t("huge");
  t.Record(1e6);  // the watchdog's synthetic overrun fits the range
  t.Record(1e12);
  EXPECT_EQ(t.bucket_value(ExecutionTimer::kBuckets - 1), 1);
  EXPECT_DOUBLE_EQ(t.GetStats().max, 1e12);
  EXPECT_DOUBLE_EQ(t.Quantile(1.0), 1e12);
  EXPECT_GE(t.Quantile(0.5), 1e6);
  EXPECT_LE(t.Quantile(0.5), 1e6 * (1.0 + kQuantileError));
}

// The quantile contract over a wide, log-uniform distribution: every
// reported quantile lies in [exact, exact * (1 + error)], where exact is
// the nearest-rank quantile of the raw samples; count/min/max are exact and
// the mean matches the raw mean.
TEST(TimerTest, QuantilesWithinBucketErrorOfExactNearestRank) {
  ExecutionTimer t("log_uniform");
  support::Xoshiro256 rng(2026);
  std::vector<double> samples;
  samples.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const double s = 1e-6 * std::pow(10.0, 12.0 * rng.UniformDouble());
    samples.push_back(s);
    t.Record(s);
  }
  double sum = 0.0;
  for (double s : samples) sum += s;
  std::sort(samples.begin(), samples.end());

  auto expect_within = [&samples](double reported, double q) {
    const double exact = NearestRankQuantile(samples, q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact * (1.0 + kQuantileError)) << "q=" << q;
  };
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    expect_within(t.Quantile(q), q);
  }
  const TimingStats stats = t.GetStats();
  expect_within(stats.p50, 0.50);
  expect_within(stats.p90, 0.90);
  expect_within(stats.p95, 0.95);
  expect_within(stats.p99, 0.99);
  EXPECT_EQ(stats.count, 100000);
  EXPECT_EQ(stats.min, samples.front());
  EXPECT_EQ(stats.max, samples.back());
  const double mean = sum / static_cast<double>(samples.size());
  EXPECT_NEAR(stats.mean, mean, 1e-12 * mean);
}

// Four threads record concurrently: the count, the nanosecond sum and the
// bucket total must all come out exact (TSan covers the recorder through
// this test's `concurrency` label).
TEST(TimerConcurrencyTest, CountSumAndBucketTotalExactAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  ExecutionTimer t("concurrent");
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i) {
        t.Record(static_cast<double>(1 + (i * 7 + w) % 5000) / 1e9);
      }
    });
  }
  std::uint64_t expected_sum = 0;
  for (int w = 0; w < kThreads; ++w) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<std::uint64_t>(1 + (i * 7 + w) % 5000);
    }
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(t.sample_count(), kThreads * kPerThread);
  EXPECT_EQ(t.sum_nanos(), expected_sum);
  std::int64_t bucket_total = 0;
  for (int i = 0; i < ExecutionTimer::kBuckets; ++i) {
    bucket_total += t.bucket_value(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(t.GetStats().min, 1e-9);
  EXPECT_DOUBLE_EQ(t.GetStats().max, 5000e-9);
}

// Recording is allocation-free and the footprint is fixed: a million
// records touch no heap (when the counting hooks are linked) and the
// object's size is its bucket array, independent of the sample count.
TEST(TimerTest, RecordAllocatesNothingAndFootprintIsFixed) {
  static_assert(sizeof(ExecutionTimer) <
                (ExecutionTimer::kBuckets + 64) * sizeof(std::int64_t));
  ExecutionTimer t("footprint");
  t.Record(1e-3);  // any first-touch cost lands outside the scope
  support::AllocScope scope;
  for (int i = 0; i < 1000000; ++i) {
    t.Record(static_cast<double>(i % 100000) * 1e-7);
  }
  EXPECT_EQ(t.sample_count(), 1000001);
  if (!support::AllocCountingActive()) {
    GTEST_SKIP() << "alloc hooks not linked (sanitizer build tree)";
  }
  EXPECT_EQ(scope.allocations(), 0u);
  EXPECT_EQ(scope.bytes(), 0u);
}

TEST(PwcetTest, RequiresEnoughBlocks) {
  // 15 samples, block size 10 -> only one full block.
  std::vector<double> samples(15, 0.01);
  EXPECT_FALSE(EstimatePwcet(samples, 1e-6, 10).ok());
  samples.resize(25, 0.01);
  EXPECT_TRUE(EstimatePwcet(samples, 1e-6, 10).ok());
}

TEST(PwcetTest, InvalidProbabilityRejected) {
  const std::vector<double> samples(40, 0.01);
  EXPECT_FALSE(EstimatePwcet(samples, 0.0).ok());
  EXPECT_FALSE(EstimatePwcet(samples, 1.0).ok());
  EXPECT_FALSE(EstimatePwcet(samples, 1e-6, 0).ok());
}

TEST(PwcetTest, ConstantSamplesGiveConstantBound) {
  const std::vector<double> samples(50, 0.02);
  auto bound = EstimatePwcet(samples, 1e-9, 10);
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(bound.value(), 0.02, 1e-12);
}

TEST(PwcetTest, BoundExceedsObservedMaxAndGrowsWithRarity) {
  support::Xoshiro256 rng(99);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    // Right-skewed execution times around 10 ms.
    samples.push_back(0.010 + std::abs(rng.Gaussian(0.0, 0.002)));
  }
  auto p6 = EstimatePwcet(samples, 1e-6, 10);
  auto p9 = EstimatePwcet(samples, 1e-9, 10);
  ASSERT_TRUE(p6.ok());
  ASSERT_TRUE(p9.ok());
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(p6.value(), NearestRankQuantile(sorted, 0.99));
  EXPECT_GT(p9.value(), p6.value());  // rarer exceedance -> larger bound
  // Sanity: still the same order of magnitude as the observations.
  EXPECT_LT(p9.value(), sorted.back() * 5.0);
}

TEST(ScopedTimerTest, RecordsElapsed) {
  ExecutionTimer t("s");
  {
    ScopedTimer scope(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(t.sample_count(), 1);
  EXPECT_GE(t.GetStats().max, 0.004);
}

TEST(RegistryTest, NamedTimers) {
  auto& a = TimerRegistry::Instance().GetOrCreate("stage/x");
  auto& b = TimerRegistry::Instance().GetOrCreate("stage/x");
  EXPECT_EQ(&a, &b);
  a.Record(0.5);
  bool found = false;
  for (const auto* t : TimerRegistry::Instance().Timers()) {
    if (t->name() == "stage/x") found = true;
  }
  EXPECT_TRUE(found);
  // The lock-free published view (what a fatal-signal dump walks) lists it
  // exactly once.
  const TimerRegistry::Published& published =
      TimerRegistry::Instance().published();
  int seen = 0;
  for (int i = 0; i < published.size(); ++i) seen += published[i] == &a;
  EXPECT_EQ(seen, 1);
}

}  // namespace
}  // namespace certkit::timing
