// Unit tests for the obs layer: the logical span clock, capture isolation,
// the metrics primitives (counter/gauge edge cases, the stage timer a Span
// feeds), and the Chrome trace-event exporter against its independent
// validator.
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "support/check.h"
#include "support/json.h"
#include "timing/timing.h"

namespace certkit::obs {
namespace {

// Every test that enables tracing restores the global switch so test order
// never matters.
class TracingGuard {
 public:
  TracingGuard() { SetTracingEnabled(true); }
  ~TracingGuard() { SetTracingEnabled(false); }
};

TEST(SpanCaptureTest, LogicalClockNestsExactly) {
  TracingGuard guard;
  SpanCapture capture;
  {
    Span outer("outer", "t");
    { Span inner("inner", "t"); }
  }
  const auto events = capture.Take();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete inner-first; the clock ticks once per begin and per end.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].ts, 1);
  EXPECT_EQ(events[0].dur, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].ts, 0);
  EXPECT_EQ(events[1].dur, 3);
  // The child's interval lies strictly inside the parent's.
  EXPECT_GT(events[0].ts, events[1].ts);
  EXPECT_LT(events[0].ts + events[0].dur, events[1].ts + events[1].dur);
}

TEST(SpanCaptureTest, SequentialSpansAreDisjoint) {
  TracingGuard guard;
  SpanCapture capture;
  { Span a("a", "t"); }
  { Span b("b", "t"); }
  const auto events = capture.Take();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 0);
  EXPECT_EQ(events[0].dur, 1);
  EXPECT_EQ(events[1].ts, 2);
  EXPECT_EQ(events[1].dur, 1);
}

TEST(SpanCaptureTest, EachCaptureClockStartsAtZero) {
  TracingGuard guard;
  {
    SpanCapture first;
    { Span a("a", "t"); }
    EXPECT_EQ(first.Take()[0].ts, 0);
  }
  {
    SpanCapture second;
    { Span b("b", "t"); }
    // A fresh capture restarts at 0 no matter what ran before.
    EXPECT_EQ(second.Take()[0].ts, 0);
  }
}

TEST(SpanCaptureTest, InnerCaptureShadowsOuter) {
  TracingGuard guard;
  SpanCapture outer;
  { Span a("outer-span", "t"); }
  {
    SpanCapture inner;
    { Span b("inner-span", "t"); }
    const auto inner_events = inner.Take();
    ASSERT_EQ(inner_events.size(), 1u);
    EXPECT_EQ(inner_events[0].name, "inner-span");
    EXPECT_EQ(inner_events[0].ts, 0);
  }
  { Span c("outer-span-2", "t"); }
  const auto outer_events = outer.Take();
  ASSERT_EQ(outer_events.size(), 2u);
  EXPECT_EQ(outer_events[0].name, "outer-span");
  EXPECT_EQ(outer_events[1].name, "outer-span-2");
}

TEST(SpanCaptureTest, CapturesArePerThread) {
  TracingGuard guard;
  SpanCapture main_capture;
  std::vector<SpanEvent> worker_events;
  std::thread worker([&worker_events] {
    SpanCapture capture;
    { Span w("worker-span", "t"); }
    worker_events = capture.Take();
  });
  worker.join();
  ASSERT_EQ(worker_events.size(), 1u);
  EXPECT_EQ(worker_events[0].name, "worker-span");
  EXPECT_EQ(worker_events[0].ts, 0);
  // Nothing leaked into the main thread's capture.
  EXPECT_TRUE(main_capture.Take().empty());
}

TEST(SpanCaptureTest, WorkerWithoutCaptureRecordsNothing) {
  TracingGuard guard;
  SpanCapture main_capture;
  std::thread worker([] {
    Span w("uncaptured", "t");  // no capture on this thread: inert
  });
  worker.join();
  EXPECT_TRUE(main_capture.Take().empty());
}

TEST(SpanTest, InertWhenTracingDisabled) {
  SetTracingEnabled(false);
  SpanCapture capture;
  { Span a("a", "t"); }
  EXPECT_TRUE(capture.Take().empty());
}

// The timer is the stage's one duration sink: its exact count and its
// histogram buckets both take the sample, with or without a capture.
TEST(SpanTest, FeedsTimerAndHistogramEvenWithoutCapture) {
  SetTracingEnabled(false);
  auto& timer =
      timing::TimerRegistry::Instance().GetOrCreate("obs_test/span_timer");
  timer.Reset();
  { Span a("a", "t", &timer); }
  EXPECT_EQ(timer.GetStats().count, 1);
  std::int64_t bucket_total = 0;
  for (int i = 0; i < timing::ExecutionTimer::kBuckets; ++i) {
    bucket_total += timer.bucket_value(i);
  }
  EXPECT_EQ(bucket_total, 1);
}

TEST(TraceRecorderTest, TrackIdsAreDenseInCallOrder) {
  TraceRecorder& recorder = TraceRecorder::Instance();
  recorder.Clear();
  EXPECT_EQ(recorder.AddTrack("first", {}), 0);
  EXPECT_EQ(recorder.AddTrack("second", {}), 1);
  const auto tracks = recorder.Snapshot();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].label, "first");
  EXPECT_EQ(tracks[1].label, "second");
  EXPECT_EQ(recorder.track_count(), 2);
  recorder.Clear();
  EXPECT_EQ(recorder.track_count(), 0);
}

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetValueReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

// The stage timer's buckets have inclusive upper bounds in whole
// nanoseconds: a duration exactly on a bound stays in that bucket, the
// next nanosecond opens the next one.
TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  using timing::ExecutionTimer;
  ExecutionTimer t("obs_test/bounds");
  const int bucket = ExecutionTimer::BucketOf(1000000);  // 1 ms
  const std::uint64_t upper = ExecutionTimer::BucketUpperNanos(bucket);
  t.Record(static_cast<double>(upper) / 1e9);      // on the bound
  t.Record(static_cast<double>(upper - 1) / 1e9);  // inside
  t.Record(static_cast<double>(upper + 1) / 1e9);  // just above
  EXPECT_EQ(t.bucket_value(bucket), 2);
  EXPECT_EQ(t.bucket_value(bucket + 1), 1);
  EXPECT_EQ(t.sample_count(), 3);
  EXPECT_DOUBLE_EQ(t.Quantile(0.5), static_cast<double>(upper) / 1e9);
}

// The first bucket is exactly 0 ns: negative zero lands there beside a
// zero duration. A truly negative duration is a clock fault and is refused
// before it reaches any bucket.
TEST(HistogramTest, NegativeSamplesLandInFirstBucket) {
  timing::ExecutionTimer t("obs_test/first_bucket");
  EXPECT_EQ(timing::ExecutionTimer::BucketUpperNanos(0), 0u);
  t.Record(-0.0);
  t.Record(0.0);
  EXPECT_THROW(t.Record(-5.0), support::ContractViolation);
  EXPECT_EQ(t.bucket_value(0), 2);
  EXPECT_EQ(t.sample_count(), 2);
  EXPECT_EQ(t.GetStats().min, 0.0);
  EXPECT_EQ(t.sum_nanos(), 0u);
}

// NaN and infinite durations never count: count, sum, extrema and every
// bucket are as they were before the attempt.
TEST(HistogramTest, NonFiniteSamplesAreDroppedEntirely) {
  timing::ExecutionTimer t("obs_test/non_finite");
  EXPECT_THROW(t.Record(std::numeric_limits<double>::quiet_NaN()),
               support::ContractViolation);
  EXPECT_THROW(t.Record(std::numeric_limits<double>::infinity()),
               support::ContractViolation);
  EXPECT_THROW(t.Record(-std::numeric_limits<double>::infinity()),
               support::ContractViolation);
  EXPECT_EQ(t.sample_count(), 0);
  EXPECT_EQ(t.sum_nanos(), 0u);
  EXPECT_EQ(t.GetStats().max, 0.0);
  for (int i = 0; i < timing::ExecutionTimer::kBuckets; ++i) {
    EXPECT_EQ(t.bucket_value(i), 0) << i;
  }
}

TEST(HistogramTest, SumMinMaxAndReset) {
  timing::ExecutionTimer t("obs_test/sum");
  t.Record(1.0);
  t.Record(4.0);
  t.Record(2.0);
  const timing::TimingStats stats = t.GetStats();
  EXPECT_EQ(stats.count, 3);
  EXPECT_EQ(t.sum_nanos(), 7000000000u);
  EXPECT_EQ(stats.min, 1.0);
  EXPECT_EQ(stats.max, 4.0);
  t.Reset();
  EXPECT_EQ(t.GetStats().count, 0);
  EXPECT_EQ(t.GetStats().min, 0.0);
  EXPECT_EQ(t.GetStats().max, 0.0);
}

TEST(MetricsRegistryTest, ReferencesSurviveResetAll) {
  auto& registry = MetricsRegistry::Instance();
  Counter& c = registry.GetCounter("obs_test/stable_ref");
  c.Add(7);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0);  // zeroed, not invalidated
  c.Add(1);
  EXPECT_EQ(registry.GetCounter("obs_test/stable_ref").value(), 1);
}

TEST(MetricsJsonTest, TimingFieldsAreGated) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("obs_test/json_counter").Add(3);
  auto& timer = timing::TimerRegistry::Instance().GetOrCreate(
      "obs_test/json_timer");
  timer.Reset();
  timer.Record(0.5);
  const auto snapshot = registry.Snapshot();
  const std::string lean = MetricsJson(snapshot, /*include_timing=*/false);
  EXPECT_NE(lean.find("\"obs_test/json_counter\":3"), std::string::npos);
  EXPECT_NE(lean.find("\"obs_test/json_timer\":{\"count\":1}"),
            std::string::npos);
  EXPECT_EQ(lean.find("\"mean_us\""), std::string::npos);
  const std::string full = MetricsJson(snapshot, /*include_timing=*/true);
  EXPECT_NE(full.find("\"mean_us\""), std::string::npos);
  EXPECT_NE(full.find("\"max_us\":500000.000"), std::string::npos);
}

// Metric names are written as JSON strings: a quote, a backslash or a
// control character in a name must survive the export → parse round trip
// for every metric kind, not break the document.
TEST(MetricsJsonTest, NamesAreEscaped) {
  const std::string name = "a\"b\\c\x01";
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter(name).Add(2);
  registry.GetGauge(name).Set(1.5);
  timing::TimerRegistry::Instance().GetOrCreate(name).Record(0.5);

  support::JsonValue doc;
  std::string error;
  ASSERT_TRUE(support::ParseJson(MetricsJson(registry.Snapshot(), true), &doc,
                                 &error))
      << error;
  const support::JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* kind : {"counters", "gauges", "timers"}) {
    const support::JsonValue* group = metrics->Find(kind);
    ASSERT_NE(group, nullptr) << kind;
    EXPECT_NE(group->Find(name), nullptr) << kind << " lost the name";
  }
}

TEST(ChromeTraceJsonTest, ExportValidatesWithAndWithoutTiming) {
  TracingGuard guard;
  SpanCapture capture;
  {
    Span outer("outer", "t");
    { Span inner("inner \"quoted\"\n", "t"); }  // exercises escaping
  }
  std::vector<TraceTrack> tracks;
  tracks.push_back(TraceTrack{"track \\0", capture.Take()});
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson(tracks, false), &error))
      << error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson(tracks, true), &error))
      << error;
}

TEST(ChromeTraceJsonTest, EmptyTrackListStillValidates) {
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson({}, false), &error))
      << error;
}

TEST(TraceValidateTest, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\":[", &error));
  EXPECT_FALSE(ValidateChromeTrace("not json at all", &error));
  EXPECT_FALSE(ValidateChromeTrace("{\"noTraceEvents\":[]}", &error));

  // 200k-deep nesting inside traceEvents: a recursive reader without a
  // depth cap overflows the stack here; the shared parser stops at its cap.
  constexpr int kDepth = 200000;
  const std::string deep = "{\"traceEvents\":" + std::string(kDepth, '[') +
                           std::string(kDepth, ']') + "}";
  error.clear();
  EXPECT_FALSE(ValidateChromeTrace(deep, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(TraceValidateTest, DistinguishesMalformedNumbersFromOutOfRange) {
  // Regression for the numeric-literal path: the validator converts with
  // std::from_chars (no exceptions, no locale), and a syntactically broken
  // literal must produce a different diagnosis than a well-formed one that
  // overflows a double — "1.2.3" is a formatting bug in an exporter,
  // "1e999" is a value bug, and a triager needs to know which.
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1.2.3,"
      "\"dur\":1,\"pid\":0,\"tid\":0}]}",
      &error));
  EXPECT_NE(error.find("malformed number"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1e999,"
      "\"dur\":1,\"pid\":0,\"tid\":0}]}",
      &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // Dangling exponents and double signs are malformed, not out of range.
  error.clear();
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\":[{\"ts\":1e}]}", &error));
  EXPECT_NE(error.find("malformed number"), std::string::npos) << error;
}

TEST(TraceValidateTest, RejectsSchemaViolations) {
  std::string error;
  // Missing name.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"dur\":1,"
      "\"pid\":0,\"tid\":0}]}",
      &error));
  // Zero duration on a complete event.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":0,"
      "\"pid\":0,\"tid\":0}]}",
      &error));
  // Negative timestamp.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":-1,\"dur\":1,"
      "\"pid\":0,\"tid\":0}]}",
      &error));
  // Timestamp beyond the exact-integer range of a double.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1e300,"
      "\"dur\":1,\"pid\":0,\"tid\":0}]}",
      &error));
  // Unsupported phase.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Q\",\"pid\":0,"
      "\"tid\":0}]}",
      &error));
  // Metadata event without args.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
      "\"tid\":0}]}",
      &error));
}

TEST(TraceValidateTest, RejectsPartiallyOverlappingSpans) {
  // [0, 2) and [1, 3) on the same tid partially overlap — a logical-clock
  // bug the validator must catch even though each event is well-formed.
  TraceTrack track;
  track.label = "bad";
  track.events.push_back(SpanEvent{"a", "t", 0, 2, 0.0});
  track.events.push_back(SpanEvent{"b", "t", 1, 2, 0.0});
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(ChromeTraceJson({track}, false), &error));
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;
}

TEST(TraceValidateTest, AcceptsSameTidOnDifferentTracksIndependently) {
  // Disjoint and nested intervals are both fine. A span named like the
  // flight-dump root key is still an ordinary trace span.
  TraceTrack track;
  track.label = "good";
  track.events.push_back(SpanEvent{"child", "t", 1, 1, 0.0});
  track.events.push_back(SpanEvent{"parent", "t", 0, 3, 0.0});
  track.events.push_back(SpanEvent{"later", "t", 4, 2, 0.0});
  track.events.push_back(SpanEvent{"flight_dump", "t", 7, 1, 0.0});
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson({track}, false), &error))
      << error;
}

}  // namespace
}  // namespace certkit::obs
