// Flight-recorder unit tests: ring wraparound/overwrite as a property over
// the record count, headline extraction (last completed stage / safety
// state), the artifact pointer, the name tables the dump schema depends
// on, and the stage timer's bucket quantile law pinned against the timing
// layer's NearestRankQuantile (the reference over raw samples).
//
// All tests run on the gtest main thread, so every dump drains exactly one
// ring; each dump is additionally round-tripped through the independent
// validator to keep emitter and checker honest against each other.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/flight_validate.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "timing/timing.h"

namespace obs = certkit::obs;
namespace support = certkit::support;

namespace {

// Parses a dump and returns the events array of its single thread entry.
const support::JsonValue* SingleThreadEvents(const support::JsonValue& root) {
  const support::JsonValue* dump = root.Find("flight_dump");
  if (dump == nullptr) return nullptr;
  const support::JsonValue* threads = dump->Find("threads");
  if (threads == nullptr || threads->items.size() != 1) return nullptr;
  return threads->items[0].Find("events");
}

std::string ValidatedDump() {
  const std::string dump =
      obs::FlightDumpString(obs::FlightDumpTrigger::kExplicit);
  std::string error;
  EXPECT_TRUE(obs::ValidateFlightDump(dump, &error)) << error;
  return dump;
}

TEST(FlightRecorder, WraparoundKeepsNewestRecordsForAnyCount) {
  constexpr int kCap = obs::kFlightRingCapacity;
  for (const int n : {1, kCap - 1, kCap, kCap + 1, 2 * kCap + 3}) {
    obs::ResetFlightRecorderForTesting();
    for (int i = 0; i < n; ++i) {
      obs::RecordFlightEvent(obs::FlightEventType::kStageBegin,
                             static_cast<std::uint32_t>(obs::FlightStage::kTick),
                             0, /*c=*/i);
    }
    const auto stats = obs::GetFlightRecorderStats();
    EXPECT_EQ(stats.events, n) << "n=" << n;
    EXPECT_EQ(stats.dropped, 0) << "n=" << n;
    EXPECT_EQ(stats.ring_capacity, kCap);

    support::JsonValue root;
    std::string error;
    ASSERT_TRUE(support::ParseJson(ValidatedDump(), &root, &error)) << error;
    const support::JsonValue* events = SingleThreadEvents(root);
    ASSERT_NE(events, nullptr) << "n=" << n;

    // The ring keeps exactly the newest min(n, capacity) records, in
    // strictly increasing sequence order, ending at the global count.
    const int expect = n < kCap ? n : kCap;
    ASSERT_EQ(static_cast<int>(events->items.size()), expect) << "n=" << n;
    std::uint64_t prev = 0;
    for (const support::JsonValue& e : events->items) {
      std::uint64_t seq = 0;
      ASSERT_TRUE(support::JsonGetU64(e, "seq", &seq, &error)) << error;
      EXPECT_GT(seq, prev);
      prev = seq;
    }
    EXPECT_EQ(prev, static_cast<std::uint64_t>(n)) << "n=" << n;
    // The oldest surviving record is n - expect events in: tick index c
    // confirms overwrite discarded exactly the front of the stream.
    std::int64_t first_tick = -1;
    ASSERT_TRUE(support::JsonGetI64(events->items[0], "tick", &first_tick,
                                    &error))
        << error;
    EXPECT_EQ(first_tick, n - expect) << "n=" << n;
  }
}

TEST(FlightRecorder, HeadlineNamesLastCompletedNonTickStage) {
  obs::ResetFlightRecorderForTesting();
  const auto end = [](obs::FlightStage stage) {
    obs::RecordFlightEvent(obs::FlightEventType::kStageEnd,
                           static_cast<std::uint32_t>(stage), 0, 7);
  };
  end(obs::FlightStage::kScenario);
  end(obs::FlightStage::kPlanning);
  end(obs::FlightStage::kTick);  // excluded: "the tick ended" names nothing

  support::JsonValue root;
  std::string error;
  ASSERT_TRUE(support::ParseJson(ValidatedDump(), &root, &error)) << error;
  const support::JsonValue* dump = root.Find("flight_dump");
  std::string stage, state;
  ASSERT_TRUE(support::JsonGetString(*dump, "last_completed_stage", &stage,
                                     &error))
      << error;
  EXPECT_EQ(stage, "planning");
  ASSERT_TRUE(support::JsonGetString(*dump, "safety_state", &state, &error))
      << error;
  EXPECT_EQ(state, "nominal");  // no transition recorded -> default
}

TEST(FlightRecorder, HeadlineTracksLatestSafetyTransition) {
  obs::ResetFlightRecorderForTesting();
  // nominal -> limp_home -> safe_stop -> (recovery) limp_home.
  obs::RecordFlightEvent(obs::FlightEventType::kSafetyTransition, 1, 0, 1);
  obs::RecordFlightEvent(obs::FlightEventType::kSafetyTransition, 2, 1, 2);
  obs::RecordFlightEvent(obs::FlightEventType::kSafetyTransition, 1, 2, 3);

  support::JsonValue root;
  std::string error;
  ASSERT_TRUE(support::ParseJson(ValidatedDump(), &root, &error)) << error;
  std::string state;
  ASSERT_TRUE(support::JsonGetString(*root.Find("flight_dump"), "safety_state",
                                     &state, &error))
      << error;
  EXPECT_EQ(state, "limp_home");
}

TEST(FlightRecorder, DumpCarriesArtifactPointer) {
  obs::ResetFlightRecorderForTesting();
  obs::RecordFlightEvent(obs::FlightEventType::kCandidateKept, 0, 0, 42);
  obs::SetFlightArtifactPath("artifacts/candidate_42.json");

  support::JsonValue root;
  std::string error;
  ASSERT_TRUE(support::ParseJson(ValidatedDump(), &root, &error)) << error;
  std::string artifact;
  ASSERT_TRUE(support::JsonGetString(*root.Find("flight_dump"), "artifact",
                                     &artifact, &error))
      << error;
  EXPECT_EQ(artifact, "artifacts/candidate_42.json");
}

TEST(FlightRecorder, DisabledRecorderDropsNothingAndCountsNothing) {
  obs::ResetFlightRecorderForTesting();
  obs::SetFlightRecorderEnabled(false);
  obs::RecordFlightEvent(obs::FlightEventType::kStageBegin, 0, 0, 0);
  EXPECT_EQ(obs::GetFlightRecorderStats().events, 0);
  EXPECT_EQ(obs::GetFlightRecorderStats().dropped, 0);
  obs::SetFlightRecorderEnabled(true);
  EXPECT_TRUE(obs::FlightRecorderEnabled());
  obs::RecordFlightEvent(obs::FlightEventType::kStageBegin, 0, 0, 0);
  EXPECT_EQ(obs::GetFlightRecorderStats().events, 1);
}

// The stage/state/monitor name tables are duplicated from the adpilot layer
// (obs cannot depend on it); these pins are what keeps the copies honest.
TEST(FlightRecorder, NameTablesArePinned) {
  EXPECT_STREQ(obs::FlightStageName(0), "tick");
  EXPECT_STREQ(obs::FlightStageName(1), "scenario");
  EXPECT_STREQ(obs::FlightStageName(2), "perception");
  EXPECT_STREQ(obs::FlightStageName(3), "prediction");
  EXPECT_STREQ(obs::FlightStageName(4), "planning");
  EXPECT_STREQ(obs::FlightStageName(5), "control");
  EXPECT_STREQ(obs::FlightStageName(6), "safety");
  EXPECT_STREQ(obs::FlightStageName(7), "canbus");
  EXPECT_STREQ(obs::FlightStageName(8), "localization");
  EXPECT_STREQ(obs::FlightStageName(9), "unknown");

  EXPECT_STREQ(obs::FlightSafetyStateName(0), "nominal");
  EXPECT_STREQ(obs::FlightSafetyStateName(1), "limp_home");
  EXPECT_STREQ(obs::FlightSafetyStateName(2), "safe_stop");
  EXPECT_STREQ(obs::FlightSafetyStateName(3), "unknown");

  EXPECT_STREQ(obs::FlightMonitorName(0), "range");
  EXPECT_STREQ(obs::FlightMonitorName(1), "plausibility");
  EXPECT_STREQ(obs::FlightMonitorName(2), "deadline");
  EXPECT_STREQ(obs::FlightMonitorName(3), "control_flow");
  EXPECT_STREQ(obs::FlightMonitorName(4), "command");
  EXPECT_STREQ(obs::FlightMonitorName(5), "can_bus");
  EXPECT_STREQ(obs::FlightMonitorName(6), "unknown");

  EXPECT_STREQ(obs::FlightEventTypeName(1), "stage_begin");
  EXPECT_STREQ(obs::FlightEventTypeName(4), "safety_state");
  EXPECT_STREQ(obs::FlightEventTypeName(9), "serve_end");
  EXPECT_STREQ(obs::FlightEventTypeName(0), "unknown");
}

// --- quantiles -----------------------------------------------------------

// ExecutionTimer::Quantile obeys the same nearest-rank law as the timing
// layer's NearestRankQuantile. When every recorded sample sits exactly on
// a bucket upper bound, the bucketed quantile must equal the exact one.
TEST(HistogramQuantile, MatchesNearestRankOnBucketBounds) {
  using certkit::timing::ExecutionTimer;
  ExecutionTimer t("flight_test/bounds");
  std::vector<double> samples;
  // Bounds of four buckets spread over three decades, uneven occupancy on
  // purpose: 3x, 2x, 4x, 1x.
  const int counts[] = {3, 2, 4, 1};
  const std::uint64_t near_ns[] = {900, 40000, 2000000, 70000000};
  for (int b = 0; b < 4; ++b) {
    const double bound = static_cast<double>(ExecutionTimer::BucketUpperNanos(
                             ExecutionTimer::BucketOf(near_ns[b]))) /
                         1e9;
    for (int i = 0; i < counts[b]; ++i) samples.push_back(bound);
  }
  for (double v : samples) t.Record(v);

  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(t.Quantile(q),
                     certkit::timing::NearestRankQuantile(samples, q))
        << "q=" << q;
  }
}

// There is no overflow bucket: the range ends at 2^64 - 1 ns and every
// quantile is capped at the exact maximum, so the top quantile of a timer
// is its high-water mark, never +inf.
TEST(HistogramQuantile, TopQuantileIsTheExactMaximum) {
  certkit::timing::ExecutionTimer t("flight_test/top");
  t.Record(0.5e-3);
  t.Record(1e6);    // a synthetic overrun
  t.Record(123.4);  // inside a wide bucket: its upper bound is above it
  EXPECT_DOUBLE_EQ(t.Quantile(1.0), 1e6);
  EXPECT_TRUE(std::isfinite(t.Quantile(1.0)));
  EXPECT_GE(t.Quantile(0.5), 123.4);
  EXPECT_LT(t.Quantile(0.5), 123.4 * 1.032);
}

TEST(HistogramQuantile, EmptyHistogramReportsZero) {
  certkit::timing::ExecutionTimer t("flight_test/empty");
  EXPECT_DOUBLE_EQ(t.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(t.GetStats().min, 0.0);
  EXPECT_DOUBLE_EQ(t.GetStats().max, 0.0);
}

// The free-function rule over raw samples and the member rule over
// buckets agree exactly when each sample is a whole number of nanoseconds
// in a one-nanosecond bucket (below 2 * kSubBuckets ns), and the stats
// quantiles are the member's.
TEST(HistogramQuantile, FreeFunctionMatchesMember) {
  certkit::timing::ExecutionTimer t("flight_test/member");
  std::vector<double> samples;
  for (int ns : {5, 9, 9, 17, 33, 40, 41, 63}) {
    samples.push_back(static_cast<double>(ns) / 1e9);
    t.Record(samples.back());
  }
  for (const double q : {0.01, 0.2, 0.5, 0.8, 1.0}) {
    EXPECT_DOUBLE_EQ(certkit::timing::NearestRankQuantile(samples, q),
                     t.Quantile(q))
        << "q=" << q;
  }
  const certkit::timing::TimingStats stats = t.GetStats();
  EXPECT_DOUBLE_EQ(stats.p50, t.Quantile(0.50));
  EXPECT_DOUBLE_EQ(stats.p90, t.Quantile(0.90));
  EXPECT_DOUBLE_EQ(stats.p95, t.Quantile(0.95));
  EXPECT_DOUBLE_EQ(stats.p99, t.Quantile(0.99));
}

// MetricsJson and the flight dump keep timer quantiles behind
// include_timing: they are wall-clock-derived, so a timing-off export must
// not leak them (the determinism contract other tests diff against).
TEST(HistogramQuantile, MetricsJsonGatesQuantilesBehindTiming) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetAll();
  auto& timer = certkit::timing::TimerRegistry::Instance().GetOrCreate(
      "flight_test/gating");
  timer.Reset();
  timer.Record(1.5);

  const std::string without = obs::MetricsJson(registry.Snapshot(), false);
  EXPECT_NE(without.find("\"flight_test/gating\":{\"count\":1}"),
            std::string::npos);
  EXPECT_EQ(without.find("\"p50_us\""), std::string::npos);

  const std::string with = obs::MetricsJson(registry.Snapshot(), true);
  EXPECT_NE(with.find("\"p50_us\""), std::string::npos);
  EXPECT_NE(with.find("\"p90_us\""), std::string::npos);
  EXPECT_NE(with.find("\"p99_us\""), std::string::npos);

  // The flight dump carries the same timer row, gated the same way.
  std::string error;
  obs::SetFlightWallClock(false);
  const std::string lean_dump =
      obs::FlightDumpString(obs::FlightDumpTrigger::kExplicit);
  EXPECT_TRUE(obs::ValidateFlightDump(lean_dump, &error)) << error;
  EXPECT_NE(lean_dump.find("\"flight_test/gating\":{\"count\":1}"),
            std::string::npos);
  obs::SetFlightWallClock(true);
  const std::string full_dump =
      obs::FlightDumpString(obs::FlightDumpTrigger::kExplicit);
  obs::SetFlightWallClock(false);
  EXPECT_TRUE(obs::ValidateFlightDump(full_dump, &error)) << error;
  EXPECT_NE(full_dump.find("\"p50_us\""), std::string::npos);
}

}  // namespace
