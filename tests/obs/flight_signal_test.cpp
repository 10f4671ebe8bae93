// Fatal-signal smoke test for the black box: a forked child arms the
// signal handlers, drives the instrumented pilot for a few ticks, then
// raises SIGABRT. The parent asserts that (a) the child still died *by
// SIGABRT* — arming the recorder must not change the process's
// termination status — and (b) the pre-opened fd now holds a validating
// dump whose headline names the last completed pipeline stage. The child
// runs with the wall clock on (a --timing dump), so the stage timer rows
// carry their statistics and the validator checks those too.
//
// This is the acceptance criterion of the flight-recorder PR exercised
// hermetically (the CLI-level variant is `kill -ABRT` of a running
// `certkit campaign`; see README).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "ad/pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/flight_validate.h"
#include "support/io.h"
#include "support/json.h"

namespace obs = certkit::obs;
namespace support = certkit::support;

namespace {

TEST(FlightSignal, AbortedChildLeavesValidatingDump) {
  const std::string dump_path =
      std::string(::testing::TempDir()) + "flight_signal_test_dump.json";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child. No gtest assertions here — distinct _exit codes diagnose the
    // failure mode instead (the parent expects none of them to be reached).
    obs::ResetFlightRecorderForTesting();
    obs::SetFlightWallClock(true);
    if (!obs::InstallFlightSignalHandlers(dump_path)) ::_exit(3);
    adpilot::PilotConfig cfg;
    cfg.safety.tick_deadline = 5.0;  // generous: no deadline trips wanted
    adpilot::ApolloPilot pilot(cfg);
    for (int t = 0; t < 5; ++t) pilot.Tick();
    ::raise(SIGABRT);
    ::_exit(97);  // unreachable: the handler re-raises with default action
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // The handler must preserve the kill-by-signal termination (dump, then
  // restore default disposition and re-raise) — a child that exits
  // normally means the handler swallowed the signal.
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child did not die by signal; exit status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  auto content = support::ReadFile(dump_path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  std::string error;
  ASSERT_TRUE(obs::ValidateFlightDump(content.value(), &error)) << error;

  support::JsonValue root;
  ASSERT_TRUE(support::ParseJson(content.value(), &root, &error)) << error;
  const support::JsonValue* dump = root.Find("flight_dump");
  ASSERT_NE(dump, nullptr);

  const support::JsonValue* trigger = dump->Find("trigger");
  ASSERT_NE(trigger, nullptr);
  std::string kind, name;
  ASSERT_TRUE(support::JsonGetString(*trigger, "kind", &kind, &error))
      << error;
  EXPECT_EQ(kind, "signal");
  std::int64_t signal_number = 0;
  ASSERT_TRUE(
      support::JsonGetI64(*trigger, "signal", &signal_number, &error))
      << error;
  EXPECT_EQ(signal_number, SIGABRT);
  ASSERT_TRUE(support::JsonGetString(*trigger, "name", &name, &error))
      << error;
  EXPECT_EQ(name, "SIGABRT");

  // Five full ticks completed before the abort, so the newest non-tick
  // stage_end in the rings is the pipeline's final stage.
  std::string last_stage;
  ASSERT_TRUE(support::JsonGetString(*dump, "last_completed_stage",
                                     &last_stage, &error))
      << error;
  EXPECT_EQ(last_stage, "localization");

  std::int64_t recorded = 0;
  ASSERT_TRUE(
      support::JsonGetI64(*dump, "events_recorded", &recorded, &error))
      << error;
  EXPECT_GT(recorded, 0);

  // Every stage timer the pipeline fed has a full, ordered statistics row.
  const support::JsonValue* timers = dump->Find("metrics")->Find("timers");
  ASSERT_NE(timers, nullptr);
  const support::JsonValue* tick = timers->Find("adpilot/tick");
  ASSERT_NE(tick, nullptr);
  std::int64_t count = 0;
  ASSERT_TRUE(support::JsonGetI64(*tick, "count", &count, &error)) << error;
  EXPECT_GE(count, 5);
  ASSERT_NE(tick->Find("p99_us"), nullptr);
  EXPECT_GT(tick->Find("max_us")->number, 0.0);
}

}  // namespace
