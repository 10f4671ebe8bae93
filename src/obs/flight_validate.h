// certkit obs: independent validator for flight-recorder dump JSON.
//
// Same contract as trace_validate.h: the validator shares *no* code with
// the emitter (flight_recorder.cpp hand-rolls its JSON through an
// async-signal-safe sink; this reads it back through support::ParseJson),
// so a writer bug cannot validate itself. tools/trace_lint dispatches
// here for any document whose root object has a "flight_dump" member.
//
// Checks:
//   * schema version is exactly 1;
//   * trigger is well-formed (known kind; signal triggers carry
//     signal/name);
//   * last_completed_stage / safety_state are known names;
//   * threads is an array of {ring, events}; within each thread the
//     sequence clock is strictly increasing (per-ring merge order), every
//     event has a known type, and each type carries its required fields;
//   * the metrics snapshot is well-formed: counters/gauges/timers objects
//     present; each timer row has count >= 0, and its wall-clock fields
//     (mean/min/p50/p90/p95/p99/max, in microseconds) are all present or
//     all absent — when present, finite and ordered min <= p50 <= p90 <=
//     p95 <= p99 <= max.
#ifndef CERTKIT_OBS_FLIGHT_VALIDATE_H_
#define CERTKIT_OBS_FLIGHT_VALIDATE_H_

#include <string>

namespace certkit::obs {

// Returns true when `json` is a structurally valid flight dump. On failure
// returns false and, when `error` is non-null, sets it to a diagnostic.
bool ValidateFlightDump(const std::string& json, std::string* error);

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_FLIGHT_VALIDATE_H_
