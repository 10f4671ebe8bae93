// certkit obs: structural validation of exported Chrome trace-event JSON.
//
// The exporter (ChromeTraceJson) and this validator share no code: the
// exporter writes through an ostringstream and support::JsonEscape and
// never parses, while the validator reads the bytes back through
// support::ParseJson (as flight_validate does) and checks the trace-event
// schema plus the invariants our logical clock guarantees, so a formatting
// or sequencing bug in the exporter cannot hide. The shared parser caps
// nesting at 64 levels, so a hostile deeply nested file is a "nesting too
// deep" diagnosis, not a stack overflow. tools/trace_lint wraps this for
// CI; the obs tests run it on every export they produce.
//
// Accepted shape (the subset of the trace-event format certkit emits, which
// chrome://tracing and Perfetto both load):
//   * top level: an object with a "traceEvents" array, or a bare array,
//     nested at most 64 levels deep;
//   * strings \u-escape code points up to 0xFF only (JsonEscape escapes
//     control characters and nothing else);
//   * every event: an object with string "name" and "ph", integer "pid"
//     and "tid" (integers are integral numbers of magnitude <= 2^53);
//   * "X" (complete) events: integer "ts" and "dur" with ts >= 0, dur >= 1;
//   * "M" (metadata) events: an "args" object;
//   * per tid, "X" events must be properly nested — any two intervals are
//     disjoint or one contains the other (partial overlap would render as
//     a corrupted stack and indicates a logical-clock bug).
#ifndef CERTKIT_OBS_TRACE_VALIDATE_H_
#define CERTKIT_OBS_TRACE_VALIDATE_H_

#include <string>

namespace certkit::obs {

// Returns true when `json` is a well-formed trace-event document per the
// rules above; otherwise false with a one-line diagnosis in *error.
bool ValidateChromeTrace(const std::string& json, std::string* error);

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_TRACE_VALIDATE_H_
