// trace_lint — standalone validator for certkit's observability exports.
//
//   trace_lint <file.json> [more.json ...]
//
// Two document kinds, dispatched on the root key:
//
//  * Chrome trace-event exports ({"traceEvents": [...]}): checked against
//    the subset certkit emits (see DESIGN.md) — events are either "X"
//    (complete, with integer ts >= 0 and dur >= 1) or "M" (metadata), plus
//    the structural invariant the logical clock guarantees — within one
//    tid, span intervals either nest or are disjoint; a partial overlap
//    means the exporter's sequence clock is broken.
//
//  * Flight-recorder dumps ({"flight_dump": {...}}): schema version,
//    well-formed trigger, per-thread event ordering strictly monotone in
//    the sequence clock, known event/stage/monitor/state vocabulary, and a
//    well-formed metrics snapshot (bucket arrays of length bounds+1 that
//    sum to the count; quantiles numeric or "+inf").
//
// The document is parsed once with support::ParseJson to pick the
// validator: a root object with a "flight_dump" member is a flight dump,
// anything else is checked as a trace. A parse error (including nesting
// deeper than the parser's 64-level cap) is reported as INVALID. Neither
// validator shares code with its emitter, so emitter bugs cannot hide.
//
// Exit status: 0 when every file validates, 1 otherwise (CI-friendly).
#include <cstdio>
#include <string>

#include "obs/flight_validate.h"
#include "obs/trace_validate.h"
#include "support/io.h"
#include "support/json.h"

namespace obs = certkit::obs;
namespace support = certkit::support;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: trace_lint <file.json> [more.json ...]\n");
    return 1;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    auto content = support::ReadFile(argv[i]);
    if (!content.ok()) {
      std::printf("%s: error: %s\n", argv[i],
                  content.status().ToString().c_str());
      ++failures;
      continue;
    }
    support::JsonValue root;
    std::string error;
    if (!support::ParseJson(content.value(), &root, &error)) {
      std::printf("%s: INVALID: parse error: %s\n", argv[i], error.c_str());
      ++failures;
      continue;
    }
    const bool is_flight = root.Find("flight_dump") != nullptr;
    const bool ok = is_flight
                        ? obs::ValidateFlightDump(content.value(), &error)
                        : obs::ValidateChromeTrace(content.value(), &error);
    if (ok) {
      std::printf("%s: OK (%s, %zu bytes)\n", argv[i],
                  is_flight ? "flight dump" : "trace", content.value().size());
    } else {
      std::printf("%s: INVALID: %s\n", argv[i], error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
