#include "obs/trace_validate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "support/json.h"

namespace certkit::obs {

namespace {

using support::JsonValue;

// An integral number of magnitude at most 2^53 (every such value is exact
// in a double). The bound comes first: converting a double outside the
// int64 range to an integer is undefined behaviour, and ts + dur of two
// bounded values still fits.
bool IsInt(const JsonValue* v) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  return v != nullptr && v->kind == JsonValue::Kind::kNumber &&
         std::fabs(v->number) <= kMaxExact &&
         v->number == std::trunc(v->number);
}

bool EventError(std::size_t index, const std::string& what,
                std::string* error) {
  *error = "event " + std::to_string(index) + ": " + what;
  return false;
}

struct Interval {
  std::int64_t begin;
  std::int64_t end;  // exclusive
};

bool CheckEvents(const std::vector<JsonValue>& events, std::string* error) {
  std::map<std::int64_t, std::vector<Interval>> by_tid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& ev = events[i];
    if (ev.kind != JsonValue::Kind::kObject) {
      return EventError(i, "not an object", error);
    }
    const JsonValue* name = ev.Find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      return EventError(i, "missing string \"name\"", error);
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string.size() != 1) {
      return EventError(i, "missing one-char string \"ph\"", error);
    }
    for (const char* key : {"pid", "tid"}) {
      if (!IsInt(ev.Find(key))) {
        return EventError(i, std::string("missing integer \"") + key + "\"",
                          error);
      }
    }
    if (ph->string == "M") {
      const JsonValue* args = ev.Find("args");
      if (args == nullptr || args->kind != JsonValue::Kind::kObject) {
        return EventError(i, "metadata event without \"args\" object", error);
      }
      continue;
    }
    if (ph->string == "X") {
      const JsonValue* ts = ev.Find("ts");
      const JsonValue* dur = ev.Find("dur");
      if (!IsInt(ts) || ts->number < 0) {
        return EventError(i, "X event needs integer ts >= 0", error);
      }
      if (!IsInt(dur) || dur->number < 1) {
        return EventError(i, "X event needs integer dur >= 1", error);
      }
      const auto tid = static_cast<std::int64_t>(ev.Find("tid")->number);
      by_tid[tid].push_back(
          Interval{static_cast<std::int64_t>(ts->number),
                   static_cast<std::int64_t>(ts->number + dur->number)});
      continue;
    }
    return EventError(i, "unsupported phase \"" + ph->string + "\"", error);
  }

  // Nesting check per tid: sorted by (begin, -length), a stack of enclosing
  // intervals must always contain the next one or be disjoint from it.
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& iv : intervals) {
      while (!stack.empty() && stack.back().end <= iv.begin) {
        stack.pop_back();
      }
      if (!stack.empty() && iv.end > stack.back().end) {
        std::ostringstream msg;
        msg << "tid " << tid << ": span [" << iv.begin << "," << iv.end
            << ") partially overlaps [" << stack.back().begin << ","
            << stack.back().end << ")";
        *error = msg.str();
        return false;
      }
      stack.push_back(iv);
    }
  }
  return true;
}

}  // namespace

bool ValidateChromeTrace(const std::string& json, std::string* error) {
  JsonValue root;
  if (!support::ParseJson(json, &root, error)) return false;

  const std::vector<JsonValue>* events = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    events = &root.items;
  } else if (root.kind == JsonValue::Kind::kObject) {
    const JsonValue* te = root.Find("traceEvents");
    if (te == nullptr || te->kind != JsonValue::Kind::kArray) {
      *error = "top-level object has no \"traceEvents\" array";
      return false;
    }
    events = &te->items;
  } else {
    *error = "top level is neither an object nor an array";
    return false;
  }
  return CheckEvents(*events, error);
}

}  // namespace certkit::obs
