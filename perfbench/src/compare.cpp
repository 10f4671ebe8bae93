#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "harness.h"
#include "support/json.h"
#include "workloads.h"

namespace perfbench {

Spread Summarize(const std::vector<double>& values) {
  return {Quantile(values, 0.5), Quantile(values, 0.25),
          Quantile(values, 0.75)};
}

Verdict Judge(const std::vector<double>& base,
              const std::vector<double>& change, bool lower_is_better,
              double bound) {
  Verdict v;
  v.base = Summarize(base);
  v.change = Summarize(change);
  // Orient every difference so that positive means "the change is worse".
  const double sign = lower_is_better ? 1.0 : -1.0;
  const std::size_t pairs = std::min(base.size(), change.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    const double d = sign * (change[i] - base[i]);
    if (d < 0) v.wins += 1;
    if (d > 0) v.losses += 1;
  }
  v.wins /= static_cast<double>(pairs);
  v.losses /= static_cast<double>(pairs);
  v.worse_by = sign * (v.change.median - v.base.median) /
               std::fabs(v.base.median);
  const double base_iqr = v.base.q3 - v.base.q1;
  v.spread = std::max(base_iqr / std::fabs(v.base.median),
                      (v.change.q3 - v.change.q1) / std::fabs(v.change.median));
  bool every_run_better = true;
  for (double b : base) {
    for (double c : change) {
      if (sign * (c - b) >= 0) every_run_better = false;
    }
  }
  const double gain = -v.worse_by * std::fabs(v.base.median);
  if (every_run_better || (v.wins >= 0.9 && gain > base_iqr)) {
    v.verdict = "better";
  } else if (v.worse_by > bound && (v.spread <= bound || v.losses >= 0.9)) {
    v.verdict = "worse";
  } else if (v.spread > bound) {
    v.verdict = "unresolved";
  } else {
    v.verdict = "unchanged";
  }
  return v;
}

namespace {

namespace fs = std::filesystem;
using certkit::support::JsonValue;

struct RunLog {
  std::string workload;
  std::uint64_t seed = 0;
  JsonValue fingerprint;
  std::map<std::string, double> metrics;
};

bool ParseLine(const std::string& text, JsonValue* out) {
  std::string error;
  return certkit::support::ParseJson(text, out, &error);
}

// Reads one untraced run's stdout; false for traced or unreadable logs.
bool ReadRunLog(const fs::path& path, RunLog* log) {
  std::ifstream in(path);
  std::string line, last, header;
  const std::string kTag = "perfbench-run ";
  while (std::getline(in, line)) {
    if (line.rfind(kTag, 0) == 0) header = line.substr(kTag.size());
    if (!line.empty()) last = line;
  }
  JsonValue head, result;
  if (!ParseLine(header, &head) || !ParseLine(last, &result)) return false;
  const JsonValue* trace = head.Find("trace");
  const JsonValue* metrics = result.Find("metrics");
  std::string error;
  if (trace == nullptr || trace->number != 0 || metrics == nullptr ||
      !certkit::support::JsonGetString(head, "workload", &log->workload,
                                       &error) ||
      !certkit::support::JsonGetU64(head, "seed", &log->seed, &error)) {
    return false;
  }
  if (const JsonValue* fp = head.Find("fingerprint")) log->fingerprint = *fp;
  for (const auto& [name, metric] : metrics->members) {
    if (const JsonValue* value = metric.Find("value")) {
      log->metrics[name] = value->number;
    }
  }
  return true;
}

bool ReadRunSet(const std::string& dir, std::vector<RunLog>* runs) {
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "compare: cannot read %s\n", dir.c_str());
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    RunLog log;
    if (ReadRunLog(path, &log)) runs->push_back(std::move(log));
  }
  std::sort(runs->begin(), runs->end(),
            [](const RunLog& a, const RunLog& b) { return a.seed < b.seed; });
  return true;
}

// Host identity: results from different machines or builds never compare
// silently. The source revision and load average are expected to differ.
std::string HostKey(const JsonValue& fingerprint) {
  std::string key;
  for (const char* field : {"nproc", "isa", "compiler", "build_type"}) {
    const JsonValue* v = fingerprint.Find(field);
    key += v == nullptr ? "?" : certkit::support::JsonToString(*v);
    key += "|";
  }
  return key;
}

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

bool ReadBounds(const std::string& path, std::vector<Bound>* bounds) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  JsonValue doc;
  const JsonValue* metrics = nullptr;
  if (!ParseLine(text, &doc) ||
      (metrics = doc.Find("end_to_end")) == nullptr) {
    std::fprintf(stderr, "compare: cannot read bounds from %s\n",
                 path.c_str());
    return false;
  }
  for (const JsonValue& m : metrics->items) {
    Bound b;
    std::string better, error;
    if (!certkit::support::JsonGetString(m, "name", &b.name, &error) ||
        !certkit::support::JsonGetString(m, "better", &better, &error) ||
        !certkit::support::JsonGetDouble(m, "bound", &b.bound, &error)) {
      std::fprintf(stderr, "compare: %s\n", error.c_str());
      return false;
    }
    b.lower_is_better = better == "lower";
    bounds->push_back(b);
  }
  return true;
}

}  // namespace

int RunCompare(int argc, const char* const* argv) {
  std::string bounds_path;
  std::vector<std::string> dirs;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bounds" && i + 1 < argc) {
      bounds_path = argv[++i];
    } else {
      dirs.push_back(arg);
    }
  }
  std::vector<Bound> bounds;
  std::vector<RunLog> base, change;
  if (bounds_path.empty() || dirs.size() != 2) {
    std::fprintf(stderr,
                 "usage: perfbench compare --bounds BENCHMARK.json "
                 "BASE_DIR CHANGE_DIR\n");
    return 2;
  }
  if (!ReadBounds(bounds_path, &bounds) || !ReadRunSet(dirs[0], &base) ||
      !ReadRunSet(dirs[1], &change)) {
    return 2;
  }

  std::map<std::string, int> hosts;
  for (const auto* set : {&base, &change}) {
    for (const RunLog& r : *set) ++hosts[HostKey(r.fingerprint)];
  }
  if (hosts.size() > 1) {
    std::printf("not compared: host or build differs between runs\n");
    for (const auto& [key, count] : hosts) {
      std::printf("  %s (%d runs)\n", key.c_str(), count);
    }
    return 2;
  }

  // Host speed: the fingerprint's probe moves only with the machine, so a
  // gap between the sets means the host, not the change, may explain them.
  std::vector<double> probe[2];
  for (int side = 0; side < 2; ++side) {
    for (const RunLog& r : side == 0 ? base : change) {
      if (const JsonValue* v = r.fingerprint.Find("speed_probe_ms")) {
        probe[side].push_back(v->number);
      }
    }
  }
  if (!probe[0].empty() && !probe[1].empty()) {
    const double b = Median(probe[0]), c = Median(probe[1]);
    std::printf("host speed probe: base %.4g ms, change %.4g ms (%+.1f%%)%s\n",
                b, c, 100.0 * (c - b) / b,
                std::fabs(c - b) > 0.1 * b
                    ? " -- the host ran at different speeds; rerun "
                      "interleaved before trusting the verdicts"
                    : "");
  }

  std::map<std::string, std::pair<std::vector<const RunLog*>,
                                  std::vector<const RunLog*>>>
      by_workload;
  for (const RunLog& r : base) by_workload[r.workload].first.push_back(&r);
  for (const RunLog& r : change) by_workload[r.workload].second.push_back(&r);

  std::printf("%-9s %-12s %8s %23s %8s %23s %7s %5s %6s %5s  %s\n",
              "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]",
              "delta", "wins", "spread", "bound", "verdict");
  int worse = 0;
  for (const auto& [workload, sets] : by_workload) {
    if (sets.first.empty() || sets.second.empty()) {
      std::printf("%-9s missing from one side (%zu base, %zu change runs)\n",
                  workload.c_str(), sets.first.size(), sets.second.size());
      continue;
    }
    for (const Bound& b : bounds) {
      std::vector<double> bv, cv;
      for (const RunLog* r : sets.first) {
        if (r->metrics.count(b.name)) bv.push_back(r->metrics.at(b.name));
      }
      for (const RunLog* r : sets.second) {
        if (r->metrics.count(b.name)) cv.push_back(r->metrics.at(b.name));
      }
      if (bv.empty() || cv.empty()) continue;
      const Verdict v = Judge(bv, cv, b.lower_is_better, b.bound);
      if (v.verdict == "worse") ++worse;
      std::printf(
          "%-9s %-12s %8.4g [%9.4g, %9.4g] %8.4g [%9.4g, %9.4g] %+6.1f%% "
          "%5.2f %6.3f %5.2f  %s (n=%zu/%zu)\n",
          workload.c_str(), b.name.c_str(), v.base.median, v.base.q1,
          v.base.q3, v.change.median, v.change.q1, v.change.q3,
          100.0 * v.worse_by, v.wins, v.spread, b.bound, v.verdict.c_str(),
          bv.size(), cv.size());
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace perfbench
