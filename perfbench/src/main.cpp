// perfbench: the certkit benchmark program.
//
//   perfbench run --workload drive|assess|campaign --seed N --seconds S
//                 --trace 0|1 [--references FILE] [--source-rev REV]
//   perfbench reference --workload W --seed N   (prints a references line)
//   perfbench compare --bounds BENCHMARK.json BASE_DIR CHANGE_DIR
//   perfbench selftest
//
// `run` prints a header line, the human-readable metrics, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}; it exits
// nonzero when any output fails its reference check. With --trace 1 the
// JSON metrics are the per-layer metrics of every workload and the loop's
// own end-to-end figures are printed above them.
#include <cinttypes>
#include <cstdlib>
#include <cstdio>
#include <string>

#include "support/flags.h"
#include "workloads.h"

namespace perfbench {

std::vector<std::uint64_t> ReferenceFor(
    const std::string& references, const std::string& workload,
    std::uint64_t seed, std::vector<std::uint64_t> (*compute)(std::uint64_t)) {
  std::vector<std::uint64_t> digests;
  if (!references.empty() &&
      LoadShippedReference(references, workload, seed, &digests)) {
    return digests;
  }
  return compute(seed);
}

namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const RunOptions&);
  std::vector<std::uint64_t> (*reference)(std::uint64_t);
};

const Workload kWorkloads[] = {
    {"drive", RunDrive, DriveReference},
    {"assess", RunAssess, AssessReference},
    {"campaign", RunCampaign, CampaignReference},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool ParseSeed(const std::string& text, std::uint64_t* seed) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *seed = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload drive|assess|campaign --seed N "
               "--seconds S --trace 0|1 [--references F] [--source-rev R]\n"
               "       perfbench reference --workload W --seed N\n"
               "       perfbench compare --bounds BENCHMARK.json BASE CHANGE\n"
               "       perfbench selftest\n");
  return 2;
}

int Run(const certkit::support::FlagParser& flags) {
  const Workload* workload = FindWorkload(flags.GetOr("workload", ""));
  RunOptions options;
  const auto seconds = flags.GetInt("seconds", 10);
  const std::string trace = flags.GetOr("trace", "0");
  if (workload == nullptr || !seconds || *seconds < 1 ||
      !ParseSeed(flags.GetOr("seed", ""), &options.seed) ||
      (trace != "0" && trace != "1")) {
    return Usage();
  }
  options.seconds = static_cast<double>(*seconds);
  options.references = flags.GetOr("references", "");
  const bool traced = trace == "1";

  std::printf("perfbench-run {\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"seconds\":%lld,\"trace\":%d,\"fingerprint\":%s}\n",
              workload->name, options.seed, *seconds, traced ? 1 : 0,
              FingerprintJson(flags.GetOr("source-rev", "unknown")).c_str());
  std::fflush(stdout);

  Outcome outcome = workload->run(options);
  const std::string label =
      std::string(workload->name) + (traced ? " traced" : "");
  PrintEndToEnd(label.c_str(), outcome);
  std::int64_t attempted = static_cast<std::int64_t>(outcome.op_s.size());
  std::int64_t failed = outcome.failed;
  std::vector<Metric> metrics = EndToEndMetrics(outcome);
  if (traced) {
    // Per-layer metrics of every workload, from fixed amounts of work.
    metrics.clear();
    Checks checks;
    for (auto* layers : {DriveLayers, AssessLayers, CampaignLayers}) {
      for (Metric& m : layers(options.seed, &checks)) {
        metrics.push_back(std::move(m));
      }
    }
    PrintMetrics("layers", metrics);
    std::printf("[layers] %" PRId64 " of %" PRId64 " checks failed\n",
                checks.failed, checks.attempted);
    attempted += checks.attempted;
    failed += checks.failed;
  }
  const bool correct = failed == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

int PrintReference(const certkit::support::FlagParser& flags) {
  const Workload* workload = FindWorkload(flags.GetOr("workload", ""));
  std::uint64_t seed = 0;
  if (workload == nullptr || !ParseSeed(flags.GetOr("seed", ""), &seed)) {
    return Usage();
  }
  std::printf("%s\n",
              ReferenceLine(workload->name, seed, workload->reference(seed))
                  .c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "compare") return RunCompare(argc - 2, argv + 2);
  if (command == "selftest") return RunSelfTest();
  const certkit::support::FlagParser flags(argc - 1, argv + 1);
  if (command == "run") return Run(flags);
  if (command == "reference") return PrintReference(flags);
  return Usage();
}
