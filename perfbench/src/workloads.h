// perfbench workloads. Each workload is a closed loop over one kind of
// operation, driven from a single process:
//   drive    — one adpilot::ApolloPilot::Tick (int8 detector, probes off);
//   assess   — one cold driver::AnalysisDriver::AnalyzeSources over the
//              seeded Apollo-like corpus;
//   campaign — one campaign generation (breed, fleet evaluation, merge).
// Run* measures the loop and checks every output against the seed's
// reference digests; *Reference computes those digests on one thread;
// *Layers makes the fixed-work per-layer measurements of a traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string references;  // shipped reference digests (may be absent)
};

Outcome RunDrive(const RunOptions& options);
std::vector<std::uint64_t> DriveReference(std::uint64_t seed);
std::vector<Metric> DriveLayers(std::uint64_t seed, Checks* checks);

Outcome RunAssess(const RunOptions& options);
std::vector<std::uint64_t> AssessReference(std::uint64_t seed);
std::vector<Metric> AssessLayers(std::uint64_t seed, Checks* checks);

Outcome RunCampaign(const RunOptions& options);
std::vector<std::uint64_t> CampaignReference(std::uint64_t seed);
std::vector<Metric> CampaignLayers(std::uint64_t seed, Checks* checks);

// Reference digests for `seed`: the shipped line when `references` has one,
// otherwise `compute(seed)` (a single-thread run).
std::vector<std::uint64_t> ReferenceFor(
    const std::string& references, const std::string& workload,
    std::uint64_t seed, std::vector<std::uint64_t> (*compute)(std::uint64_t));

int RunCompare(int argc, const char* const* argv);
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
