// campaign: one operation is one campaign generation — breed, fleet
// evaluation on nproc threads with coverage probes on, merge — driven by
// CampaignRunner::RunFrom on an in-memory state with
// stop_after_generations = 1 and no checkpoint or artifact directory. The
// loop cycles through kEpisodes seeded one-generation campaigns; each
// operation's campaign JSON digest is checked against the seed's reference.
// One generation per campaign keeps the work per operation alike across
// seeds (the seed pool's backends, input shapes and fault kinds are fixed
// by candidate index; the seed places actors and sizes faults). The traced
// run's campaign runs kLayerGenerations, so mutation and merging into a
// grown corpus are measured there.
#include <chrono>
#include <cstdio>

#include "campaign/runner.h"
#include "coverage/coverage.h"
#include "gpusim/gpusim.h"
#include "support/fnv.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace campaign = certkit::campaign;

constexpr int kEpisodes = 8;
constexpr int kLayerGenerations = 3;
constexpr int kPopulation = 4;
constexpr int kTicks = 5;  // the mutation scheduler's minimum run length
constexpr int kSetupReps = 25;
constexpr int kProbeReps = 3;

campaign::CampaignConfig EpisodeConfig(std::uint64_t seed, int episode,
                                       int jobs) {
  campaign::CampaignConfig cfg;
  cfg.seed = SplitMix64(seed * kEpisodes + static_cast<unsigned>(episode));
  cfg.jobs = jobs;
  cfg.population = kPopulation;
  cfg.generations = 1;
  cfg.ticks = kTicks;
  cfg.stop_after_generations = 1;
  return cfg;
}

std::uint64_t JsonDigest(const campaign::CampaignResult& result) {
  return certkit::support::FnvStr(campaign::CampaignJson(result));
}

// The throwaway one-tick candidate EnsureCoverageDeclarations evaluates.
campaign::Candidate DeclarationCandidate() {
  campaign::Candidate c;
  c.ticks = 1;
  c.backend = nn::Backend::kCpuNaive;
  return c;
}

double Ms(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

double TimedEvaluateMs(const campaign::Candidate& candidate) {
  const auto t0 = Clock::now();
  (void)campaign::CampaignRunner::Evaluate(candidate);
  return Ms(t0);
}

std::int64_t CoverFacts(const certkit::cov::CoverSet& cover) {
  certkit::cov::CoverSet empty;
  return certkit::cov::MergeCover(&empty, cover);
}

}  // namespace

std::vector<std::uint64_t> CampaignReference(std::uint64_t seed) {
  certkit::cov::SetProbesEnabled(true);
  campaign::EnsureCoverageDeclarations();
  std::vector<std::uint64_t> digests;
  for (int e = 0; e < kEpisodes; ++e) {
    campaign::CampaignConfig cfg = EpisodeConfig(seed, e, 1);
    cfg.stop_after_generations = 0;
    digests.push_back(JsonDigest(campaign::CampaignRunner(cfg).Run()));
  }
  return digests;
}

Outcome RunCampaign(const RunOptions& options) {
  certkit::cov::SetProbesEnabled(true);
  const int jobs = HardwareThreads();
  Outcome out;
  campaign::CampaignState state;
  {
    // Set-up is single-threaded; each repetition runs on the next CPU so
    // the median samples the whole host (the mask is restored before the
    // fleet starts).
    CpuSet cpus;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      // The first set-up declares every coverage unit (once per process);
      // later repetitions redo the same throwaway evaluation, so the median
      // is a steady figure for the same work.
      const Clock::time_point start = rep == 0 ? ProcessStart() : Clock::now();
      cpus.Pin(static_cast<std::size_t>(rep));
      if (rep == 0) {
        campaign::EnsureCoverageDeclarations();
      } else {
        (void)campaign::CampaignRunner::Evaluate(DeclarationCandidate());
      }
      state = campaign::CampaignRunner::FreshState(
          EpisodeConfig(options.seed, 0, jobs));
      out.setup_s.push_back(SecondsSince(start));
    }
  }

  std::vector<Episode> episodes;
  Window window;
  for (int e = 0;;) {
    campaign::CampaignRunner runner(EpisodeConfig(options.seed, e, jobs));
    const auto t0 = Clock::now();
    campaign::CampaignResult result = runner.RunFrom(&state);
    out.op_s.push_back(SecondsSince(t0));
    window.Pause();
    episodes.push_back({e, JsonDigest(result), 1});
    e = (e + 1) % kEpisodes;
    state = campaign::CampaignRunner::FreshState(
        EpisodeConfig(options.seed, e, jobs));
    if (window.Elapsed() >= options.seconds) break;
    window.Resume();
  }
  out.window_s = window.Elapsed();
  out.failed = FailedOps(episodes,
                         ReferenceFor(options.references, "campaign",
                                      options.seed, CampaignReference));
  return out;
}

std::vector<Metric> CampaignLayers(std::uint64_t seed, Checks* checks) {
  certkit::cov::SetProbesEnabled(true);
  campaign::EnsureCoverageDeclarations();
  const int jobs = HardwareThreads();
  campaign::CampaignConfig cfg = EpisodeConfig(seed, 0, jobs);
  cfg.generations = kLayerGenerations;
  cfg.stop_after_generations = 0;
  auto& device = gpusim::Device::Instance();

  // The generation loop RunFrom runs, driven from here: Breed, Evaluate on
  // our own pool of the same width, MergeGeneration, Finalize.
  campaign::CampaignState state = campaign::CampaignRunner::FreshState(cfg);
  certkit::support::ThreadPool pool(jobs - 1);  // the caller drains too
  std::vector<double> breed_ms, merge_ms, eval_ms, wait_ms, facts;
  std::vector<campaign::Candidate> evaluated;
  double eval_wall_s = 0.0, ticks = 0.0;
  const std::uint64_t launches0 = device.launch_count();
  while (state.next_generation < cfg.generations) {
    auto t0 = Clock::now();
    std::vector<campaign::Candidate> batch =
        campaign::CampaignRunner::Breed(cfg, &state);
    breed_ms.push_back(Ms(t0));

    std::vector<campaign::EvalResult> evals(batch.size());
    std::vector<double> wait(batch.size()), busy(batch.size());
    const auto submitted = Clock::now();
    pool.ParallelFor(batch.size(), [&](std::size_t i) {
      const auto start = Clock::now();
      wait[i] = std::chrono::duration<double, std::milli>(start - submitted)
                    .count();
      evals[i] = campaign::CampaignRunner::Evaluate(batch[i]);
      busy[i] = Ms(start);
    });
    eval_wall_s += SecondsSince(submitted);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      eval_ms.push_back(busy[i]);
      wait_ms.push_back(wait[i]);
      facts.push_back(static_cast<double>(CoverFacts(evals[i].cover)));
      ticks += batch[i].ticks;
      evaluated.push_back(batch[i]);
    }

    t0 = Clock::now();
    campaign::CampaignRunner::MergeGeneration(cfg, batch, &evals, &state,
                                              nullptr);
    state.next_generation += 1;
    merge_ms.push_back(Ms(t0));
  }
  const double launches = static_cast<double>(device.launch_count() - launches0);
  const std::string driven =
      campaign::CampaignJson(campaign::CampaignRunner::Finalize(cfg, state));
  std::int64_t kept = 0, total = 0;
  for (const auto& g : state.generations) {
    kept += g.kept;
    total += g.evaluated;
  }

  // Fleet scaling: the same campaign through CampaignRunner::Run at jobs 1
  // and at jobs nproc. Both JSONs must equal the benchmark-driven loop's.
  campaign::CampaignConfig serial_cfg = cfg;
  serial_cfg.jobs = 1;
  auto t0 = Clock::now();
  const std::string serial =
      campaign::CampaignJson(campaign::CampaignRunner(serial_cfg).Run());
  const double serial_s = SecondsSince(t0);
  t0 = Clock::now();
  const std::string fleet =
      campaign::CampaignJson(campaign::CampaignRunner(cfg).Run());
  const double fleet_s = SecondsSince(t0);
  checks->Expect(driven == serial);
  checks->Expect(fleet == serial);

  // Fleet inflation: each candidate's time in the fleet over its time alone.
  std::vector<double> inflation;
  for (std::size_t i = 0; i < evaluated.size(); ++i) {
    inflation.push_back(eval_ms[i] / TimedEvaluateMs(evaluated[i]));
  }

  // Probe overhead: one candidate evaluated with probes on and off.
  std::vector<double> on, off;
  for (int r = 0; r < kProbeReps; ++r) {
    on.push_back(TimedEvaluateMs(evaluated.front()));
    certkit::cov::SetProbesEnabled(false);
    off.push_back(TimedEvaluateMs(evaluated.front()));
    certkit::cov::SetProbesEnabled(true);
  }

  const double candidates = static_cast<double>(evaluated.size());
  std::printf("[layers] campaign bases: kept %lld of %lld evaluated; jobs 1 "
              "%.3f s over jobs %d %.3f s; probes on %.1f ms over off %.1f "
              "ms; inflation is the median of %zu candidates\n",
              static_cast<long long>(kept), static_cast<long long>(total),
              serial_s, jobs, fleet_s, Median(on), Median(off),
              evaluated.size());
  return {
      {"campaign.breed_ms", Median(breed_ms), "ms"},
      {"campaign.merge_ms", Median(merge_ms), "ms"},
      {"campaign.evaluate_p50_ms", Median(eval_ms), "ms"},
      {"campaign.queue_wait_ms", Median(wait_ms), "ms"},
      {"campaign.candidates_per_s", candidates / eval_wall_s, "1/s"},
      {"campaign.instrumented_ticks_per_s", ticks / eval_wall_s, "1/s"},
      {"campaign.fleet_inflation_x", Median(inflation), "x"},
      {"campaign.speedup_jobs4_x", serial_s / fleet_s, "x"},
      {"coverage.probe_overhead_x", Median(on) / Median(off), "x"},
      {"campaign.keep_ratio", static_cast<double>(kept) / total, "ratio"},
      {"coverage.facts_per_candidate", Median(facts), "count"},
      {"gpusim.launches_per_candidate", launches / candidates, "count"},
  };
}

}  // namespace perfbench
