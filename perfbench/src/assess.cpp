// assess: one operation is one cold AnalysisDriver::AnalyzeSources over the
// seeded Apollo-like corpus (~220k LOC, 82 files) at --jobs nproc with no
// artifact cache — the paper's Figure 3 / Tables 1-3 measurement. Each
// result's driver::DigestAnalysis is checked against the seed's reference.
#include <algorithm>
#include <cstdio>

#include "corpus/analyze.h"
#include "corpus/generator.h"
#include "driver/analysis_driver.h"
#include "driver/artifact_cache.h"
#include "metrics/module_metrics.h"
#include "rules/defensive.h"
#include "rules/misra.h"
#include "rules/style.h"
#include "rules/traceability.h"
#include "rules/unit_design.h"
#include "support/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace driver = certkit::driver;

constexpr int kSetupReps = 15;
constexpr int kLayerReps = 3;

std::vector<driver::SourceInput> MakeSources(std::uint64_t seed) {
  return certkit::corpus::CorpusSourceInputs(certkit::corpus::GenerateCorpus(
      certkit::corpus::ApolloLikeSpec(), SplitMix64(seed)));
}

driver::AnalysisDriver MakeDriver(int jobs) {
  driver::DriverOptions options;
  options.jobs = jobs;  // cache_dir stays empty: every pass is cold
  return driver::AnalysisDriver(options);
}

// Digest of one analysis, or 0 (never a real FNV digest of this shape) when
// the pass failed or skipped a file.
std::uint64_t CheckedDigest(
    const certkit::support::Result<driver::CodebaseAnalysis>& result) {
  if (!result.ok() || !result.value().skipped.empty()) return 0;
  return driver::DigestAnalysis(result.value());
}

double Ms(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

bool IsHeader(const std::string& path) {
  using certkit::support::EndsWith;
  return EndsWith(path, ".h") || EndsWith(path, ".hpp") ||
         EndsWith(path, ".cuh");
}

}  // namespace

std::vector<std::uint64_t> AssessReference(std::uint64_t seed) {
  return {CheckedDigest(MakeDriver(1).AnalyzeSources(MakeSources(seed)))};
}

Outcome RunAssess(const RunOptions& options) {
  Outcome out;
  const driver::AnalysisDriver analyzer = MakeDriver(HardwareThreads());
  std::vector<driver::SourceInput> sources;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = rep == 0 ? ProcessStart() : Clock::now();
    sources = MakeSources(options.seed);
    (void)analyzer.AnalyzeSources(sources);  // discarded warm-up pass
    out.setup_s.push_back(SecondsSince(start));
  }

  std::vector<Episode> episodes;
  Window window;
  while (window.Elapsed() < options.seconds) {
    window.Pause();
    std::vector<driver::SourceInput> input = sources;
    window.Resume();
    const auto t0 = Clock::now();
    {
      auto result = analyzer.AnalyzeSources(std::move(input));
      out.op_s.push_back(SecondsSince(t0));
      window.Pause();
      episodes.push_back({0, CheckedDigest(result), 1});
    }  // the result is released while the window is paused
    window.Resume();
  }
  out.window_s = window.Elapsed();
  out.failed = FailedOps(episodes, ReferenceFor(options.references, "assess",
                                                options.seed, AssessReference));
  return out;
}

std::vector<Metric> AssessLayers(std::uint64_t seed, Checks* checks) {
  namespace rules = certkit::rules;
  const std::vector<driver::SourceInput> sources = MakeSources(seed);
  const int jobs = HardwareThreads();
  const std::uint64_t reference = AssessReference(seed)[0];

  struct Rep {
    double lex = 0, parse = 0, function_metrics = 0, misra = 0, style = 0,
           traceability = 0, unit_design = 0, defensive = 0;
    double slowest_file = 0, serial_pass = 0, parallel_pass = 0;
    double Layers() const {
      return lex + parse + function_metrics + misra + style + traceability +
             unit_design + defensive;
    }
  };
  std::vector<Rep> reps(kLayerReps);
  double bytes = 0, tokens = 0, functions = 0, findings = 0;
  for (Rep& rep : reps) {
    bytes = tokens = functions = findings = 0;
    certkit::ast::ParseOptions parse_options;
    parse_options.lex_options.keep_comments = true;
    const rules::MisraOptions misra_options;
    for (const driver::SourceInput& file : sources) {
      auto t0 = Clock::now();
      auto lexed = certkit::lex::Lex(file.path, file.content,
                                     parse_options.lex_options);
      const double lex_ms = Ms(t0);
      t0 = Clock::now();
      auto parsed =
          certkit::ast::ParseSource(file.path, file.content, parse_options);
      // ParseSource lexes internally; the parser's own cost is the rest.
      const double parse_ms = Ms(t0) - lex_ms;
      checks->Expect(lexed.ok() && parsed.ok());
      if (!lexed.ok() || !parsed.ok()) continue;
      const certkit::ast::SourceFileModel& model = parsed.value();
      t0 = Clock::now();
      auto fm = certkit::metrics::ComputeFileFunctionMetrics(model);
      const double fm_ms = Ms(t0);
      t0 = Clock::now();
      auto trace = rules::AnalyzeTraceability(model);
      const double trace_ms = Ms(t0);
      t0 = Clock::now();
      auto misra = rules::CheckMisra(model, misra_options);
      const double misra_ms = Ms(t0);
      rules::StyleOptions style_options;
      style_options.is_header = IsHeader(file.path);
      t0 = Clock::now();
      auto style = rules::CheckStyle(model, file.content, style_options);
      const double style_ms = Ms(t0);

      rep.lex += lex_ms;
      rep.parse += parse_ms;
      rep.function_metrics += fm_ms;
      rep.traceability += trace_ms;
      rep.misra += misra_ms;
      rep.style += style_ms;
      rep.slowest_file = std::max(
          rep.slowest_file,
          lex_ms + parse_ms + fm_ms + trace_ms + misra_ms + style_ms);
      bytes += static_cast<double>(file.content.size());
      tokens += static_cast<double>(lexed.value().tokens.size());
      functions += static_cast<double>(model.functions.size());
      findings += static_cast<double>(misra.findings.size() +
                                      style.report.findings.size());
    }

    // --jobs 1 runs one worker plus the calling thread; confined to one CPU
    // the pass is serial, so its wall time is the whole single-core cost.
    auto t0 = Clock::now();
    auto serial = [&] {
      CpuSet cpus;
      cpus.Pin(0);
      return MakeDriver(1).AnalyzeSources(sources);
    }();
    rep.serial_pass = Ms(t0);
    t0 = Clock::now();
    auto parallel = MakeDriver(jobs).AnalyzeSources(sources);
    rep.parallel_pass = Ms(t0);
    checks->Expect(CheckedDigest(serial) == reference);
    checks->Expect(CheckedDigest(parallel) == reference);
    if (!serial.ok()) continue;
    // The per-module phase, on the modules the serial pass merged.
    for (const auto& module : serial.value().modules) {
      t0 = Clock::now();
      auto unit = rules::AnalyzeUnitDesign(module);
      rep.unit_design += Ms(t0);
      t0 = Clock::now();
      auto defensive = rules::AnalyzeDefensive(module.files);
      rep.defensive += Ms(t0);
      findings += static_cast<double>(unit.report.findings.size() +
                                      defensive.report.findings.size());
    }
  }

  auto median = [&](auto field) {
    std::vector<double> v;
    for (const Rep& rep : reps) v.push_back(field(rep));
    return Median(v);
  };
  const double lex_ms = median([](const Rep& r) { return r.lex; });
  const double layers_ms = median([](const Rep& r) { return r.Layers(); });
  const double parallel_ms =
      median([](const Rep& r) { return r.parallel_pass; });
  std::printf("[layers] assess bases: %.1f ms of single-core layer work "
              "over %d jobs x %.1f ms; %zu files\n",
              layers_ms, jobs, parallel_ms, sources.size());
  return {
      {"lex.mb_per_s", bytes / 1e6 / (lex_ms / 1e3), "MB/s"},
      {"ast.parse_ms", median([](const Rep& r) { return r.parse; }), "ms"},
      {"metrics.function_metrics_ms",
       median([](const Rep& r) { return r.function_metrics; }), "ms"},
      {"rules.misra_ms", median([](const Rep& r) { return r.misra; }), "ms"},
      {"rules.style_ms", median([](const Rep& r) { return r.style; }), "ms"},
      {"rules.traceability_ms",
       median([](const Rep& r) { return r.traceability; }), "ms"},
      {"rules.unit_design_ms",
       median([](const Rep& r) { return r.unit_design; }), "ms"},
      {"rules.defensive_ms", median([](const Rep& r) { return r.defensive; }),
       "ms"},
      {"driver.merge_overhead_ms",
       median([](const Rep& r) { return r.serial_pass - r.Layers(); }), "ms"},
      // Single-core layer work over the core time the nproc-job pass took.
      {"driver.parallel_efficiency", layers_ms / (jobs * parallel_ms),
       "ratio"},
      {"driver.slowest_file_share",
       median([](const Rep& r) { return r.slowest_file / r.parallel_pass; }),
       "ratio"},
      {"lex.tokens", tokens, "count"},
      {"ast.functions", functions, "count"},
      {"rules.findings", findings, "count"},
  };
}

}  // namespace perfbench
