// The benchmark's own tests: the quantile rule, the compare verdicts, and
// the reference-digest gate firing on a perturbed output of each workload.
#include <cmath>
#include <cstdio>
#include <string>

#include "ad/pipeline.h"
#include "ad/replay_tap.h"
#include "compare.h"
#include "coverage/coverage.h"
#include "driver/analysis_driver.h"
#include "driver/artifact_cache.h"
#include "support/fnv.h"
#include "workloads.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void TestQuantileRule() {
  const std::vector<double> one_to_ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Expect(Quantile(one_to_ten, 0.5) == 5, "median of 1..10 is the 5th sample");
  Expect(Quantile(one_to_ten, 0.25) == 3, "q1 of 1..10 is rank ceil(2.5)");
  Expect(Quantile(one_to_ten, 0.9) == 9, "p90 of 1..10 is the 9th sample");
  Expect(Quantile(one_to_ten, 0.99) == 10, "p99 of 1..10 is the maximum");
  Expect(Quantile(one_to_ten, 0.0) == 1, "q=0 is the minimum");
  // A rounding rule p*(n-1)+0.5 would pick the 6th sample here.
  Expect(Quantile(one_to_ten, 0.5) != 6, "no p*(n-1) rounding");
  Expect(Quantile({1.0, 4.0}, 0.5) == 1.0, "never interpolates");

  Expect(SamplesBeyond(10, 0.5) == 5, "5 of 10 samples beyond the median");
  Expect(PercentileSupported(20, 0.5), "median supported at n=20");
  Expect(!PercentileSupported(19, 0.5), "median unsupported at n=19");
  Expect(PercentileSupported(1000, 0.99), "p99 supported at n=1000");
  Expect(!PercentileSupported(999, 0.99), "p99 unsupported at n=999");
}

std::vector<double> Scaled(const std::vector<double>& v, double factor) {
  std::vector<double> out;
  for (double x : v) out.push_back(x * factor);
  return out;
}

void TestCompareVerdicts() {
  const std::vector<double> tight = {100, 101, 99,  100.5, 99.5,
                                     100, 101, 99,  100,   100.2};
  const std::vector<double> wide = {60, 140, 80, 120, 100,
                                    70, 130, 90, 110, 100};
  const double bound = 0.1;
  Expect(Judge(tight, Scaled(tight, 0.8), true, bound).verdict == "better",
         "20% lower latency on every pair is better");
  Expect(Judge(tight, Scaled(tight, 1.3), true, bound).verdict == "worse",
         "30% higher latency with tight spread is worse");
  Expect(Judge(tight, Scaled(tight, 1.02), true, bound).verdict ==
             "unchanged",
         "2% higher latency within a 10% bound is unchanged");
  Expect(Judge(tight, Scaled(tight, 1.3), false, bound).verdict == "better",
         "30% more throughput is better when higher is better");
  Expect(Judge(wide, Scaled(wide, 1.05), true, bound).verdict ==
             "unresolved",
         "spread 0.4 above a 0.1 bound is unresolved");
  Expect(Judge(wide, Scaled(tight, 0.5), true, bound).verdict == "better",
         "every change run beating every parent run is better despite "
         "the spread");
  const Verdict v = Judge(tight, tight, true, bound);
  Expect(v.verdict == "unchanged" && v.wins == 0 && v.losses == 0,
         "identical runs tie on every pair");
}

void TestDigestGate() {
  // drive: real tick reports, then one steering command one ulp off.
  certkit::cov::SetProbesEnabled(false);
  adpilot::PilotConfig cfg;
  cfg.perception.backend = nn::Backend::kCpuNaive;
  cfg.perception.quantized_weights = true;
  cfg.safety.tick_deadline = 1e9;
  adpilot::ApolloPilot pilot(cfg);
  std::vector<adpilot::TickReport> reports;
  for (int t = 0; t < 5; ++t) reports.push_back(pilot.Tick());
  const std::vector<std::uint64_t> drive_ref = {
      adpilot::DigestTickReports(reports)};
  Expect(FailedOps({{0, drive_ref[0], 4}}, drive_ref) == 0,
         "drive gate passes the reference episode");
  reports[3].command.steering =
      std::nextafter(reports[3].command.steering, 1.0);
  Expect(FailedOps({{0, adpilot::DigestTickReports(reports), 4}}, drive_ref) ==
             4,
         "drive gate fails every op of an episode with a one-ulp change");
  Expect(FailedOps({{1, drive_ref[0], 4}}, drive_ref) == 4,
         "an episode without a reference slot fails");

  // assess: DigestAnalysis of a real analysis, then one finding moved.
  certkit::driver::DriverOptions options;
  options.jobs = 1;
  auto analysis = certkit::driver::AnalysisDriver(options).AnalyzeSources(
      {{"m/a.cc",
        "int f(int x) { if (x > 0) { return 1; } return 0; }  // a line "
        "longer than eighty columns for the style checker\n"}});
  Expect(analysis.ok() && !analysis.value().files.empty() &&
             !analysis.value().files[0].style.report.findings.empty(),
         "assess sample has a style finding");
  if (analysis.ok() && !analysis.value().files.empty() &&
      !analysis.value().files[0].style.report.findings.empty()) {
    certkit::driver::CodebaseAnalysis& a = analysis.value();
    const std::vector<std::uint64_t> ref = {
        certkit::driver::DigestAnalysis(a)};
    a.files[0].style.report.findings[0].line += 1;
    Expect(FailedOps({{0, certkit::driver::DigestAnalysis(a), 1}}, ref) == 1,
           "assess gate fails when one finding moves a line");
  }

  // campaign: one byte of the campaign JSON.
  std::string json = "{\"generations\":[{\"kept\":3}]}";
  const std::vector<std::uint64_t> campaign_ref = {
      certkit::support::FnvStr(json)};
  json[json.size() - 4] = '4';
  Expect(FailedOps({{0, certkit::support::FnvStr(json), 2}}, campaign_ref) ==
             2,
         "campaign gate fails when one byte of the JSON changes");
}

}  // namespace

int RunSelfTest() {
  TestQuantileRule();
  TestCompareVerdicts();
  TestDigestGate();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
