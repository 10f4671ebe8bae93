// Shared helpers for the per-figure/table benchmark binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <functional>

#include "corpus/analyze.h"
#include "corpus/generator.h"
#include "support/check.h"

namespace benchutil {

inline constexpr std::uint64_t kCorpusSeed = 26262;

// Generates and analyzes the calibrated Apollo-like corpus (cached per
// process — several benches share it).
inline const certkit::corpus::CorpusAnalysis& Corpus() {
  static const certkit::corpus::CorpusAnalysis* analysis = [] {
    auto corpus = certkit::corpus::GenerateCorpus(
        certkit::corpus::ApolloLikeSpec(), kCorpusSeed);
    auto analyzed = certkit::corpus::AnalyzeGeneratedCorpus(corpus);
    CERTKIT_CHECK_MSG(analyzed.ok(), analyzed.status().ToString());
    return new certkit::corpus::CorpusAnalysis(std::move(analyzed).value());
  }();
  return *analysis;
}

// Best-of-N (minimum) wall-clock timing for the figure-7/8 ratio summaries.
inline double TimeSeconds(const std::function<void()>& fn, int repeats = 3) {
  double best = 1e99;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

}  // namespace benchutil

#endif  // BENCH_BENCH_UTIL_H_
