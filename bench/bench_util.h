// Shared helpers for the per-figure/table benchmark binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>

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

// The host a measurement ran on, as comma-separated JSON members (wrap them
// in braces, or append fields of your own): hardware threads, the x86 ISA
// extensions the CPU reports, the compiler, and the build type and git
// revision the tree was configured with.
inline std::string HostFingerprintFields() {
#ifdef __clang__
  const char* kCompiler = "clang " __clang_version__;
#else
  const char* kCompiler = "GCC " __VERSION__;
#endif
  __builtin_cpu_init();
  std::string isa;
  const auto add = [&isa](const char* name, bool has) {
    if (!has) return;
    isa += isa.empty() ? "\"" : ",\"";
    isa += name;
    isa += '"';
  };
  add("sse2", __builtin_cpu_supports("sse2"));
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vnni", __builtin_cpu_supports("avx512vnni"));
  return "\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"isa\":[" + isa + "],\"compiler\":\"" + kCompiler +
         "\",\"build_type\":\"" CERTKIT_BUILD_TYPE
         "\",\"git_rev\":\"" CERTKIT_GIT_REV "\"";
}

inline void PrintHeader(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

}  // namespace benchutil

#endif  // BENCH_BENCH_UTIL_H_
