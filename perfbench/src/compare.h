// perfbench compare: verdicts on two sets of runs (parent and change) of
// one workload x end-to-end metric, under the bound BENCHMARK.json fixes.
#ifndef PERFBENCH_COMPARE_H_
#define PERFBENCH_COMPARE_H_

#include <string>
#include <vector>

namespace perfbench {

struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};
// Nearest-rank median and quartiles (the benchmark's one quantile rule).
Spread Summarize(const std::vector<double>& values);

struct Verdict {
  Spread base, change;
  double wins = 0.0;    // fraction of pairs the change won (ties: neither)
  double losses = 0.0;  // fraction of pairs the change lost
  double worse_by = 0.0;  // change vs base median, + = worse, share of base
  double spread = 0.0;  // larger IQR / median of the two sets
  // "better": the change wins >= 9/10 of the pairs and its median beats the
  //   parent's by more than the parent's IQR (or every change run beats
  //   every parent run);
  // "worse": its median is worse by more than `bound`, and either the
  //   spread is within the bound or it loses >= 9/10 of the pairs;
  // "unresolved": the spread exceeds the bound, so "no worse" cannot be
  //   shown;
  // "unchanged": within the bound.
  std::string verdict;
};

// Pairs base[i] with change[i]; callers order both sets the same way.
Verdict Judge(const std::vector<double>& base,
              const std::vector<double>& change, bool lower_is_better,
              double bound);

}  // namespace perfbench

#endif  // PERFBENCH_COMPARE_H_
