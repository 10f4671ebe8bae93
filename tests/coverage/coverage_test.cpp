// Unit tests for the coverage runtime: statement, branch, and MC/DC, plus
// its concurrency contract (per-thread captures, Reset epochs, slot reuse).
#include "coverage/coverage.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/check.h"

namespace certkit::cov {
namespace {

TEST(CoverageTest, StatementCoverageBasics) {
  Unit u("u1");
  u.DeclareStatements(4);
  EXPECT_EQ(u.statements_total(), 4);
  EXPECT_DOUBLE_EQ(u.StatementCoverage(), 0.0);
  u.Stmt(0);
  u.Stmt(2);
  u.Stmt(2);  // repeat hits count once
  EXPECT_EQ(u.statements_hit(), 2);
  EXPECT_DOUBLE_EQ(u.StatementCoverage(), 0.5);
  u.Stmt(1);
  u.Stmt(3);
  EXPECT_DOUBLE_EQ(u.StatementCoverage(), 1.0);
}

TEST(CoverageTest, EmptyUnitIsFullyCovered) {
  Unit u("empty");
  EXPECT_DOUBLE_EQ(u.StatementCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(u.McdcCoverage(), 1.0);
}

TEST(CoverageTest, OutOfRangeStatementProbeIsContractViolation) {
  Unit u("u");
  u.DeclareStatements(2);
  EXPECT_THROW(u.Stmt(2), support::ContractViolation);
  EXPECT_THROW(u.Stmt(-1), support::ContractViolation);
}

TEST(CoverageTest, BranchCoverageNeedsBothOutcomes) {
  Unit u("u");
  const int d = u.DeclareDecision(1);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 0.0);  // declared but never executed
  u.Branch(d, true);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 0.5);
  u.Branch(d, true);  // same outcome adds nothing
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 0.5);
  u.Branch(d, false);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 1.0);
}

TEST(CoverageTest, BranchCoverageAveragesAcrossDecisions) {
  Unit u("u");
  const int d0 = u.DeclareDecision(1);
  const int d1 = u.DeclareDecision(1);
  u.Branch(d0, true);
  u.Branch(d0, false);
  u.Branch(d1, true);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 0.75);  // 3 of 4 outcomes
}

TEST(CoverageTest, McdcSingleConditionEqualsBranch) {
  Unit u("u");
  const int d = u.DeclareDecision(1);
  u.Branch(d, true);
  EXPECT_DOUBLE_EQ(u.McdcCoverage(), 0.0);  // only one vector
  u.Branch(d, false);
  EXPECT_DOUBLE_EQ(u.McdcCoverage(), 1.0);  // {1,T} vs {0,F} differ in c0
}

TEST(CoverageTest, McdcTwoConditionAnd) {
  // outcome = a && b. Unique-cause pairs: a needs (T,T)/(F,T); b needs
  // (T,T)/(T,F).
  Unit u("u");
  const int d = u.DeclareDecision(2);
  auto run = [&](bool a, bool b) {
    bool ca = u.Cond(d, 0, a);
    bool cb = u.Cond(d, 1, b);
    u.Dec(d, ca && cb);
  };
  run(true, true);
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 0);
  run(false, true);  // demonstrates a
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 1);
  run(true, false);  // demonstrates b
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 2);
  EXPECT_DOUBLE_EQ(u.McdcCoverage(), 1.0);
  // Branch coverage is also complete (T and F outcomes seen).
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 1.0);
}

TEST(CoverageTest, McdcAllFourVectorsOfOrStillNeedUniqueCausePairs) {
  // outcome = a || b with vectors (F,F) and (T,T) only: branch coverage is
  // complete but NO condition is demonstrated independently... actually
  // (F,F)->F and (T,T)->T differ in both conditions, so neither is shown.
  Unit u("u");
  const int d = u.DeclareDecision(2);
  auto run = [&](bool a, bool b) {
    u.Cond(d, 0, a);
    u.Cond(d, 1, b);
    u.Dec(d, a || b);
  };
  run(false, false);
  run(true, true);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 1.0);
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 0);
  run(true, false);  // (T,F)->T with (F,F)->F shows a; with (T,T)->T nothing
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 1);
  run(false, true);  // shows b against (F,F)
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 2);
}

TEST(CoverageTest, McdcThreeConditions) {
  // outcome = a && (b || c).
  Unit u("u");
  const int d = u.DeclareDecision(3);
  auto run = [&](bool a, bool b, bool c) {
    u.Cond(d, 0, a);
    u.Cond(d, 1, b);
    u.Cond(d, 2, c);
    u.Dec(d, a && (b || c));
  };
  // Classic minimal unique-cause set for a && (b || c):
  run(true, true, false);   // T
  run(false, true, false);  // F — shows a
  run(true, false, false);  // F — shows b
  run(true, false, true);   // T — shows c
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 3);
  EXPECT_DOUBLE_EQ(u.McdcCoverage(), 1.0);
}

TEST(CoverageTest, ResetClearsExecutionKeepsDeclarations) {
  Unit u("u");
  u.DeclareStatements(2);
  const int d = u.DeclareDecision(1);
  u.Stmt(0);
  u.Branch(d, true);
  u.Reset();
  EXPECT_EQ(u.statements_total(), 2);
  EXPECT_EQ(u.statements_hit(), 0);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 0.0);
}

TEST(CoverageTest, RegistryCreatesAndFinds) {
  Unit& a = Registry::Instance().GetOrCreate("reg/alpha.cc");
  Unit& b = Registry::Instance().GetOrCreate("reg/alpha.cc");
  EXPECT_EQ(&a, &b);
  Registry::Instance().GetOrCreate("reg/beta.cc");
  auto units = Registry::Instance().Units();
  int found = 0;
  for (const Unit* u : units) {
    if (u->name() == "reg/alpha.cc" || u->name() == "reg/beta.cc") ++found;
  }
  EXPECT_EQ(found, 2);
}

TEST(CoverageTest, SnapshotAndAverage) {
  Unit& a = Registry::Instance().GetOrCreate("snap/a.cc");
  a.DeclareStatements(2);
  a.Stmt(0);
  auto rows = Snapshot();
  ASSERT_FALSE(rows.empty());
  CoverageRow avg = Average(rows);
  EXPECT_GE(avg.statement, 0.0);
  EXPECT_LE(avg.statement, 1.0);
}

TEST(CoverageTest, ConcurrentStatementProbes) {
  Unit u("mt");
  u.DeclareStatements(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&u] {
      for (int i = 0; i < 64; ++i) {
        for (int rep = 0; rep < 100; ++rep) u.Stmt(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(u.StatementCoverage(), 1.0);
  EXPECT_EQ(u.statements_hit(), 64);
}

TEST(CoverageTest, ConcurrentDecisionProbes) {
  Unit u("mt2");
  const int d = u.DeclareDecision(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&u, d, t] {
      for (int i = 0; i < 200; ++i) {
        const bool a = (i + t) % 2 == 0;
        const bool b = i % 3 == 0;
        u.Cond(d, 0, a);
        u.Cond(d, 1, b);
        u.Dec(d, a && b);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 1.0);
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), 2);
}

// Each thread fires its own statements and its own (mask, outcome) vectors
// on one shared Unit, many times over, under its own capture. A capture must
// hold exactly its thread's facts; the Unit holds their union.
TEST(CoverageConcurrencyTest, PerThreadCapturesSeeOnlyTheirOwnFacts) {
  constexpr int kThreads = 4;
  constexpr int kVectorsPerThread = 4;
  Unit u("mt/captures");
  u.DeclareStatements(kThreads * 2);
  const int d = u.DeclareDecision(4);
  std::vector<CoverSet> taken(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&u, &taken, d, t] {
      ThreadCapture capture;
      for (int rep = 0; rep < 200; ++rep) {
        u.Stmt(2 * t);
        u.Stmt(2 * t + 1);
        for (int v = 0; v < kVectorsPerThread; ++v) {
          const int mask = t * kVectorsPerThread + v;  // disjoint per thread
          for (int c = 0; c < 4; ++c) u.Cond(d, c, ((mask >> c) & 1) != 0);
          u.Dec(d, v % 2 == 0);
        }
      }
      taken[static_cast<std::size_t>(t)] = capture.Take();
    });
  }
  for (auto& th : threads) th.join();

  UnitCover all;
  for (int t = 0; t < kThreads; ++t) {
    UnitCover expected;
    expected.stmts = {2 * t, 2 * t + 1};
    DecisionCover& dec = expected.decisions[d];
    dec.num_conditions = 4;
    dec.seen_true = dec.seen_false = true;
    for (int v = 0; v < kVectorsPerThread; ++v) {
      dec.vectors.insert(
          {static_cast<std::uint64_t>(t * kVectorsPerThread + v), v % 2 == 0});
    }
    const CoverSet& got = taken[static_cast<std::size_t>(t)];
    ASSERT_EQ(got.size(), 1u) << "thread " << t;
    EXPECT_EQ(got.at("mt/captures"), expected) << "thread " << t;
    CoverSet merged{{"mt/captures", all}};
    MergeCover(&merged, got);
    all = merged.at("mt/captures");
  }
  EXPECT_EQ(u.TakeCover(), all);
  EXPECT_DOUBLE_EQ(u.StatementCoverage(), 1.0);
}

// Vector records exactly the fact Cond calls plus Dec would, through the
// same publish and capture path, and leaves pending Cond bits alone.
TEST(CoverageTest, VectorRecordsTheFactCondAndDecWould) {
  Unit probed("vector/probed");
  Unit direct("vector/direct");
  const int dp = probed.DeclareDecision(3);
  const int dd = direct.DeclareDecision(3);
  ThreadCapture capture;
  for (const std::uint64_t mask : {0b101u, 0b111u, 0b101u}) {
    for (int c = 0; c < 3; ++c) probed.Cond(dp, c, ((mask >> c) & 1) != 0);
    probed.Dec(dp, mask == 0b111u);
    direct.Vector(dd, mask, mask == 0b111u);
  }
  EXPECT_EQ(probed.TakeCover(), direct.TakeCover());
  const CoverSet got = capture.Take();
  EXPECT_EQ(got.at("vector/probed"), got.at("vector/direct"));

  // Pending bits survive a Vector on the same decision.
  direct.Cond(dd, 1, true);
  direct.Vector(dd, 0b001u, false);
  direct.Dec(dd, false);
  EXPECT_EQ(direct.TakeCover().decisions.at(dd).vectors,
            (std::set<std::pair<std::uint64_t, bool>>{
                {0b001u, false}, {0b010u, false}, {0b101u, false},
                {0b111u, true}}));

  // And a Reset makes a known vector publish again.
  direct.Reset();
  direct.Vector(dd, 0b111u, true);
  EXPECT_DOUBLE_EQ(direct.BranchCoverage(), 0.5);
}

// Probe misuse is a contract violation; escaping a noexcept frame, it ends
// the process. Condition indices and vector masks are checked against the
// decision's declared condition count, not only against 64.
TEST(CoverageDeathTest, CondIndexBeyondDeclaredConditionsDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Unit u("death/cond");
  const int d = u.DeclareDecision(2);
  u.Cond(d, 1, true);  // the last declared condition
  EXPECT_DEATH([&]() noexcept { u.Cond(d, 2, true); }(),
               "condition 2 out of range for decision");
  EXPECT_DEATH([&]() noexcept { u.Cond(d, -1, true); }(),
               "condition -1 out of range for decision");
}

TEST(CoverageDeathTest, VectorMaskBeyondDeclaredConditionsDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Unit u("death/vector");
  const int d = u.DeclareDecision(2);
  const int wide = u.DeclareDecision(64);
  u.Vector(d, 0b11u, true);     // the largest 2-condition mask
  u.Vector(wide, ~0ULL, true);  // every bit of a 64-condition mask
  EXPECT_DEATH([&]() noexcept { u.Vector(d, 0b100u, true); }(),
               "vector mask 4 has bits beyond the 2 conditions");
}

// The publish-once cache must not outlive a Reset: the same thread firing
// the same facts after Reset() makes them visible in the Unit again.
TEST(CoverageConcurrencyTest, ResetMakesKnownFactsPublishAgain) {
  Unit u("mt/reset");
  u.DeclareStatements(1);
  const int d = u.DeclareDecision(2);
  auto fire = [&u, d] {
    u.Stmt(0);
    u.Cond(d, 0, true);
    u.Cond(d, 1, false);
    u.Dec(d, false);
  };
  const UnitCover fired = [&] {
    fire();
    return u.TakeCover();
  }();
  ASSERT_EQ(fired.stmts.size(), 1u);
  u.Reset();
  EXPECT_TRUE(u.TakeCover().stmts.empty());
  fire();
  EXPECT_EQ(u.TakeCover(), fired);

  // Reset on another thread invalidates this thread's marks the same way.
  std::thread([&u] { u.Reset(); }).join();
  EXPECT_EQ(u.statements_hit(), 0);
  fire();
  EXPECT_EQ(u.TakeCover(), fired);
}

// A capture is independent of Unit::Reset: facts captured before a Reset
// stay in the capture, and facts re-fired after it are captured once.
TEST(CoverageConcurrencyTest, ResetDoesNotClearALiveCapture) {
  Unit u("mt/reset-capture");
  u.DeclareStatements(2);
  ThreadCapture capture;
  u.Stmt(0);
  u.Reset();
  u.Stmt(1);
  const CoverSet got = capture.Take();
  EXPECT_EQ(got.at("mt/reset-capture").stmts, (std::set<int>{0, 1}));
  EXPECT_EQ(u.TakeCover().stmts, std::set<int>{1});
}

// A destroyed Unit's slot goes to the next Unit built. The new Unit must
// not inherit the calling thread's marks (or its capture) from the old one.
TEST(CoverageConcurrencyTest, ReusedSlotStartsClean) {
  {
    Unit old_unit("slot/old");
    old_unit.DeclareStatements(2);
    const int d = old_unit.DeclareDecision(1);
    old_unit.Stmt(0);
    old_unit.Branch(d, true);
  }
  {
    Unit fresh("slot/new");  // takes the slot old_unit freed
    fresh.DeclareStatements(2);
    const int d = fresh.DeclareDecision(1);
    fresh.Stmt(0);
    fresh.Branch(d, true);
    EXPECT_EQ(fresh.statements_hit(), 1);
    EXPECT_DOUBLE_EQ(fresh.BranchCoverage(), 0.5);
  }

  ThreadCapture capture;
  {
    Unit old_unit("slot/old");
    old_unit.DeclareStatements(2);
    old_unit.Stmt(1);
  }
  Unit fresh("slot/new");
  fresh.DeclareStatements(2);
  fresh.Stmt(0);
  const CoverSet got = capture.Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.at("slot/new").stmts, std::set<int>{0});

  // Many short-lived Units in a row keep reusing slots and stay correct.
  for (int i = 0; i < 100; ++i) {
    Unit u("slot/churn");
    u.DeclareStatements(1);
    EXPECT_EQ(u.statements_hit(), 0);
    u.Stmt(0);
    EXPECT_EQ(u.statements_hit(), 1);
  }
}

TEST(CoverageConcurrencyTest, ConcurrentFunctionAndCallProbes) {
  Unit u("mt/functions");
  const int f_hot = u.DeclareFunctionProbe("hot");
  u.DeclareFunctionProbe("cold");
  const int c_hot = u.DeclareCallProbe("main", "hot");
  u.DeclareCallProbe("main", "cold");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&u, f_hot, c_hot] {
      for (int i = 0; i < 1000; ++i) {
        u.EnterFunction(f_hot);
        u.CallSite(c_hot);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(u.FunctionCoverage(), 0.5);
  EXPECT_DOUBLE_EQ(u.CallCoverage(), 0.5);
  EXPECT_EQ(u.UncoveredFunctions(), std::vector<std::string>{"cold"});
  u.Reset();
  EXPECT_DOUBLE_EQ(u.FunctionCoverage(), 0.0);
  EXPECT_EQ(u.UncoveredFunctions().size(), 2u);
}

// Property sweep: with a decision of N independent conditions driven through
// the 2^N full truth table of `AND`, every condition is demonstrated.
class McdcSweep : public ::testing::TestWithParam<int> {};

TEST_P(McdcSweep, FullTruthTableDemonstratesAllForAnd) {
  const int n = GetParam();
  Unit u("sweep");
  const int d = u.DeclareDecision(n);
  for (std::uint64_t v = 0; v < (1ULL << n); ++v) {
    bool outcome = true;
    for (int c = 0; c < n; ++c) {
      const bool val = (v >> c) & 1ULL;
      u.Cond(d, c, val);
      outcome = outcome && val;
    }
    u.Dec(d, outcome);
  }
  EXPECT_EQ(u.mcdc_conditions_demonstrated(), n);
  EXPECT_DOUBLE_EQ(u.McdcCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(u.BranchCoverage(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Conditions, McdcSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 10));

}  // namespace
}  // namespace certkit::cov
