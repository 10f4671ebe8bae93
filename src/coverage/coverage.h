// certkit coverage: a probe-based structural-coverage runtime implementing
// the three criteria the paper measures with RapiCover (Figure 5) and with
// host-compiled CUDA kernels (Figure 6):
//
//  * statement coverage — every declared statement probe executed;
//  * decision (branch) coverage — every decision evaluated to both true
//    and false;
//  * MC/DC — for every condition within a decision, two recorded evaluation
//    vectors differ ONLY in that condition and produce different decision
//    outcomes (unique-cause MC/DC).
//
// Subjects are instrumented explicitly: a translation unit obtains a Unit
// from the Registry, declares its probe counts, and wraps its statements and
// conditions with Stmt()/Cond()/Dec() calls. Instrumented conditions are
// evaluated eagerly (no short-circuit), which is the standard trade-off of
// source-level instrumentation and is documented in DESIGN.md.
//
// Coverage facts are sets: statement ids and distinct (condition mask,
// outcome) vectors per decision. Order and multiplicity never reach a
// cover or a ratio, so a hot loop may accumulate its facts in locals and
// publish each distinct one once per call (Vector, RecordVectors, Stmt)
// instead of probing every element.
//
// Thread safety: declarations (Declare*) finish before probes on the same
// Unit run concurrently. Probes may then fire from any number of threads
// (the campaign fleet and the GPU-on-CPU layer do). Each thread keeps its
// own dense table per Unit, so a probe takes the Unit's lock only on this
// thread's first sighting of a fact since the Unit's last Reset(); every
// later hit stays thread-local. Stmt, Dec and Vector share that path, so a
// summarized loop is attributed to a ThreadCapture exactly like a probed
// one. Function and call probes are lock-free atomic flags.
#ifndef CERTKIT_COVERAGE_COVERAGE_H_
#define CERTKIT_COVERAGE_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace certkit::cov {

// Global probe switch. Coverage collection is a build flavor in real
// deployments (instrumented vs release); here it is a runtime flag so the
// performance benchmarks can run the exact same code uninstrumented.
// Enabled by default.
void SetProbesEnabled(bool enabled);
bool ProbesEnabled();

// Unique-cause MC/DC analysis over a recorded vector set: the number of
// conditions (out of `num_conditions`) for which two vectors exist that
// differ ONLY in that condition and produce different decision outcomes.
// Vectors differing in more than one condition (masking vectors) never
// form a demonstrating pair. Shared by Unit and by detached covers.
std::int64_t McdcDemonstrated(
    int num_conditions,
    const std::set<std::pair<std::uint64_t, bool>>& vectors);

// --- diffable coverage covers (campaign-engine support) -------------------
//
// A "cover" is the execution state of coverage probes detached from the
// declaring Unit: which statement probes fired, which decision outcomes and
// evaluation vectors were seen. Covers are cheap to take (per-unit lock
// only — no global pause), cheap to diff, and merge monotonically, which is
// what a coverage-guided test-generation loop needs.

// Execution state of one decision, detached from its Unit.
struct DecisionCover {
  int num_conditions = 0;
  bool seen_true = false;
  bool seen_false = false;
  // Distinct evaluation vectors: (condition bitmask, outcome).
  std::set<std::pair<std::uint64_t, bool>> vectors;

  bool operator==(const DecisionCover&) const = default;
};

// Execution state of one unit.
struct UnitCover {
  std::set<int> stmts;                   // statement probe ids that fired
  std::map<int, DecisionCover> decisions;  // by decision id

  bool operator==(const UnitCover&) const = default;
};

// Covers for many units, keyed by unit name (stable iteration order).
using CoverSet = std::map<std::string, UnitCover>;

// Merges `src` into `dst`. Returns the number of probe facts in `src` that
// were new to `dst`: first-seen statements, decision outcomes, and
// evaluation vectors. Zero means `src` adds no coverage.
std::int64_t MergeCover(CoverSet* dst, const CoverSet& src);

// Coverage state for one instrumented translation unit.
class Unit {
 public:
  explicit Unit(std::string name);
  ~Unit();
  Unit(const Unit&) = delete;
  Unit& operator=(const Unit&) = delete;

  const std::string& name() const { return name_; }

  // --- declaration (before execution) ---
  // Declares `n` statement probes with ids [0, n).
  void DeclareStatements(int n);
  // Declares a decision with `num_conditions` conditions (1..64).
  // Returns its id; ids are dense from 0.
  int DeclareDecision(int num_conditions);

  // --- probes (during execution) ---
  // Marks statement `id` executed.
  void Stmt(int id);
  // Records condition `index` (< the decision's declared conditions) of
  // decision `decision_id` as `value`; returns `value` so probes compose
  // inline.
  bool Cond(int decision_id, int index, bool value);
  // Records the decision outcome (with the condition vector accumulated by
  // Cond calls on this thread since the last Dec for this decision);
  // returns `outcome`.
  bool Dec(int decision_id, bool outcome);
  // Records the evaluation vector (`mask`, `outcome`) directly: the same
  // fact as Cond calls setting exactly the bits of `mask` followed by
  // Dec(decision_id, outcome). `mask` must be below 2^conditions. Pending
  // Cond bits are left alone. This is how a hot loop publishes the vectors
  // it accumulated in locals, once per call.
  void Vector(int decision_id, std::uint64_t mask, bool outcome);

  // Convenience for single-condition decisions: records condition 0 and the
  // outcome in one call.
  bool Branch(int decision_id, bool outcome);

  // --- architectural-level coverage (ISO 26262-6 Table 12) ---
  // Declares a function probe; EnterFunction marks it executed.
  int DeclareFunctionProbe(std::string name);
  void EnterFunction(int id);
  // Declares a caller->callee edge probe; CallSite marks it executed.
  int DeclareCallProbe(std::string caller, std::string callee);
  void CallSite(int id);

  // --- declared totals (for computing rates against detached covers) ---
  int declared_decisions() const;
  // Conditions of decision `decision_id` (declared; 1..64).
  int decision_conditions(int decision_id) const;

  // Cheap diffable snapshot of this unit's execution state. Takes only this
  // unit's mutex — probes on other threads (and other units) keep running.
  UnitCover TakeCover() const;

  // --- results ---
  std::int64_t statements_total() const;
  std::int64_t statements_hit() const;
  double StatementCoverage() const;  // in [0,1]; 1.0 when nothing declared
  double BranchCoverage() const;     // outcomes seen / (2 * decisions)
  double McdcCoverage() const;       // independent conditions / conditions
  double FunctionCoverage() const;   // functions entered / declared
  double CallCoverage() const;       // call edges executed / declared
  // Names of declared-but-never-entered functions (reporting).
  std::vector<std::string> UncoveredFunctions() const;
  // Conditions demonstrated independent, per unique-cause analysis.
  std::int64_t mcdc_conditions_demonstrated() const;
  std::int64_t mcdc_conditions_total() const;

  void Reset();  // clears execution state, keeps declarations

 private:
  struct NamedProbe {
    explicit NamedProbe(std::string probe_name) : name(std::move(probe_name)) {}
    std::string name;
    std::atomic<bool> hit{false};
  };

  // Writes a vector this thread is the first to see since the last Reset.
  void Publish(int decision_id, std::uint64_t mask, bool outcome);

  std::string name_;
  // Identity and per-thread table index. `birth_` is the epoch drawn at
  // construction; `slot_` is dense and reused after the Unit is destroyed.
  const std::uint64_t birth_;
  const int slot_;
  // Redrawn by Reset(): a thread whose table carries an older epoch
  // publishes its facts again.
  std::atomic<std::uint64_t> epoch_;
  mutable std::mutex mu_;
  std::vector<std::uint8_t> stmt_hits_;     // guarded by mu_
  std::vector<DecisionCover> decisions_;    // guarded by mu_
  std::deque<NamedProbe> functions_;  // deque: hit flags never move
  std::deque<NamedProbe> calls_;
};

// Outcome tables for RecordVectors: bit m is the decision's outcome when
// its condition mask is m.
inline constexpr std::uint32_t kOutcomeIsCondition = 0b10;  // c0
inline constexpr std::uint32_t kOutcomeAnd2 = 0b1000;       // c0 && c1
inline constexpr std::uint32_t kOutcomeOr2 = 0b1110;        // c0 || c1

// Publishes the distinct evaluation vectors a loop saw for one decision of
// at most five conditions: for every condition mask m whose bit is set in
// `seen`, the vector (m, bit m of `outcomes`), and the statement that
// outcome leads to (`stmt_true` or `stmt_false`; -1 when it leads to none).
inline void RecordVectors(Unit* unit, int decision_id, std::uint32_t seen,
                          std::uint32_t outcomes, int stmt_true = -1,
                          int stmt_false = -1) {
  for (std::uint32_t m = 0; m < 32 && (seen >> m) != 0; ++m) {
    if (((seen >> m) & 1u) == 0) continue;
    const bool outcome = ((outcomes >> m) & 1u) != 0;
    unit->Vector(decision_id, m, outcome);
    const int stmt = outcome ? stmt_true : stmt_false;
    if (stmt >= 0) unit->Stmt(stmt);
  }
}

// Process-wide registry of units, keyed by name.
class Registry {
 public:
  static Registry& Instance();

  // Returns the unit named `name`, creating it on first use.
  Unit& GetOrCreate(const std::string& name);
  // Units in name order (stable for reports).
  std::vector<const Unit*> Units() const;
  void ResetAll();

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Unit>> units_;
};

// One row of a coverage report (per file/unit).
struct CoverageRow {
  std::string unit;
  double statement = 0.0;
  double branch = 0.0;
  double mcdc = 0.0;
};

// Snapshot of all registered units.
std::vector<CoverageRow> Snapshot();
// Averages across rows (uniform weight per unit, as in Figure 5's summary).
CoverageRow Average(const std::vector<CoverageRow>& rows);

// Coverage rates of `cover` measured against `unit`'s declarations. The
// cover need not have been taken from `unit`, but probe ids are interpreted
// against its declared statement/decision layout; ids beyond the
// declarations are ignored.
CoverageRow CoverRow(const Unit& unit, const UnitCover& cover);

// Captures every probe the *calling thread* fires between construction and
// Take()/destruction, in addition to the normal global recording. This is
// how a fleet worker attributes coverage to the one candidate it is
// executing while other workers hammer the same Units concurrently: the
// capture marks facts in the thread's own probe tables, so it sees exactly
// this thread's probes and costs the other threads nothing. At most one
// capture may be active per thread; the object must be used on the thread
// that created it.
class ThreadCapture {
 public:
  ThreadCapture();
  ~ThreadCapture();
  ThreadCapture(const ThreadCapture&) = delete;
  ThreadCapture& operator=(const ThreadCapture&) = delete;

  // Returns everything captured so far and clears the buffer. Units
  // destroyed since they were captured are left out.
  CoverSet Take();
};

}  // namespace certkit::cov

#endif  // CERTKIT_COVERAGE_COVERAGE_H_
