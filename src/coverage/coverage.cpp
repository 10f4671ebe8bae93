#include "coverage/coverage.h"

#include <algorithm>
#include <atomic>

#include "support/check.h"

namespace certkit::cov {

namespace {

std::atomic<bool> g_probes_enabled{true};

// Reset epochs. Every Unit construction and every Unit::Reset draws a fresh
// value from this one counter, so no epoch is issued twice in a process: a
// per-thread table stamped by a destroyed Unit, or before a Reset, never
// matches the Unit that now owns its slot.
std::atomic<std::uint64_t> g_next_epoch{1};

std::uint64_t NextEpoch() {
  return g_next_epoch.fetch_add(1, std::memory_order_relaxed);
}

// Slot owners, by birth epoch (0 = free). A destroyed Unit's slot goes to
// the next Unit built, so the per-thread tables stay bounded by the most
// Units alive at once, not by every Unit ever built.
struct SlotOwners {
  std::mutex mu;
  std::vector<std::uint64_t> birth;
};

SlotOwners& Slots() {
  static SlotOwners* slots = new SlotOwners();
  return *slots;
}

int AcquireSlot(std::uint64_t birth) {
  SlotOwners& slots = Slots();
  std::lock_guard<std::mutex> lock(slots.mu);
  auto it = std::find(slots.birth.begin(), slots.birth.end(), 0u);
  if (it == slots.birth.end()) {
    it = slots.birth.insert(it, birth);
  } else {
    *it = birth;
  }
  return static_cast<int>(it - slots.birth.begin());
}

// Per-thread marks on one fact (a statement, or a (mask, outcome) vector,
// which carries its decision outcome). kPublished: the Unit has it since
// the table's epoch. kCaptured: the live ThreadCapture has it.
enum : std::uint8_t { kPublished = 1, kCaptured = 2 };

struct VectorMark {
  std::uint64_t mask;
  bool outcome;
  std::uint8_t marks;
};

struct ThreadDecision {
  std::uint64_t pending = 0;  // condition bits recorded since the last Dec
  // Distinct vectors this thread has evaluated: a handful per decision, so
  // a linear scan beats hashing.
  std::vector<VectorMark> vectors;
};

// One thread's view of one Unit slot, sized to the Unit's declarations.
struct SlotTable {
  const Unit* unit = nullptr;
  std::uint64_t birth = 0;    // owner identity; 0 = never used
  std::uint64_t epoch = 0;    // Unit epoch the kPublished marks refer to
  std::uint64_t capture = 0;  // capture generation of the kCaptured marks
  std::vector<std::uint8_t> stmts;
  std::vector<ThreadDecision> decisions;
};

struct ThreadState {
  std::vector<SlotTable> slots;  // by Unit slot
  ThreadCapture* capture = nullptr;
  // Bumped whenever a capture starts, takes or ends, which invalidates
  // every slot's kCaptured marks.
  std::uint64_t capture_generation = 1;
  std::vector<int> captured_slots;  // slots resynced under the live capture
};

thread_local ThreadState t_state;

// The marks a probe must find on a fact to skip it.
std::uint8_t Wanted() {
  return t_state.capture == nullptr ? kPublished : kPublished | kCaptured;
}

void ClearMarks(SlotTable* t, std::uint8_t mark) {
  for (std::uint8_t& m : t->stmts) m &= static_cast<std::uint8_t>(~mark);
  for (ThreadDecision& d : t->decisions) {
    for (VectorMark& v : d.vectors) {
      v.marks &= static_cast<std::uint8_t>(~mark);
    }
  }
}

void NewCaptureGeneration(ThreadState* s) {
  ++s->capture_generation;
  s->captured_slots.clear();
}

// The calling thread's table for `unit`, with marks valid for `epoch` and
// the current capture generation.
SlotTable& Local(const Unit* unit, int slot, std::uint64_t birth,
                 std::uint64_t epoch) {
  ThreadState& s = t_state;
  const auto index = static_cast<std::size_t>(slot);
  if (index >= s.slots.size()) s.slots.resize(index + 1);
  SlotTable& t = s.slots[index];
  if (t.epoch == epoch && t.capture == s.capture_generation) return t;
  if (t.birth != birth) {
    // First use of the slot, or its previous Unit was destroyed.
    t.unit = unit;
    t.birth = birth;
    t.stmts.clear();
    t.decisions.clear();
    t.capture = 0;
  } else if (t.epoch != epoch) {
    ClearMarks(&t, kPublished);  // the Unit was Reset
  }
  t.epoch = epoch;
  if (t.capture != s.capture_generation) {
    ClearMarks(&t, kCaptured);
    t.capture = s.capture_generation;
    if (s.capture != nullptr) s.captured_slots.push_back(slot);
  }
  return t;
}

ThreadDecision& DecisionOf(SlotTable* t, int decision_id,
                           std::size_t declared) {
  const auto index = static_cast<std::size_t>(decision_id);
  if (index >= t->decisions.size()) t->decisions.resize(declared);
  return t->decisions[index];
}

// Marks the vector (mask, outcome) in this thread's table of one decision.
// Returns true when the Unit does not have it yet since the table's epoch,
// i.e. when the caller must publish it.
bool MarkVector(ThreadDecision* dec, std::uint64_t mask, bool outcome) {
  auto it = std::find_if(dec->vectors.begin(), dec->vectors.end(),
                         [&](const VectorMark& v) {
                           return v.mask == mask && v.outcome == outcome;
                         });
  if (it == dec->vectors.end()) {
    it = dec->vectors.insert(it, VectorMark{mask, outcome, 0});
  }
  const bool publish = (it->marks & kPublished) == 0;
  it->marks |= Wanted();
  return publish;
}

// Test-before-set: a hit flag is written once, then only read, so the
// probes on every pipeline stage share its cache line without bouncing it.
void MarkHit(std::atomic<bool>* hit) {
  if (!hit->load(std::memory_order_relaxed)) {
    hit->store(true, std::memory_order_relaxed);
  }
}

}  // namespace

std::int64_t McdcDemonstrated(
    int num_conditions,
    const std::set<std::pair<std::uint64_t, bool>>& vectors) {
  std::int64_t demonstrated = 0;
  for (int c = 0; c < num_conditions; ++c) {
    const std::uint64_t bit = 1ULL << c;
    bool shown = false;
    // Unique-cause: two vectors differing only in condition c with
    // different outcomes.
    for (auto it = vectors.begin(); it != vectors.end() && !shown; ++it) {
      const std::uint64_t flipped = it->first ^ bit;
      // Both outcomes may exist for a vector; check both.
      if (vectors.count({flipped, !it->second}) > 0) {
        shown = true;
      }
    }
    if (shown) ++demonstrated;
  }
  return demonstrated;
}

std::int64_t MergeCover(CoverSet* dst, const CoverSet& src) {
  CERTKIT_CHECK(dst != nullptr);
  std::int64_t new_facts = 0;
  for (const auto& [name, unit_cover] : src) {
    UnitCover& into = (*dst)[name];
    for (const int stmt : unit_cover.stmts) {
      if (into.stmts.insert(stmt).second) ++new_facts;
    }
    for (const auto& [id, dec] : unit_cover.decisions) {
      DecisionCover& d = into.decisions[id];
      d.num_conditions = std::max(d.num_conditions, dec.num_conditions);
      if (dec.seen_true && !d.seen_true) {
        d.seen_true = true;
        ++new_facts;
      }
      if (dec.seen_false && !d.seen_false) {
        d.seen_false = true;
        ++new_facts;
      }
      for (const auto& vec : dec.vectors) {
        if (d.vectors.insert(vec).second) ++new_facts;
      }
    }
  }
  return new_facts;
}

void SetProbesEnabled(bool enabled) {
  g_probes_enabled.store(enabled, std::memory_order_relaxed);
}

bool ProbesEnabled() {
  return g_probes_enabled.load(std::memory_order_relaxed);
}

Unit::Unit(std::string name)
    : name_(std::move(name)),
      birth_(NextEpoch()),
      slot_(AcquireSlot(birth_)),
      epoch_(birth_) {}

Unit::~Unit() {
  SlotOwners& slots = Slots();
  std::lock_guard<std::mutex> lock(slots.mu);
  slots.birth[static_cast<std::size_t>(slot_)] = 0;
}

void Unit::DeclareStatements(int n) {
  CERTKIT_CHECK(n >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<std::size_t>(n) > stmt_hits_.size()) {
    stmt_hits_.resize(static_cast<std::size_t>(n), 0);
  }
}

int Unit::DeclareDecision(int num_conditions) {
  CERTKIT_CHECK(num_conditions >= 1 && num_conditions <= 64);
  std::lock_guard<std::mutex> lock(mu_);
  DecisionCover rec;
  rec.num_conditions = num_conditions;
  decisions_.push_back(std::move(rec));
  return static_cast<int>(decisions_.size()) - 1;
}

void Unit::Stmt(int id) {
  if (!ProbesEnabled()) return;
  CERTKIT_CHECK_MSG(id >= 0 && id < static_cast<int>(stmt_hits_.size()),
                    "statement probe " << id << " out of range in unit "
                                       << name_);
  SlotTable& t =
      Local(this, slot_, birth_, epoch_.load(std::memory_order_acquire));
  const auto index = static_cast<std::size_t>(id);
  if (index >= t.stmts.size()) t.stmts.resize(stmt_hits_.size(), 0);
  std::uint8_t& marks = t.stmts[index];
  const std::uint8_t want = Wanted();
  if ((marks & want) == want) return;
  if ((marks & kPublished) == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stmt_hits_[index] = 1;
  }
  marks |= want;
}

bool Unit::Cond(int decision_id, int index, bool value) {
  if (!ProbesEnabled()) return value;
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  CERTKIT_CHECK_MSG(
      index >= 0 &&
          index < decisions_[static_cast<std::size_t>(decision_id)]
                      .num_conditions,
      "condition " << index << " out of range for decision " << decision_id
                   << " in unit " << name_);
  SlotTable& t =
      Local(this, slot_, birth_, epoch_.load(std::memory_order_acquire));
  std::uint64_t& mask =
      DecisionOf(&t, decision_id, decisions_.size()).pending;
  if (value) {
    mask |= (1ULL << index);
  } else {
    mask &= ~(1ULL << index);
  }
  return value;
}

bool Unit::Dec(int decision_id, bool outcome) {
  if (!ProbesEnabled()) return outcome;
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  SlotTable& t =
      Local(this, slot_, birth_, epoch_.load(std::memory_order_acquire));
  ThreadDecision& dec = DecisionOf(&t, decision_id, decisions_.size());
  const std::uint64_t mask = dec.pending;
  dec.pending = 0;
  if (MarkVector(&dec, mask, outcome)) Publish(decision_id, mask, outcome);
  return outcome;
}

void Unit::Vector(int decision_id, std::uint64_t mask, bool outcome) {
  if (!ProbesEnabled()) return;
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  const int conditions =
      decisions_[static_cast<std::size_t>(decision_id)].num_conditions;
  CERTKIT_CHECK_MSG(conditions == 64 || (mask >> conditions) == 0,
                    "vector mask " << mask << " has bits beyond the "
                                   << conditions << " conditions of decision "
                                   << decision_id << " in unit " << name_);
  SlotTable& t =
      Local(this, slot_, birth_, epoch_.load(std::memory_order_acquire));
  ThreadDecision& dec = DecisionOf(&t, decision_id, decisions_.size());
  if (MarkVector(&dec, mask, outcome)) Publish(decision_id, mask, outcome);
}

void Unit::Publish(int decision_id, std::uint64_t mask, bool outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  DecisionCover& rec = decisions_[static_cast<std::size_t>(decision_id)];
  if (outcome) {
    rec.seen_true = true;
  } else {
    rec.seen_false = true;
  }
  rec.vectors.insert({mask, outcome});
}

bool Unit::Branch(int decision_id, bool outcome) {
  Cond(decision_id, 0, outcome);
  return Dec(decision_id, outcome);
}

int Unit::DeclareFunctionProbe(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  functions_.emplace_back(std::move(name));
  return static_cast<int>(functions_.size()) - 1;
}

void Unit::EnterFunction(int id) {
  if (!ProbesEnabled()) return;
  CERTKIT_CHECK(id >= 0 && id < static_cast<int>(functions_.size()));
  MarkHit(&functions_[static_cast<std::size_t>(id)].hit);
}

int Unit::DeclareCallProbe(std::string caller, std::string callee) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.emplace_back(std::move(caller) + " -> " + std::move(callee));
  return static_cast<int>(calls_.size()) - 1;
}

void Unit::CallSite(int id) {
  if (!ProbesEnabled()) return;
  CERTKIT_CHECK(id >= 0 && id < static_cast<int>(calls_.size()));
  MarkHit(&calls_[static_cast<std::size_t>(id)].hit);
}

double Unit::FunctionCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (functions_.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& f : functions_) {
    if (f.hit) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(functions_.size());
}

double Unit::CallCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (calls_.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& c : calls_) {
    if (c.hit) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(calls_.size());
}

std::vector<std::string> Unit::UncoveredFunctions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& f : functions_) {
    if (!f.hit) out.push_back(f.name);
  }
  return out;
}

std::int64_t Unit::statements_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(stmt_hits_.size());
}

std::int64_t Unit::statements_hit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::count(stmt_hits_.begin(), stmt_hits_.end(), 1);
}

double Unit::StatementCoverage() const {
  const std::int64_t total = statements_total();
  if (total == 0) return 1.0;
  return static_cast<double>(statements_hit()) / static_cast<double>(total);
}

double Unit::BranchCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (decisions_.empty()) return 1.0;
  std::int64_t seen = 0;
  for (const auto& d : decisions_) {
    if (d.seen_true) ++seen;
    if (d.seen_false) ++seen;
  }
  return static_cast<double>(seen) /
         (2.0 * static_cast<double>(decisions_.size()));
}

std::int64_t Unit::mcdc_conditions_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const auto& d : decisions_) n += d.num_conditions;
  return n;
}

std::int64_t Unit::mcdc_conditions_demonstrated() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t demonstrated = 0;
  for (const auto& d : decisions_) {
    demonstrated += McdcDemonstrated(d.num_conditions, d.vectors);
  }
  return demonstrated;
}

int Unit::declared_decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(decisions_.size());
}

int Unit::decision_conditions(int decision_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  return decisions_[static_cast<std::size_t>(decision_id)].num_conditions;
}

UnitCover Unit::TakeCover() const {
  UnitCover cover;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < stmt_hits_.size(); ++i) {
    if (stmt_hits_[i] != 0) cover.stmts.insert(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const DecisionCover& rec = decisions_[i];
    if (!rec.seen_true && !rec.seen_false && rec.vectors.empty()) continue;
    cover.decisions[static_cast<int>(i)] = rec;
  }
  return cover;
}

double Unit::McdcCoverage() const {
  const std::int64_t total = mcdc_conditions_total();
  if (total == 0) return 1.0;
  return static_cast<double>(mcdc_conditions_demonstrated()) /
         static_cast<double>(total);
}

void Unit::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(stmt_hits_.begin(), stmt_hits_.end(), 0);
  for (auto& d : decisions_) {
    d.seen_true = d.seen_false = false;
    d.vectors.clear();
  }
  for (auto& f : functions_) f.hit.store(false, std::memory_order_relaxed);
  for (auto& c : calls_) c.hit.store(false, std::memory_order_relaxed);
  // Released after the clears: a thread that sees the new epoch publishes
  // into the cleared state.
  epoch_.store(NextEpoch(), std::memory_order_release);
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();
  return *instance;
}

Unit& Registry::GetOrCreate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = units_.find(name);
  if (it == units_.end()) {
    it = units_.emplace(name, std::make_unique<Unit>(name)).first;
  }
  return *it->second;
}

std::vector<const Unit*> Registry::Units() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Unit*> out;
  out.reserve(units_.size());
  for (const auto& [name, unit] : units_) out.push_back(unit.get());
  return out;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, unit] : units_) unit->Reset();
}

std::vector<CoverageRow> Snapshot() {
  std::vector<CoverageRow> rows;
  for (const Unit* u : Registry::Instance().Units()) {
    rows.push_back(CoverageRow{u->name(), u->StatementCoverage(),
                               u->BranchCoverage(), u->McdcCoverage()});
  }
  return rows;
}

CoverageRow CoverRow(const Unit& unit, const UnitCover& cover) {
  CoverageRow row;
  row.unit = unit.name();

  const std::int64_t stmts_total = unit.statements_total();
  if (stmts_total == 0) {
    row.statement = 1.0;
  } else {
    std::int64_t hit = 0;
    for (const int id : cover.stmts) {
      if (id >= 0 && id < stmts_total) ++hit;
    }
    row.statement = static_cast<double>(hit) /
                    static_cast<double>(stmts_total);
  }

  const int decisions = unit.declared_decisions();
  if (decisions == 0) {
    row.branch = 1.0;
    row.mcdc = 1.0;
    return row;
  }
  std::int64_t outcomes = 0;
  std::int64_t conditions_total = 0;
  std::int64_t conditions_shown = 0;
  for (int d = 0; d < decisions; ++d) {
    const int num_conditions = unit.decision_conditions(d);
    conditions_total += num_conditions;
    const auto it = cover.decisions.find(d);
    if (it == cover.decisions.end()) continue;
    if (it->second.seen_true) ++outcomes;
    if (it->second.seen_false) ++outcomes;
    conditions_shown += McdcDemonstrated(num_conditions, it->second.vectors);
  }
  row.branch = static_cast<double>(outcomes) / (2.0 * decisions);
  row.mcdc = conditions_total == 0
                 ? 1.0
                 : static_cast<double>(conditions_shown) /
                       static_cast<double>(conditions_total);
  return row;
}

ThreadCapture::ThreadCapture() {
  ThreadState& s = t_state;
  CERTKIT_CHECK_MSG(s.capture == nullptr,
                    "nested ThreadCapture on the same thread");
  s.capture = this;
  NewCaptureGeneration(&s);
}

ThreadCapture::~ThreadCapture() {
  ThreadState& s = t_state;
  if (s.capture != this) return;
  s.capture = nullptr;
  NewCaptureGeneration(&s);
}

namespace {
// The facts carrying kCaptured in one thread's table for `t.unit`.
UnitCover CapturedCover(const SlotTable& t) {
  UnitCover cover;
  for (std::size_t i = 0; i < t.stmts.size(); ++i) {
    if ((t.stmts[i] & kCaptured) != 0) cover.stmts.insert(static_cast<int>(i));
  }
  for (std::size_t d = 0; d < t.decisions.size(); ++d) {
    for (const VectorMark& v : t.decisions[d].vectors) {
      if ((v.marks & kCaptured) == 0) continue;
      DecisionCover& dec = cover.decisions[static_cast<int>(d)];
      dec.num_conditions = t.unit->decision_conditions(static_cast<int>(d));
      if (v.outcome) {
        dec.seen_true = true;
      } else {
        dec.seen_false = true;
      }
      dec.vectors.insert({v.mask, v.outcome});
    }
  }
  return cover;
}
}  // namespace

CoverSet ThreadCapture::Take() {
  ThreadState& s = t_state;
  CERTKIT_CHECK_MSG(s.capture == this,
                    "ThreadCapture::Take on a different thread");
  CoverSet out;
  {
    // Held so no captured Unit is destroyed while it is read.
    SlotOwners& slots = Slots();
    std::lock_guard<std::mutex> lock(slots.mu);
    for (const int slot : s.captured_slots) {
      const SlotTable& t = s.slots[static_cast<std::size_t>(slot)];
      if (slots.birth[static_cast<std::size_t>(slot)] != t.birth) continue;
      UnitCover cover = CapturedCover(t);
      if (!cover.stmts.empty() || !cover.decisions.empty()) {
        out[t.unit->name()] = std::move(cover);
      }
    }
  }
  NewCaptureGeneration(&s);
  return out;
}

CoverageRow Average(const std::vector<CoverageRow>& rows) {
  CoverageRow avg;
  avg.unit = "average";
  if (rows.empty()) return avg;
  for (const auto& r : rows) {
    avg.statement += r.statement;
    avg.branch += r.branch;
    avg.mcdc += r.mcdc;
  }
  const double n = static_cast<double>(rows.size());
  avg.statement /= n;
  avg.branch /= n;
  avg.mcdc /= n;
  return avg;
}

}  // namespace certkit::cov
