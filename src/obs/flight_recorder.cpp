#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "timing/timing.h"

namespace certkit::obs {

namespace {

// ---------------------------------------------------------------------------
// Ring storage. Everything the dump path touches is a plain atomic in
// static storage: no allocation, no locks, constant-initialized.
// ---------------------------------------------------------------------------

// One 40-byte-payload event record behind a per-slot seqlock. The writer
// bumps `version` to odd, stores the fields, bumps it back to even; a
// reader that sees the same even version on both sides of its field reads
// got a consistent record. All fields are atomics so concurrent access is
// defined (and TSan-clean) even while torn reads are being retried.
struct Slot {
  std::atomic<std::uint32_t> version{0};
  std::atomic<std::uint32_t> type{0};
  std::atomic<std::uint32_t> a{0};
  std::atomic<std::uint32_t> b{0};
  std::atomic<std::uint64_t> seq{0};  // 0 = never written
  std::atomic<std::int64_t> c{0};
  std::atomic<std::uint64_t> wall_ns{0};
};

struct Ring {
  Slot slots[kFlightRingCapacity];
  // Total records ever written to this ring; only the owning thread
  // writes it. The slot for record n is slots[n % capacity].
  std::atomic<std::uint64_t> cursor{0};
};

Ring g_rings[kFlightMaxRings];

std::atomic<bool> g_enabled{true};
std::atomic<bool> g_wall_clock{false};
std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::int64_t> g_events{0};
std::atomic<std::int64_t> g_dropped{0};

// Ring claim bookkeeping. Claim/release happen once per thread lifetime —
// not a hot path — so a mutex-guarded free stack is simpler and immune to
// the ABA hazard a lock-free index stack would carry. The signal handler
// never claims a ring, so the mutex never appears in signal context.
std::mutex g_claim_mu;
int g_free_stack[kFlightMaxRings];
int g_free_top = 0;                       // entries in g_free_stack
std::atomic<int> g_ring_high_water{0};    // rings ever claimed
std::atomic<int> g_rings_in_use{0};

int AcquireRingIndex() {
  std::lock_guard<std::mutex> lock(g_claim_mu);
  int index = -1;
  if (g_free_top > 0) {
    index = g_free_stack[--g_free_top];
  } else {
    const int fresh = g_ring_high_water.load(std::memory_order_relaxed);
    if (fresh >= kFlightMaxRings) return -1;
    g_ring_high_water.store(fresh + 1, std::memory_order_release);
    index = fresh;
  }
  g_rings_in_use.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void ReleaseRingIndex(int index) {
  std::lock_guard<std::mutex> lock(g_claim_mu);
  g_free_stack[g_free_top++] = index;
  g_rings_in_use.fetch_sub(1, std::memory_order_relaxed);
}

// Thread → ring binding. -1 = not yet claimed; -2 = pool exhausted (cached
// so a starved thread drops events without re-taking the claim mutex).
struct RingHandle {
  int index = -1;
  ~RingHandle() {
    if (index >= 0) ReleaseRingIndex(index);
  }
};
thread_local RingHandle t_ring;

std::uint64_t WallNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Replay-artifact pointer: a fixed buffer behind its own seqlock so the
// signal-handler dump can read it without a lock.
// ---------------------------------------------------------------------------

constexpr std::size_t kArtifactMax = 512;
std::mutex g_artifact_mu;  // serializes writers only
// Atomic bytes, not a plain char array: the seqlock makes mixed reads
// detectable-and-retried, but the byte stores themselves must still be
// data-race-free for the TSan tree (same reasoning as the Slot fields).
std::atomic<char> g_artifact[kArtifactMax];
std::atomic<std::size_t> g_artifact_len{0};
std::atomic<std::uint32_t> g_artifact_version{0};

// ---------------------------------------------------------------------------
// Signal / oracle trigger state.
// ---------------------------------------------------------------------------

std::atomic<int> g_dump_fd{-1};
std::atomic<bool> g_signal_dumped{false};

std::atomic<bool> g_oracle_armed{false};
std::atomic<bool> g_oracle_dumped{false};
std::mutex g_oracle_mu;  // guards g_oracle_path writes
char g_oracle_path[kArtifactMax];

// ---------------------------------------------------------------------------
// Async-signal-safe emitter: a small stack buffer flushed through a sink
// function pointer. The fd sink uses only write(2); the string sink is for
// non-signal contexts (FlightDumpString).
// ---------------------------------------------------------------------------

struct Sink {
  bool (*flush)(void* ctx, const char* data, std::size_t n);
  void* ctx;
  char buf[1024];
  std::size_t len = 0;
  bool failed = false;
};

bool SinkFlush(Sink& s) {
  if (s.len == 0 || s.failed) return !s.failed;
  if (!s.flush(s.ctx, s.buf, s.len)) s.failed = true;
  s.len = 0;
  return !s.failed;
}

void SinkBytes(Sink& s, const char* data, std::size_t n) {
  while (n > 0 && !s.failed) {
    const std::size_t room = sizeof(s.buf) - s.len;
    const std::size_t take = n < room ? n : room;
    std::memcpy(s.buf + s.len, data, take);
    s.len += take;
    data += take;
    n -= take;
    if (s.len == sizeof(s.buf)) SinkFlush(s);
  }
}

void SinkStr(Sink& s, const char* str) { SinkBytes(s, str, std::strlen(str)); }

void SinkU64(Sink& s, std::uint64_t v) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v > 0);
  char out[24];
  for (int i = 0; i < n; ++i) out[i] = digits[n - 1 - i];
  SinkBytes(s, out, static_cast<std::size_t>(n));
}

void SinkI64(Sink& s, std::int64_t v) {
  if (v < 0) {
    SinkBytes(s, "-", 1);
    SinkU64(s, static_cast<std::uint64_t>(-(v + 1)) + 1);
  } else {
    SinkU64(s, static_cast<std::uint64_t>(v));
  }
}

// Fixed 6-fraction-digit rendering (no snprintf in signal context). Callers
// guard against non-finite values; the fallback emits 0 rather than
// corrupt JSON.
void SinkFixed(Sink& s, double v) {
  if (!(v == v) || v > 9.2e18 || v < -9.2e18) {
    SinkBytes(s, "0", 1);
    return;
  }
  if (v < 0) {
    SinkBytes(s, "-", 1);
    v = -v;
  }
  std::uint64_t whole = static_cast<std::uint64_t>(v);
  std::uint64_t frac =
      static_cast<std::uint64_t>((v - static_cast<double>(whole)) * 1e6 + 0.5);
  if (frac >= 1000000) {
    ++whole;
    frac = 0;
  }
  SinkU64(s, whole);
  char fd6[7] = {'.', '0', '0', '0', '0', '0', '0'};
  for (int i = 6; i >= 1; --i) {
    fd6[i] = static_cast<char>('0' + frac % 10);
    frac /= 10;
  }
  SinkBytes(s, fd6, 7);
}

void SinkJsonString(Sink& s, const char* str, std::size_t n) {
  SinkBytes(s, "\"", 1);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(str[i]);
    if (c == '"' || c == '\\') {
      const char esc[2] = {'\\', static_cast<char>(c)};
      SinkBytes(s, esc, 2);
    } else if (c < 0x20) {
      char esc[7] = {'\\', 'u', '0', '0', '0', '0', '\0'};
      const char* hex = "0123456789abcdef";
      esc[4] = hex[(c >> 4) & 0xF];
      esc[5] = hex[c & 0xF];
      SinkBytes(s, esc, 6);
    } else {
      SinkBytes(s, reinterpret_cast<const char*>(&c), 1);
    }
  }
  SinkBytes(s, "\"", 1);
}

bool FdFlush(void* ctx, const char* data, std::size_t n) {
  const int fd = *static_cast<const int*>(ctx);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

bool StringFlush(void* ctx, const char* data, std::size_t n) {
  static_cast<std::string*>(ctx)->append(data, n);
  return true;
}

// ---------------------------------------------------------------------------
// Slot read (seqlock consumer) and per-ring drain.
// ---------------------------------------------------------------------------

struct Rec {
  std::uint64_t seq = 0;
  std::uint32_t type = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::int64_t c = 0;
  std::uint64_t wall_ns = 0;
};

bool ReadSlot(const Slot& slot, Rec* out) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1u) continue;  // mid-write
    Rec r;
    r.seq = slot.seq.load(std::memory_order_relaxed);
    r.type = slot.type.load(std::memory_order_relaxed);
    r.a = slot.a.load(std::memory_order_relaxed);
    r.b = slot.b.load(std::memory_order_relaxed);
    r.c = slot.c.load(std::memory_order_relaxed);
    r.wall_ns = slot.wall_ns.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v1) continue;
    if (r.seq == 0) return false;  // never written
    *out = r;
    return true;
  }
  return false;  // persistently torn — writer is lapping us; skip
}

// Drains one ring into `recs` (capacity kFlightRingCapacity), sorted by
// sequence number. Returns the record count.
int DrainRing(const Ring& ring, Rec* recs) {
  int n = 0;
  for (int i = 0; i < kFlightRingCapacity; ++i) {
    Rec r;
    if (ReadSlot(ring.slots[i], &r)) recs[n++] = r;
  }
  // Insertion sort by seq: slots are nearly ordered already (ring order
  // modulo the wrap point), and the signal path cannot call std::sort's
  // potential allocations anyway.
  for (int i = 1; i < n; ++i) {
    const Rec key = recs[i];
    int j = i - 1;
    while (j >= 0 && recs[j].seq > key.seq) {
      recs[j + 1] = recs[j];
      --j;
    }
    recs[j + 1] = key;
  }
  return n;
}

void EmitEvent(Sink& s, const Rec& r) {
  SinkStr(s, "{\"seq\":");
  SinkU64(s, r.seq);
  SinkStr(s, ",\"type\":\"");
  SinkStr(s, FlightEventTypeName(r.type));
  SinkStr(s, "\"");
  switch (static_cast<FlightEventType>(r.type)) {
    case FlightEventType::kStageBegin:
    case FlightEventType::kStageEnd:
      SinkStr(s, ",\"stage\":\"");
      SinkStr(s, FlightStageName(r.a));
      SinkStr(s, "\",\"tick\":");
      SinkI64(s, r.c);
      break;
    case FlightEventType::kMonitorVerdict:
      SinkStr(s, ",\"monitor\":\"");
      SinkStr(s, FlightMonitorName(r.a));
      SinkStr(s, "\",\"severity\":");
      SinkU64(s, r.b & 0xFFu);
      SinkStr(s, ",\"handled\":");
      SinkStr(s, (r.b >> 8) ? "true" : "false");
      SinkStr(s, ",\"tick\":");
      SinkI64(s, r.c);
      break;
    case FlightEventType::kSafetyTransition:
      SinkStr(s, ",\"state\":\"");
      SinkStr(s, FlightSafetyStateName(r.a));
      SinkStr(s, "\",\"from\":\"");
      SinkStr(s, FlightSafetyStateName(r.b));
      SinkStr(s, "\",\"transition\":");
      SinkI64(s, r.c);
      break;
    case FlightEventType::kCandidateBegin:
    case FlightEventType::kCandidateEnd:
    case FlightEventType::kCandidateKept:
      SinkStr(s, ",\"candidate\":");
      SinkI64(s, r.c);
      break;
    case FlightEventType::kServeBegin:
      SinkStr(s, ",\"request\":");
      SinkI64(s, r.c);
      break;
    case FlightEventType::kServeEnd:
      SinkStr(s, ",\"request\":");
      SinkI64(s, r.c);
      SinkStr(s, ",\"ok\":");
      SinkStr(s, r.a ? "true" : "false");
      break;
  }
  if (r.wall_ns != 0) {
    SinkStr(s, ",\"wall_ns\":");
    SinkU64(s, r.wall_ns);
  }
  SinkStr(s, "}");
}

// The wall-clock fields of a timer row, in microseconds: the metrics-JSON
// timer schema, rendered through the signal-safe sink.
void EmitTimerStats(Sink& s, const timing::TimingStats& t) {
  const std::pair<const char*, double> fields[] = {
      {",\"mean_us\":", t.mean}, {",\"min_us\":", t.min},
      {",\"p50_us\":", t.p50},   {",\"p90_us\":", t.p90},
      {",\"p95_us\":", t.p95},   {",\"p99_us\":", t.p99},
      {",\"max_us\":", t.max}};
  for (const auto& [key, seconds] : fields) {
    SinkStr(s, key);
    SinkFixed(s, seconds * 1e6);
  }
}

void EmitMetrics(Sink& s) {
  const MetricsRegistry::Published& metrics =
      MetricsRegistry::Instance().published();
  const int n = metrics.size();
  const bool timing = g_wall_clock.load(std::memory_order_relaxed);
  SinkStr(s, "\"metrics\":{\"counters\":{");
  bool first = true;
  for (int i = 0; i < n; ++i) {
    const PublishedMetric& m = metrics[i];
    if (m.kind != MetricKind::kCounter) continue;
    if (!first) SinkStr(s, ",");
    first = false;
    SinkJsonString(s, m.name->c_str(), m.name->size());
    SinkStr(s, ":");
    SinkI64(s, static_cast<const Counter*>(m.metric)->value());
  }
  SinkStr(s, "},\"gauges\":{");
  first = true;
  for (int i = 0; i < n; ++i) {
    const PublishedMetric& m = metrics[i];
    if (m.kind != MetricKind::kGauge) continue;
    if (!first) SinkStr(s, ",");
    first = false;
    SinkJsonString(s, m.name->c_str(), m.name->size());
    SinkStr(s, ":");
    SinkFixed(s, static_cast<const Gauge*>(m.metric)->value());
  }
  // Timers: the per-stage duration sinks. Counts are deterministic; the
  // statistics are wall clock, so they follow the --timing convention.
  SinkStr(s, "},\"timers\":{");
  const timing::TimerRegistry::Published& timers =
      timing::TimerRegistry::Instance().published();
  const int timer_count = timers.size();
  for (int i = 0; i < timer_count; ++i) {
    const timing::ExecutionTimer* t = timers[i];
    if (i > 0) SinkStr(s, ",");
    SinkJsonString(s, t->name().c_str(), t->name().size());
    const timing::TimingStats stats = t->GetStats();
    SinkStr(s, ":{\"count\":");
    SinkI64(s, stats.count);
    if (timing && stats.count > 0) EmitTimerStats(s, stats);
    SinkStr(s, "}");
  }
  SinkStr(s, "}}");
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGFPE:
      return "SIGFPE";
    default:
      return "SIGNAL";
  }
}

bool WriteDumpToSink(Sink& s, FlightDumpTrigger trigger, int signal_number) {
  SinkStr(s, "{\"flight_dump\":{\"schema\":1,\"trigger\":{\"kind\":\"");
  switch (trigger) {
    case FlightDumpTrigger::kSignal:
      SinkStr(s, "signal\",\"signal\":");
      SinkI64(s, signal_number);
      SinkStr(s, ",\"name\":\"");
      SinkStr(s, SignalName(signal_number));
      SinkStr(s, "\"");
      break;
    case FlightDumpTrigger::kOracle:
      SinkStr(s, "oracle\"");
      break;
    case FlightDumpTrigger::kExplicit:
      SinkStr(s, "explicit\"");
      break;
  }
  SinkStr(s, "}");

  // Pass 1: headline state — the latest completed (non-tick) stage and the
  // latest degradation state across every ring.
  const int rings = g_ring_high_water.load(std::memory_order_acquire);
  std::uint64_t stage_seq = 0, state_seq = 0;
  std::uint32_t last_stage = 0, last_state = 0;
  bool have_stage = false, have_state = false;
  for (int ri = 0; ri < rings && ri < kFlightMaxRings; ++ri) {
    for (int i = 0; i < kFlightRingCapacity; ++i) {
      Rec r;
      if (!ReadSlot(g_rings[ri].slots[i], &r)) continue;
      if (r.type == static_cast<std::uint32_t>(FlightEventType::kStageEnd) &&
          r.a != static_cast<std::uint32_t>(FlightStage::kTick) &&
          r.seq > stage_seq) {
        stage_seq = r.seq;
        last_stage = r.a;
        have_stage = true;
      }
      if (r.type ==
              static_cast<std::uint32_t>(FlightEventType::kSafetyTransition) &&
          r.seq > state_seq) {
        state_seq = r.seq;
        last_state = r.a;
        have_state = true;
      }
    }
  }
  SinkStr(s, ",\"last_completed_stage\":\"");
  SinkStr(s, have_stage ? FlightStageName(last_stage) : "none");
  SinkStr(s, "\",\"safety_state\":\"");
  SinkStr(s, have_state ? FlightSafetyStateName(last_state) : "nominal");
  SinkStr(s, "\",\"events_recorded\":");
  SinkI64(s, g_events.load(std::memory_order_relaxed));
  SinkStr(s, ",\"events_dropped\":");
  SinkI64(s, g_dropped.load(std::memory_order_relaxed));

  // Replay-artifact pointer, read through its seqlock (never blocks).
  char artifact[kArtifactMax];
  std::size_t artifact_len = 0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t v1 = g_artifact_version.load(std::memory_order_acquire);
    if (v1 & 1u) continue;
    const std::size_t len = g_artifact_len.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < len; ++i) {
      artifact[i] = g_artifact[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (g_artifact_version.load(std::memory_order_relaxed) == v1) {
      artifact_len = len;
      break;
    }
  }
  if (artifact_len > 0) {
    SinkStr(s, ",\"artifact\":");
    SinkJsonString(s, artifact, artifact_len);
  }

  // Pass 2: drain every ring, oldest surviving record first.
  SinkStr(s, ",\"threads\":[");
  static_assert(kFlightRingCapacity <= 256, "stack drain buffer sizing");
  Rec recs[kFlightRingCapacity];
  bool first_ring = true;
  for (int ri = 0; ri < rings && ri < kFlightMaxRings; ++ri) {
    const int n = DrainRing(g_rings[ri], recs);
    if (n == 0) continue;
    if (!first_ring) SinkStr(s, ",");
    first_ring = false;
    SinkStr(s, "{\"ring\":");
    SinkI64(s, ri);
    SinkStr(s, ",\"events\":[");
    for (int i = 0; i < n; ++i) {
      if (i > 0) SinkStr(s, ",");
      EmitEvent(s, recs[i]);
    }
    SinkStr(s, "]}");
  }
  SinkStr(s, "],");
  EmitMetrics(s);
  SinkStr(s, "}}\n");
  SinkFlush(s);
  return !s.failed;
}

void FatalSignalHandler(int sig) {
  // One dump per process; a second fault (or a racing second thread) skips
  // straight to re-raising.
  if (!g_signal_dumped.exchange(true)) {
    const int fd = g_dump_fd.load(std::memory_order_acquire);
    if (fd >= 0) {
      ::lseek(fd, 0, SEEK_SET);
      while (::ftruncate(fd, 0) < 0 && errno == EINTR) {
      }
      WriteFlightDumpFd(fd, FlightDumpTrigger::kSignal, sig);
      ::fsync(fd);
    }
  }
  // SA_RESETHAND restored the default disposition on handler entry; the
  // re-raised signal is delivered when the handler returns, so the process
  // still dies with the original signal's termination status.
  ::raise(sig);
}

}  // namespace

const char* FlightEventTypeName(std::uint32_t type) {
  switch (static_cast<FlightEventType>(type)) {
    case FlightEventType::kStageBegin:
      return "stage_begin";
    case FlightEventType::kStageEnd:
      return "stage_end";
    case FlightEventType::kMonitorVerdict:
      return "monitor";
    case FlightEventType::kSafetyTransition:
      return "safety_state";
    case FlightEventType::kCandidateBegin:
      return "candidate_begin";
    case FlightEventType::kCandidateEnd:
      return "candidate_end";
    case FlightEventType::kCandidateKept:
      return "candidate_kept";
    case FlightEventType::kServeBegin:
      return "serve_begin";
    case FlightEventType::kServeEnd:
      return "serve_end";
  }
  return "unknown";
}

const char* FlightStageName(std::uint32_t stage) {
  switch (static_cast<FlightStage>(stage)) {
    case FlightStage::kTick:
      return "tick";
    case FlightStage::kScenario:
      return "scenario";
    case FlightStage::kPerception:
      return "perception";
    case FlightStage::kPrediction:
      return "prediction";
    case FlightStage::kPlanning:
      return "planning";
    case FlightStage::kControl:
      return "control";
    case FlightStage::kSafety:
      return "safety";
    case FlightStage::kCanBus:
      return "canbus";
    case FlightStage::kLocalization:
      return "localization";
  }
  return "unknown";
}

const char* FlightSafetyStateName(std::uint32_t state) {
  switch (state) {
    case 0:
      return "nominal";
    case 1:
      return "limp_home";
    case 2:
      return "safe_stop";
    default:
      return "unknown";
  }
}

const char* FlightMonitorName(std::uint32_t monitor) {
  switch (monitor) {
    case 0:
      return "range";
    case 1:
      return "plausibility";
    case 2:
      return "deadline";
    case 3:
      return "control_flow";
    case 4:
      return "command";
    case 5:
      return "can_bus";
    default:
      return "unknown";
  }
}

void SetFlightRecorderEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool FlightRecorderEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void SetFlightWallClock(bool enabled) {
  g_wall_clock.store(enabled, std::memory_order_relaxed);
}

void RecordFlightEvent(FlightEventType type, std::uint32_t a, std::uint32_t b,
                       std::int64_t c) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (t_ring.index < 0) {
    if (t_ring.index == -2 || (t_ring.index = AcquireRingIndex()) < 0) {
      t_ring.index = -2;
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  Ring& ring = g_rings[t_ring.index];
  const std::uint64_t cursor = ring.cursor.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[cursor % kFlightRingCapacity];
  const std::uint32_t version = slot.version.load(std::memory_order_relaxed);
  slot.version.store(version + 1, std::memory_order_relaxed);  // odd: writing
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(g_seq.fetch_add(1, std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  slot.type.store(static_cast<std::uint32_t>(type), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  slot.wall_ns.store(
      g_wall_clock.load(std::memory_order_relaxed) ? WallNowNs() : 0,
      std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.version.store(version + 2, std::memory_order_relaxed);  // even: stable
  ring.cursor.store(cursor + 1, std::memory_order_release);
  g_events.fetch_add(1, std::memory_order_relaxed);
}

FlightStageScope::FlightStageScope(FlightStage stage, std::int64_t tick)
    : stage_(stage), tick_(tick) {
  RecordFlightEvent(FlightEventType::kStageBegin,
                    static_cast<std::uint32_t>(stage_), 0, tick_);
}

FlightStageScope::~FlightStageScope() {
  RecordFlightEvent(FlightEventType::kStageEnd,
                    static_cast<std::uint32_t>(stage_), 0, tick_);
}

FlightRecorderStats GetFlightRecorderStats() {
  FlightRecorderStats stats;
  stats.events = g_events.load(std::memory_order_relaxed);
  stats.dropped = g_dropped.load(std::memory_order_relaxed);
  stats.rings_in_use = g_rings_in_use.load(std::memory_order_relaxed);
  stats.ring_capacity = kFlightRingCapacity;
  return stats;
}

void SetFlightArtifactPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_artifact_mu);
  const std::size_t len = path.size() < kArtifactMax ? path.size() : 0;
  const std::uint32_t v = g_artifact_version.load(std::memory_order_relaxed);
  g_artifact_version.store(v + 1, std::memory_order_relaxed);  // odd
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < len; ++i) {
    g_artifact[i].store(path[i], std::memory_order_relaxed);
  }
  g_artifact_len.store(len, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  g_artifact_version.store(v + 2, std::memory_order_release);  // even
}

bool WriteFlightDumpFd(int fd, FlightDumpTrigger trigger, int signal_number) {
  Sink sink;
  sink.flush = FdFlush;
  sink.ctx = &fd;
  return WriteDumpToSink(sink, trigger, signal_number);
}

bool WriteFlightDump(const std::string& path, FlightDumpTrigger trigger,
                     int signal_number) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = WriteFlightDumpFd(fd, trigger, signal_number);
  ::close(fd);
  return ok;
}

std::string FlightDumpString(FlightDumpTrigger trigger, int signal_number) {
  std::string out;
  Sink sink;
  sink.flush = StringFlush;
  sink.ctx = &out;
  WriteDumpToSink(sink, trigger, signal_number);
  return out;
}

bool InstallFlightSignalHandlers(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const int prev = g_dump_fd.exchange(fd, std::memory_order_acq_rel);
  if (prev >= 0) ::close(prev);
  g_signal_dumped.store(false, std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = FatalSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGFPE, &sa, nullptr);
  return true;
}

void ArmFlightOracleDump(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_oracle_mu);
  const std::size_t len =
      path.size() < kArtifactMax - 1 ? path.size() : kArtifactMax - 1;
  std::memcpy(g_oracle_path, path.data(), len);
  g_oracle_path[len] = '\0';
  g_oracle_dumped.store(false, std::memory_order_relaxed);
  g_oracle_armed.store(true, std::memory_order_release);
}

void OnFlightOracleViolation() {
  if (!g_oracle_armed.load(std::memory_order_acquire)) return;
  if (g_oracle_dumped.exchange(true)) return;  // latched: one box per run
  std::lock_guard<std::mutex> lock(g_oracle_mu);
  WriteFlightDump(g_oracle_path, FlightDumpTrigger::kOracle);
}

void ResetFlightRecorderForTesting() {
  for (int ri = 0; ri < kFlightMaxRings; ++ri) {
    Ring& ring = g_rings[ri];
    ring.cursor.store(0, std::memory_order_relaxed);
    for (int i = 0; i < kFlightRingCapacity; ++i) {
      Slot& slot = ring.slots[i];
      slot.version.store(0, std::memory_order_relaxed);
      slot.type.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
      slot.seq.store(0, std::memory_order_relaxed);
      slot.c.store(0, std::memory_order_relaxed);
      slot.wall_ns.store(0, std::memory_order_relaxed);
    }
  }
  g_seq.store(0, std::memory_order_relaxed);
  g_events.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(g_artifact_mu);
    const std::uint32_t v = g_artifact_version.load(std::memory_order_relaxed);
    g_artifact_version.store(v + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    g_artifact_len.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    g_artifact_version.store(v + 2, std::memory_order_release);
  }
  g_oracle_armed.store(false, std::memory_order_relaxed);
  g_oracle_dumped.store(false, std::memory_order_relaxed);
}

}  // namespace certkit::obs

