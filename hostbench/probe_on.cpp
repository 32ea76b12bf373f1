// Traced build: -Wl,--wrap replacements for the library's cross-object
// entry points (wrapped_symbols.txt), timed on a per-thread span stack.
//
// Each wrapper opens a span, calls the real function (__real_<symbol>, which
// the linker binds to the library's definition) and closes the span. Spans
// nest, so every layer gets inclusive time and self time (inclusive minus
// the wrapped layers called beneath it). Per-call spans are summed in
// memory per (phase, layer, enclosing layer); only SweepEngine::runOne
// spans are kept one by one, for the cell-span log.
//
// Cost control. Reading the clock costs tens of ns on a VM, more than one
// calendar call, so hot layers time a pseudo-random 1-in-N sample of their
// calls while still counting every call; rare layers time every call. Each
// (layer, parent) sum is scaled by calls / timed calls.
//
// Span-cost correction. A timed span's window holds part of its own cost
// (`inside`) and the whole cost of every span opened beneath it (`untimed`
// or `timed` each), so each timed span is corrected by
//   inside + descendants_untimed * untimed + descendants_timed * timed.
// Start-up calibration on an empty function gives `inside` and the timer's
// share (timed - untimed), but runs hot in cache and so underestimates
// `untimed` in real code. probeCalibrate() replaces it with the value that
// makes the spans account for the measured gap between the same work run
// traced here and untraced in hostbench.
//
// That gap also holds the slowdown of the wrapped calls' own work under
// tracing (their data and predictor state shared with the probe's). Such a
// slowdown lies inside each span's own window, and left uncorrected it
// makes the layers called from a cell add up to more than the cell.
// probeBalance() moves the least part of the in-situ excess over the
// start-up cost inside the windows (`slowdown`, the same per call for
// every layer) that closes that sum. Being the least such correction, it
// leaves the shares of the layers with the most calls as upper bounds.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <vector>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "branch/composite.h"
#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/tlb.h"
#include "dram/controller.h"
#include "probe.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "sim/calendar.h"
#include "soc/soc.h"
#include "sweep/fingerprint.h"
#include "sweep/result_cache.h"
#include "sweep/sweep.h"
#include "workloads/lammps.h"
#include "workloads/microbench.h"
#include "workloads/npb.h"

namespace hostbench {
namespace {

using bridge::Addr;
using bridge::Cycle;

// Slots: the real layers, then two calibration layers; parent index
// kNoParent marks a span opened with an empty stack.
constexpr std::size_t kCalibUntimed = kLayers;
constexpr std::size_t kCalibTimed = kLayers + 1;
constexpr std::size_t kSlots = kLayers + 2;
constexpr std::size_t kNoParent = kSlots;
constexpr std::size_t kMaxDepth = 64;

constexpr std::size_t slot(Layer layer) {
  return static_cast<std::size_t>(layer);
}

/// Mean sampling period per slot (1 = time every call).
constexpr std::uint32_t kPeriod[kSlots] = {
    1,   // kRun
    1,   // kRunHit
    1,   // kSoc
    1,   // kGenBuild
    16,  // kGenNext
    16,  // kBranch
    8,   // kCacheMem
    16,  // kCacheWarm
    16,  // kCacheArray
    16,  // kTlb
    4,   // kDram
    1,   // kMpiCopy
    16,  // kCalPort
    16,  // kCalMem
    1,   // kCodec
    1,   // kFrame
    1,   // kWait
    1,   // kFingerprint
    1,   // kCacheLookup
    1,   // kCacheStore
    1,   // kJournal
    0,   // calibration: never timed
    1,   // calibration: always timed
};

inline std::uint64_t tick() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Timed calls of one (layer, parent), summed.
struct Timed {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;
  std::uint64_t desc_untimed = 0;  // spans opened beneath them
  std::uint64_t desc_timed = 0;
};

struct Frame {
  std::size_t slot = 0;
  bool timed = false;
  std::uint64_t start = 0;
  std::uint64_t opened_untimed = 0;  // thread totals at entry (timed only)
  std::uint64_t opened_timed = 0;
};

struct PhaseCounters {
  std::uint64_t calendar_calls = 0;
  std::uint64_t calendar_scans = 0;
  std::uint64_t calendar_scan_depth = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t spans_untimed = 0;
  std::uint64_t spans_timed = 0;
};

struct ThreadState {
  Frame stack[kMaxDepth];
  std::size_t depth = 0;
  std::uint64_t opened_untimed = 0;
  std::uint64_t opened_timed = 0;
  std::uint32_t countdown[kSlots] = {};
  std::uint64_t rng = 0;
  std::uint64_t calls[kPhases][kSlots][kSlots + 1] = {};
  Timed timed[kPhases][kSlots][kSlots + 1];
  PhaseCounters counters[kPhases];
};

struct CellSpan {
  std::size_t thread = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool ok = false;
  bool from_cache = false;
  std::string label;
};

std::atomic<std::size_t> g_phase{static_cast<std::size_t>(Phase::kMain)};
// ThreadStates are never freed: totals must outlive the daemon's threads.
std::mutex g_threads_mu;
std::vector<ThreadState*> g_threads;
std::mutex g_cells_mu;
std::vector<CellSpan> g_cells;
thread_local ThreadState* t_state = nullptr;
thread_local std::size_t t_index = 0;

// Tick-to-ns conversion, measured between probe start and each read.
std::chrono::steady_clock::time_point g_clock0;
std::uint64_t g_tick0 = 0;
SpanCost g_cost;
double g_startup_untimed_ns = 0.0;  // g_cost.untimed_ns before probeCalibrate

double nsPerTick() {
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - g_clock0)
                        .count();
  const std::uint64_t ticks = tick() - g_tick0;
  return ticks > 0 ? ns / static_cast<double>(ticks) : 1.0;
}

std::uint32_t nextPeriod(ThreadState& t, std::size_t s) {
  const std::uint32_t mean = kPeriod[s];
  if (mean == 0) return UINT32_MAX;
  if (mean == 1) return 1;
  // xorshift64; uniform on [1, 2*mean - 1] so the mean gap is `mean` and a
  // workload's own periodicity cannot alias with the sample.
  t.rng ^= t.rng << 13;
  t.rng ^= t.rng >> 7;
  t.rng ^= t.rng << 17;
  return 1 + static_cast<std::uint32_t>(t.rng % (2 * mean - 1));
}

ThreadState& state() {
  if (t_state == nullptr) {
    auto* t = new ThreadState();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    t_index = g_threads.size();
    t->rng = 0x9E3779B97F4A7C15ull * (t_index + 1);
    for (std::size_t s = 0; s < kSlots; ++s) {
      t->countdown[s] = nextPeriod(*t, s);
    }
    g_threads.push_back(t);
    t_state = t;
  }
  return *t_state;
}

std::size_t currentPhase() { return g_phase.load(std::memory_order_relaxed); }

std::size_t parentSlot(const ThreadState& t) {
  return t.depth > 0 ? t.stack[t.depth - 1].slot : kNoParent;
}

class Span {
 public:
  Span(ThreadState& t, std::size_t s) : t_(t) {
    if (t_.depth == kMaxDepth) {
      std::fprintf(stderr, "hostbench: span stack overflow\n");
      std::abort();
    }
    Frame& f = t_.stack[t_.depth++];
    f.slot = s;
    f.timed = --t_.countdown[s] == 0;
    if (!f.timed) {
      ++t_.opened_untimed;
      return;
    }
    t_.countdown[s] = nextPeriod(t_, s);
    ++t_.opened_timed;
    f.opened_untimed = t_.opened_untimed;
    f.opened_timed = t_.opened_timed;
    f.start = tick();
  }
  explicit Span(Layer layer) : Span(state(), slot(layer)) {}

  ~Span() {
    const std::uint64_t end = t_.stack[t_.depth - 1].timed ? tick() : 0;
    const Frame& f = t_.stack[--t_.depth];
    const std::size_t phase = currentPhase();
    const std::size_t parent = parentSlot(t_);
    ++t_.calls[phase][f.slot][parent];
    if (f.timed) {
      Timed& a = t_.timed[phase][f.slot][parent];
      ++a.calls;
      a.ticks += end - f.start;
      a.desc_untimed += t_.opened_untimed - f.opened_untimed;
      a.desc_timed += t_.opened_timed - f.opened_timed;
      ++t_.counters[phase].spans_timed;
    } else {
      ++t_.counters[phase].spans_untimed;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Re-file the open span under another layer (runOne answered by cache).
  void relabel(Layer layer) { t_.stack[t_.depth - 1].slot = slot(layer); }
  std::uint64_t start() const { return t_.stack[t_.depth - 1].start; }

 private:
  ThreadState& t_;
};

bool isMemorySide(std::size_t parent) {
  switch (parent) {
    case slot(Layer::kCacheMem):
    case slot(Layer::kCacheWarm):
    case slot(Layer::kCacheArray):
    case slot(Layer::kTlb):
    case slot(Layer::kDram):
    case slot(Layer::kMpiCopy):
      return true;
    default:
      return false;
  }
}

/// Calendar calls are split by caller, and counted as scanning when the
/// request lands before the calendar's horizon (the deque walk).
std::size_t calendarSlot(ThreadState& t, const bridge::BusyCalendar& cal,
                         Cycle ready) {
  PhaseCounters& c = t.counters[currentPhase()];
  ++c.calendar_calls;
  if (ready < cal.horizon()) {
    ++c.calendar_scans;
    c.calendar_scan_depth += cal.trackedIntervals();
  }
  return isMemorySide(parentSlot(t)) ? slot(Layer::kCalMem)
                                     : slot(Layer::kCalPort);
}

__attribute__((noinline)) int emptyCall(int x) {
  asm volatile("" : "+r"(x));
  return x;
}

template <class Body>
double loopNs(int n, Body body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) body(i);
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         n;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Calibrate the span-cost constants on an empty function (see the file
/// comment). Runs before main, with the phase set to kUntimed.
void calibrate() {
  constexpr int kN = 200000;
  constexpr int kRounds = 7;
  ThreadState& t = state();
  volatile int sink = 0;
  const Timed& timed =
      t.timed[static_cast<std::size_t>(Phase::kUntimed)][kCalibTimed][kNoParent];
  std::vector<double> untimed_ns, timed_ns, inside_ns;
  for (int r = 0; r < kRounds; ++r) {
    const double base = loopNs(kN, [&](int i) { sink = sink + emptyCall(i); });
    const double u = loopNs(kN, [&](int i) {
      Span s(t, kCalibUntimed);
      sink = sink + emptyCall(i);
    });
    const std::uint64_t ticks0 = timed.ticks;
    const double c = loopNs(kN, [&](int i) {
      Span s(t, kCalibTimed);
      sink = sink + emptyCall(i);
    });
    const double in =
        static_cast<double>(timed.ticks - ticks0) * nsPerTick() / kN;
    untimed_ns.push_back(u - base);
    timed_ns.push_back(c - base);
    inside_ns.push_back(in - base);
  }
  g_cost.untimed_ns = std::max(0.0, median(untimed_ns));
  g_cost.timed_ns = std::max(g_cost.untimed_ns, median(timed_ns));
  g_cost.inside_ns = std::max(0.0, median(inside_ns));
  g_startup_untimed_ns = g_cost.untimed_ns;
}

struct ProbeInit {
  ProbeInit() {
    g_clock0 = std::chrono::steady_clock::now();
    g_tick0 = tick();
    g_phase.store(static_cast<std::size_t>(Phase::kUntimed));
    calibrate();
    g_phase.store(static_cast<std::size_t>(Phase::kMain));
  }
};
const ProbeInit g_init;

PhaseCounters phaseCounters(std::size_t ph) {
  PhaseCounters out;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const ThreadState* t : g_threads) {
    const PhaseCounters& c = t->counters[ph];
    out.calendar_calls += c.calendar_calls;
    out.calendar_scans += c.calendar_scans;
    out.calendar_scan_depth += c.calendar_scan_depth;
    out.cache_lookups += c.cache_lookups;
    out.cache_hits += c.cache_hits;
    out.spans_untimed += c.spans_untimed;
    out.spans_timed += c.spans_timed;
  }
  return out;
}

}  // namespace

bool probeActive() { return true; }

void probeSetPhase(Phase phase) {
  g_phase.store(static_cast<std::size_t>(phase), std::memory_order_relaxed);
}

SpanCost probeSpanCost() { return g_cost; }

void probeCalibrate(double untraced_s, double traced_s, Phase phase,
                    double units) {
  const PhaseCounters c = phaseCounters(static_cast<std::size_t>(phase));
  const double untimed = static_cast<double>(c.spans_untimed) / units;
  const double timed = static_cast<double>(c.spans_timed) / units;
  if (untimed + timed <= 0 || untraced_s <= 0 || traced_s <= 0) return;
  // gap = untimed * u + timed * (u + timer), timer from the start-up loop.
  const double timer_ns = g_cost.timed_ns - g_cost.untimed_ns;
  const double gap_ns = (traced_s - untraced_s) * 1e9;
  const double u = (gap_ns - timed * timer_ns) / (untimed + timed);
  if (u <= g_cost.untimed_ns) return;  // noise: keep the start-up value
  g_cost.untimed_ns = u;
  g_cost.timed_ns = u + timer_ns;
  g_cost.in_situ = true;
}

namespace {

/// Span-corrected totals of phase `ph`, with `slowdown` ns per call taken
/// out of every span's own window.
ProbeTotals totals(std::size_t ph, double slowdown) {
  std::vector<std::uint64_t> calls(kSlots * (kSlots + 1), 0);
  std::vector<Timed> timed(kSlots * (kSlots + 1));
  {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    for (const ThreadState* t : g_threads) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        for (std::size_t p = 0; p <= kSlots; ++p) {
          const std::size_t i = s * (kSlots + 1) + p;
          calls[i] += t->calls[ph][s][p];
          const Timed& a = t->timed[ph][s][p];
          timed[i].calls += a.calls;
          timed[i].ticks += a.ticks;
          timed[i].desc_untimed += a.desc_untimed;
          timed[i].desc_timed += a.desc_timed;
        }
      }
    }
  }
  ProbeTotals out;
  const PhaseCounters c = phaseCounters(ph);
  out.calendar_calls = c.calendar_calls;
  out.calendar_scans = c.calendar_scans;
  out.calendar_scan_depth = static_cast<double>(c.calendar_scan_depth);
  out.cache_lookups = c.cache_lookups;
  out.cache_hits = c.cache_hits;

  const double npt = nsPerTick();
  // Span-corrected time of the timed calls of one (layer, parent).
  const auto corrected = [&](const Timed& a) {
    return static_cast<double>(a.ticks) * npt -
           static_cast<double>(a.calls) * (g_cost.inside_ns + slowdown) -
           static_cast<double>(a.desc_untimed) * g_cost.untimed_ns -
           static_cast<double>(a.desc_timed) * g_cost.timed_ns;
  };
  std::vector<double> est(kSlots * (kSlots + 1), 0.0);
  for (std::size_t s = 0; s < kLayers; ++s) {
    // Per-call mean over all parents, for a pair that was never sampled.
    Timed all;
    for (std::size_t p = 0; p <= kSlots; ++p) {
      const Timed& a = timed[s * (kSlots + 1) + p];
      all.calls += a.calls;
      all.ticks += a.ticks;
      all.desc_untimed += a.desc_untimed;
      all.desc_timed += a.desc_timed;
    }
    const double mean =
        all.calls > 0 ? corrected(all) / static_cast<double>(all.calls) : 0.0;
    for (std::size_t p = 0; p <= kSlots; ++p) {
      const std::size_t i = s * (kSlots + 1) + p;
      if (calls[i] == 0) continue;
      const Timed& a = timed[i];
      const double n = static_cast<double>(calls[i]);
      est[i] = a.calls > 0 ? corrected(a) * n / static_cast<double>(a.calls)
                           : mean * n;
      out.layer[s].calls += n;
      out.layer[s].incl_ns += est[i];
    }
  }
  for (std::size_t s = 0; s < kLayers; ++s) {
    double children = 0.0;
    for (std::size_t k = 0; k < kLayers; ++k) {
      children += est[k * (kSlots + 1) + s];
    }
    // Floored at zero: where a layer's own work is smaller than the error of
    // the span-cost correction, its self time is not resolved.
    out.layer[s].children_ns = children;
    out.layer[s].self_ns = std::max(0.0, out.layer[s].incl_ns - children);
  }
  return out;
}

}  // namespace

ProbeTotals probeTotals(Phase phase) {
  return totals(static_cast<std::size_t>(phase), g_cost.slowdown_ns);
}

void probeBalance(Phase phase, Layer root) {
  const std::size_t ph = static_cast<std::size_t>(phase);
  const std::size_t r = slot(root);
  // Both the root's time and its children's fall linearly with the slowdown;
  // find where the children's excess over the root reaches zero.
  const double most = std::max(0.0, g_cost.untimed_ns - g_startup_untimed_ns);
  const auto excess = [&](double slowdown) {
    const LayerTotals l = totals(ph, slowdown).layer[r];
    return l.children_ns - l.incl_ns;
  };
  const double e0 = excess(0.0);
  if (e0 <= 0.0 || most <= 0.0) {
    g_cost.slowdown_ns = 0.0;
    return;
  }
  const double e1 = excess(most);
  g_cost.slowdown_ns = e1 >= 0.0 ? most : most * e0 / (e0 - e1);
}

void probeWriteCellSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
    return;
  }
  const double npt = nsPerTick();
  std::fprintf(f, "thread\tstart_ns\tdur_ns\tok\tfrom_cache\tlabel\n");
  std::lock_guard<std::mutex> lock(g_cells_mu);
  for (const CellSpan& c : g_cells) {
    std::fprintf(f, "%zu\t%.0f\t%.0f\t%d\t%d\t%s\n", c.thread,
                 static_cast<double>(c.start - g_tick0) * npt,
                 static_cast<double>(c.end - c.start) * npt, c.ok ? 1 : 0,
                 c.from_cache ? 1 : 0, c.label.c_str());
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Wrappers. Each __real_ declaration is weak so the binary still links when
// a later change removes a symbol; run.py reports that layer as missing.

#define HOSTBENCH_REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define HOSTBENCH_WRAP(sym) __asm__("__wrap_" sym)

// --- sweep: SweepEngine::runOne (the cell span) ---------------------------
#define SYM "_ZN6bridge11SweepEngine6runOneERKNS_7JobSpecE"
bridge::SweepResult realRunOne(bridge::SweepEngine*, const bridge::JobSpec&)
    HOSTBENCH_REAL(SYM);
bridge::SweepResult wrapRunOne(bridge::SweepEngine*, const bridge::JobSpec&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
bridge::SweepResult wrapRunOne(bridge::SweepEngine* self,
                               const bridge::JobSpec& job) {
  CellSpan cell;
  cell.label = job.label;
  bridge::SweepResult r;
  {
    Span s(Layer::kRun);
    cell.start = s.start();
    r = realRunOne(self, job);
    if (r.from_cache) s.relabel(Layer::kRunHit);
  }
  cell.end = tick();
  cell.thread = t_index;
  cell.ok = r.ok();
  cell.from_cache = r.from_cache;
  std::lock_guard<std::mutex> lock(g_cells_mu);
  g_cells.push_back(std::move(cell));
  return r;
}

// --- soc ------------------------------------------------------------------
void realSocCtor(bridge::Soc*, const bridge::SocConfig&)
    HOSTBENCH_REAL("_ZN6bridge3SocC1ERKNS_9SocConfigE");
void wrapSocCtor(bridge::Soc*, const bridge::SocConfig&)
    HOSTBENCH_WRAP("_ZN6bridge3SocC1ERKNS_9SocConfigE");
void wrapSocCtor(bridge::Soc* self, const bridge::SocConfig& config) {
  Span s(Layer::kSoc);
  realSocCtor(self, config);
}

// --- workloads / trace: generator builds + a timed TraceSource decorator ---
namespace {

class TimedTrace final : public bridge::TraceSource {
 public:
  explicit TimedTrace(bridge::TraceSourcePtr inner)
      : inner_(std::move(inner)) {}
  bool next(bridge::MicroOp* out) override {
    Span s(Layer::kGenNext);
    return inner_->next(out);
  }
  const std::string& name() const override { return inner_->name(); }

 private:
  bridge::TraceSourcePtr inner_;
};

bridge::TraceSourcePtr decorate(bridge::TraceSourcePtr inner) {
  if (!inner) return inner;
  return std::make_unique<TimedTrace>(std::move(inner));
}

}  // namespace

#define SYM "_ZN6bridge11makeNpbRankENS_12NpbBenchmarkEiiRKNS_9NpbConfigE"
bridge::TraceSourcePtr realMakeNpbRank(bridge::NpbBenchmark, int, int,
                                       const bridge::NpbConfig&)
    HOSTBENCH_REAL(SYM);
bridge::TraceSourcePtr wrapMakeNpbRank(bridge::NpbBenchmark, int, int,
                                       const bridge::NpbConfig&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
bridge::TraceSourcePtr wrapMakeNpbRank(bridge::NpbBenchmark b, int rank,
                                       int nranks,
                                       const bridge::NpbConfig& cfg) {
  bridge::TraceSourcePtr t;
  {
    Span s(Layer::kGenBuild);
    t = realMakeNpbRank(b, rank, nranks, cfg);
  }
  return decorate(std::move(t));
}

#define SYM "_ZN6bridge14makeMicrobenchESt17basic_string_viewIcSt11char_traitsIcEEdm"
bridge::TraceSourcePtr realMakeMicrobench(std::string_view, double,
                                          std::uint64_t) HOSTBENCH_REAL(SYM);
bridge::TraceSourcePtr wrapMakeMicrobench(std::string_view, double,
                                          std::uint64_t) HOSTBENCH_WRAP(SYM);
#undef SYM
bridge::TraceSourcePtr wrapMakeMicrobench(std::string_view name, double scale,
                                          std::uint64_t seed) {
  bridge::TraceSourcePtr t;
  {
    Span s(Layer::kGenBuild);
    t = realMakeMicrobench(name, scale, seed);
  }
  return decorate(std::move(t));
}

#define SYM "_ZN6bridge14makeLammpsRankENS_15LammpsBenchmarkEiiRKNS_12LammpsConfigE"
bridge::TraceSourcePtr realMakeLammpsRank(bridge::LammpsBenchmark, int, int,
                                          const bridge::LammpsConfig&)
    HOSTBENCH_REAL(SYM);
bridge::TraceSourcePtr wrapMakeLammpsRank(bridge::LammpsBenchmark, int, int,
                                          const bridge::LammpsConfig&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
bridge::TraceSourcePtr wrapMakeLammpsRank(bridge::LammpsBenchmark b, int rank,
                                          int nranks,
                                          const bridge::LammpsConfig& cfg) {
  bridge::TraceSourcePtr t;
  {
    Span s(Layer::kGenBuild);
    t = realMakeLammpsRank(b, rank, nranks, cfg);
  }
  return decorate(std::move(t));
}

// --- sim: BusyCalendar ----------------------------------------------------
Cycle realReserve(bridge::BusyCalendar*, Cycle, Cycle)
    HOSTBENCH_REAL("_ZN6bridge12BusyCalendar7reserveEmm");
Cycle wrapReserve(bridge::BusyCalendar*, Cycle, Cycle)
    HOSTBENCH_WRAP("_ZN6bridge12BusyCalendar7reserveEmm");
Cycle wrapReserve(bridge::BusyCalendar* self, Cycle ready, Cycle duration) {
  ThreadState& t = state();
  Span s(t, calendarSlot(t, *self, ready));
  return realReserve(self, ready, duration);
}

Cycle realPeek(const bridge::BusyCalendar*, Cycle, Cycle)
    HOSTBENCH_REAL("_ZNK6bridge12BusyCalendar4peekEmm");
Cycle wrapPeek(const bridge::BusyCalendar*, Cycle, Cycle)
    HOSTBENCH_WRAP("_ZNK6bridge12BusyCalendar4peekEmm");
Cycle wrapPeek(const bridge::BusyCalendar* self, Cycle ready, Cycle duration) {
  ThreadState& t = state();
  Span s(t, calendarSlot(t, *self, ready));
  return realPeek(self, ready, duration);
}

// --- branch ---------------------------------------------------------------
#define SYM "_ZN6bridge17CompositeFrontEnd15predictAndTrainERKNS_7MicroOpE"
bridge::FrontEndOutcome realPredict(bridge::CompositeFrontEnd*,
                                    const bridge::MicroOp&) HOSTBENCH_REAL(SYM);
bridge::FrontEndOutcome wrapPredict(bridge::CompositeFrontEnd*,
                                    const bridge::MicroOp&) HOSTBENCH_WRAP(SYM);
#undef SYM
bridge::FrontEndOutcome wrapPredict(bridge::CompositeFrontEnd* self,
                                    const bridge::MicroOp& op) {
  Span s(Layer::kBranch);
  return realPredict(self, op);
}

// --- cache: the timed hierarchy path --------------------------------------
bridge::MemAccess realLoad(bridge::MemoryHierarchy*, unsigned, Addr, Addr,
                           Cycle)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy4loadEjmmm");
bridge::MemAccess wrapLoad(bridge::MemoryHierarchy*, unsigned, Addr, Addr,
                           Cycle)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy4loadEjmmm");
bridge::MemAccess wrapLoad(bridge::MemoryHierarchy* self, unsigned core,
                           Addr pc, Addr addr, Cycle now) {
  Span s(Layer::kCacheMem);
  return realLoad(self, core, pc, addr, now);
}

bridge::MemAccess realStore(bridge::MemoryHierarchy*, unsigned, Addr, Addr,
                            Cycle)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy5storeEjmmm");
bridge::MemAccess wrapStore(bridge::MemoryHierarchy*, unsigned, Addr, Addr,
                            Cycle)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy5storeEjmmm");
bridge::MemAccess wrapStore(bridge::MemoryHierarchy* self, unsigned core,
                            Addr pc, Addr addr, Cycle now) {
  Span s(Layer::kCacheMem);
  return realStore(self, core, pc, addr, now);
}

bridge::MemAccess realIfetch(bridge::MemoryHierarchy*, unsigned, Addr, Cycle)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy6ifetchEjmm");
bridge::MemAccess wrapIfetch(bridge::MemoryHierarchy*, unsigned, Addr, Cycle)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy6ifetchEjmm");
bridge::MemAccess wrapIfetch(bridge::MemoryHierarchy* self, unsigned core,
                             Addr pc, Cycle now) {
  Span s(Layer::kCacheMem);
  return realIfetch(self, core, pc, now);
}

// --- cache: the functional warm path (sampled fast-forward) ----------------
void realWarmLoad(bridge::MemoryHierarchy*, unsigned, Addr, Addr)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy8warmLoadEjmm");
void wrapWarmLoad(bridge::MemoryHierarchy*, unsigned, Addr, Addr)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy8warmLoadEjmm");
void wrapWarmLoad(bridge::MemoryHierarchy* self, unsigned core, Addr pc,
                  Addr addr) {
  Span s(Layer::kCacheWarm);
  realWarmLoad(self, core, pc, addr);
}

void realWarmStore(bridge::MemoryHierarchy*, unsigned, Addr, Addr)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy9warmStoreEjmm");
void wrapWarmStore(bridge::MemoryHierarchy*, unsigned, Addr, Addr)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy9warmStoreEjmm");
void wrapWarmStore(bridge::MemoryHierarchy* self, unsigned core, Addr pc,
                   Addr addr) {
  Span s(Layer::kCacheWarm);
  realWarmStore(self, core, pc, addr);
}

void realWarmIfetch(bridge::MemoryHierarchy*, unsigned, Addr)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy10warmIfetchEjm");
void wrapWarmIfetch(bridge::MemoryHierarchy*, unsigned, Addr)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy10warmIfetchEjm");
void wrapWarmIfetch(bridge::MemoryHierarchy* self, unsigned core, Addr pc) {
  Span s(Layer::kCacheWarm);
  realWarmIfetch(self, core, pc);
}

// --- mpi: shared-memory copies through the hierarchy ----------------------
Cycle realBulkCopy(bridge::MemoryHierarchy*, unsigned, Addr, Addr,
                   std::uint64_t, Cycle)
    HOSTBENCH_REAL("_ZN6bridge15MemoryHierarchy8bulkCopyEjmmmm");
Cycle wrapBulkCopy(bridge::MemoryHierarchy*, unsigned, Addr, Addr,
                   std::uint64_t, Cycle)
    HOSTBENCH_WRAP("_ZN6bridge15MemoryHierarchy8bulkCopyEjmmmm");
Cycle wrapBulkCopy(bridge::MemoryHierarchy* self, unsigned core, Addr src,
                   Addr dst, std::uint64_t bytes, Cycle now) {
  Span s(Layer::kMpiCopy);
  return realBulkCopy(self, core, src, dst, bytes, now);
}

// --- cache: set-associative arrays and TLBs -------------------------------
bool realTouch(bridge::SetAssocCache*, Addr, bool, Cycle*)
    HOSTBENCH_REAL("_ZN6bridge13SetAssocCache14touchIfPresentEmbPm");
bool wrapTouch(bridge::SetAssocCache*, Addr, bool, Cycle*)
    HOSTBENCH_WRAP("_ZN6bridge13SetAssocCache14touchIfPresentEmbPm");
bool wrapTouch(bridge::SetAssocCache* self, Addr line, bool is_store,
               Cycle* ready) {
  Span s(Layer::kCacheArray);
  return realTouch(self, line, is_store, ready);
}

bridge::CacheAccess realFill(bridge::SetAssocCache*, Addr, bool, Cycle)
    HOSTBENCH_REAL("_ZN6bridge13SetAssocCache4fillEmbm");
bridge::CacheAccess wrapFill(bridge::SetAssocCache*, Addr, bool, Cycle)
    HOSTBENCH_WRAP("_ZN6bridge13SetAssocCache4fillEmbm");
bridge::CacheAccess wrapFill(bridge::SetAssocCache* self, Addr line,
                             bool dirty, Cycle ready) {
  Span s(Layer::kCacheArray);
  return realFill(self, line, dirty, ready);
}

bool realProbe(const bridge::SetAssocCache*, Addr)
    HOSTBENCH_REAL("_ZNK6bridge13SetAssocCache5probeEm");
bool wrapProbe(const bridge::SetAssocCache*, Addr)
    HOSTBENCH_WRAP("_ZNK6bridge13SetAssocCache5probeEm");
bool wrapProbe(const bridge::SetAssocCache* self, Addr line) {
  Span s(Layer::kCacheArray);
  return realProbe(self, line);
}

// The LLC's tag array: touchIfPresent and fill are called from inside
// cache.cpp here, out of --wrap's reach, so the whole access is one span.
bridge::CacheAccess realAccess(bridge::SetAssocCache*, Addr, bool)
    HOSTBENCH_REAL("_ZN6bridge13SetAssocCache6accessEmb");
bridge::CacheAccess wrapAccess(bridge::SetAssocCache*, Addr, bool)
    HOSTBENCH_WRAP("_ZN6bridge13SetAssocCache6accessEmb");
bridge::CacheAccess wrapAccess(bridge::SetAssocCache* self, Addr line,
                               bool is_store) {
  Span s(Layer::kCacheArray);
  return realAccess(self, line, is_store);
}

bridge::Tlb::Outcome realTlbAccess(bridge::Tlb*, Addr)
    HOSTBENCH_REAL("_ZN6bridge3Tlb6accessEm");
bridge::Tlb::Outcome wrapTlbAccess(bridge::Tlb*, Addr)
    HOSTBENCH_WRAP("_ZN6bridge3Tlb6accessEm");
bridge::Tlb::Outcome wrapTlbAccess(bridge::Tlb* self, Addr addr) {
  Span s(Layer::kTlb);
  return realTlbAccess(self, addr);
}

// --- dram -----------------------------------------------------------------
Cycle realDramRead(bridge::DramController*, Addr, Cycle)
    HOSTBENCH_REAL("_ZN6bridge14DramController4readEmm");
Cycle wrapDramRead(bridge::DramController*, Addr, Cycle)
    HOSTBENCH_WRAP("_ZN6bridge14DramController4readEmm");
Cycle wrapDramRead(bridge::DramController* self, Addr line, Cycle now) {
  Span s(Layer::kDram);
  return realDramRead(self, line, now);
}

Cycle realDramWrite(bridge::DramController*, Addr, Cycle)
    HOSTBENCH_REAL("_ZN6bridge14DramController5writeEmm");
Cycle wrapDramWrite(bridge::DramController*, Addr, Cycle)
    HOSTBENCH_WRAP("_ZN6bridge14DramController5writeEmm");
Cycle wrapDramWrite(bridge::DramController* self, Addr line, Cycle now) {
  Span s(Layer::kDram);
  return realDramWrite(self, line, now);
}

// --- serve: protocol codec ------------------------------------------------
#define SYM "_ZN6bridge5serve13requestToJsonB5cxx11ERKNS0_12ServeRequestE"
std::string realRequestToJson(const bridge::serve::ServeRequest&)
    HOSTBENCH_REAL(SYM);
std::string wrapRequestToJson(const bridge::serve::ServeRequest&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
std::string wrapRequestToJson(const bridge::serve::ServeRequest& request) {
  Span s(Layer::kCodec);
  return realRequestToJson(request);
}

#define SYM \
  "_ZN6bridge5serve15requestFromJsonERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
std::optional<bridge::serve::ServeRequest> realRequestFromJson(
    const std::string&) HOSTBENCH_REAL(SYM);
std::optional<bridge::serve::ServeRequest> wrapRequestFromJson(
    const std::string&) HOSTBENCH_WRAP(SYM);
#undef SYM
std::optional<bridge::serve::ServeRequest> wrapRequestFromJson(
    const std::string& json) {
  Span s(Layer::kCodec);
  return realRequestFromJson(json);
}

#define SYM "_ZN6bridge5serve14responseToJsonB5cxx11ERKNS0_13ServeResponseEb"
std::string realResponseToJson(const bridge::serve::ServeResponse&, bool)
    HOSTBENCH_REAL(SYM);
std::string wrapResponseToJson(const bridge::serve::ServeResponse&, bool)
    HOSTBENCH_WRAP(SYM);
#undef SYM
std::string wrapResponseToJson(const bridge::serve::ServeResponse& response,
                               bool elastic) {
  Span s(Layer::kCodec);
  return realResponseToJson(response, elastic);
}

#define SYM \
  "_ZN6bridge5serve16responseFromJsonERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
std::optional<bridge::serve::ServeResponse> realResponseFromJson(
    const std::string&) HOSTBENCH_REAL(SYM);
std::optional<bridge::serve::ServeResponse> wrapResponseFromJson(
    const std::string&) HOSTBENCH_WRAP(SYM);
#undef SYM
std::optional<bridge::serve::ServeResponse> wrapResponseFromJson(
    const std::string& json) {
  Span s(Layer::kCodec);
  return realResponseFromJson(json);
}

// --- serve: framing (poll inside a frame read is the wait, not the frame) --
#define SYM \
  "_ZN6bridge5serve9sendFrameEiRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS6_"
bool realSendFrame(int, const std::string&, std::string*) HOSTBENCH_REAL(SYM);
bool wrapSendFrame(int, const std::string&, std::string*) HOSTBENCH_WRAP(SYM);
#undef SYM
bool wrapSendFrame(int fd, const std::string& payload, std::string* error) {
  Span s(Layer::kFrame);
  return realSendFrame(fd, payload, error);
}

#define SYM                                                                  \
  "_ZN6bridge5serve14sendFrameChaosEiRKNSt7__cxx1112basic_stringIcSt11char_" \
  "traitsIcESaIcEEEPS6_PKNS_13FaultInjectorEmm"
bool realSendFrameChaos(int, const std::string&, std::string*,
                        const bridge::FaultInjector*, std::uint64_t,
                        std::uint64_t) HOSTBENCH_REAL(SYM);
bool wrapSendFrameChaos(int, const std::string&, std::string*,
                        const bridge::FaultInjector*, std::uint64_t,
                        std::uint64_t) HOSTBENCH_WRAP(SYM);
#undef SYM
bool wrapSendFrameChaos(int fd, const std::string& payload, std::string* error,
                        const bridge::FaultInjector* chaos,
                        std::uint64_t connection, std::uint64_t frame) {
  Span s(Layer::kFrame);
  return realSendFrameChaos(fd, payload, error, chaos, connection, frame);
}

#define SYM                                                                 \
  "_ZN6bridge5serve9recvFrameEiPNSt7__cxx1112basic_stringIcSt11char_traits" \
  "IcESaIcEEES7_PKSt6atomicIbEmPb"
bool realRecvFrame(int, std::string*, std::string*, const std::atomic<bool>*,
                   std::uint64_t, bool*) HOSTBENCH_REAL(SYM);
bool wrapRecvFrame(int, std::string*, std::string*, const std::atomic<bool>*,
                   std::uint64_t, bool*) HOSTBENCH_WRAP(SYM);
#undef SYM
bool wrapRecvFrame(int fd, std::string* payload, std::string* error,
                   const std::atomic<bool>* stop, std::uint64_t timeout_ms,
                   bool* timed_out) {
  Span s(Layer::kFrame);
  return realRecvFrame(fd, payload, error, stop, timeout_ms, timed_out);
}

extern "C" int __real_poll(struct pollfd*, nfds_t, int) __attribute__((weak));
extern "C" int __wrap_poll(struct pollfd* fds, nfds_t n, int timeout) {
  ThreadState& t = state();
  if (parentSlot(t) != slot(Layer::kFrame)) return __real_poll(fds, n, timeout);
  Span s(t, slot(Layer::kWait));
  return __real_poll(fds, n, timeout);
}

// --- sweep: fingerprint, result cache -------------------------------------
#define SYM "_ZN6bridge14jobFingerprintB5cxx11ERKNS_7JobSpecE"
std::string realFingerprint(const bridge::JobSpec&) HOSTBENCH_REAL(SYM);
std::string wrapFingerprint(const bridge::JobSpec&) HOSTBENCH_WRAP(SYM);
#undef SYM
std::string wrapFingerprint(const bridge::JobSpec& spec) {
  Span s(Layer::kFingerprint);
  return realFingerprint(spec);
}

#define SYM                                                               \
  "_ZNK6bridge11ResultCache6lookupERKNSt7__cxx1112basic_stringIcSt11char_" \
  "traitsIcESaIcEEE"
std::optional<bridge::CachedRun> realLookup(const bridge::ResultCache*,
                                            const std::string&)
    HOSTBENCH_REAL(SYM);
std::optional<bridge::CachedRun> wrapLookup(const bridge::ResultCache*,
                                            const std::string&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
std::optional<bridge::CachedRun> wrapLookup(const bridge::ResultCache* self,
                                            const std::string& key) {
  ThreadState& t = state();
  std::optional<bridge::CachedRun> r;
  {
    Span s(t, slot(Layer::kCacheLookup));
    r = realLookup(self, key);
  }
  PhaseCounters& c = t.counters[currentPhase()];
  ++c.cache_lookups;
  if (r) ++c.cache_hits;
  return r;
}

#define SYM                                                                  \
  "_ZNK6bridge11ResultCache9entryPathERKNSt7__cxx1112basic_stringIcSt11char_" \
  "traitsIcESaIcEEE"
std::string realEntryPath(const bridge::ResultCache*, const std::string&)
    HOSTBENCH_REAL(SYM);
std::string wrapEntryPath(const bridge::ResultCache*, const std::string&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
std::string wrapEntryPath(const bridge::ResultCache* self,
                          const std::string& key) {
  Span s(Layer::kCacheLookup);
  return realEntryPath(self, key);
}

#define SYM                                                              \
  "_ZNK6bridge11ResultCache5storeERKNSt7__cxx1112basic_stringIcSt11char_" \
  "traitsIcESaIcEEERKNS_9CachedRunE"
bool realStore(const bridge::ResultCache*, const std::string&,
               const bridge::CachedRun&) HOSTBENCH_REAL(SYM);
bool wrapStore(const bridge::ResultCache*, const std::string&,
               const bridge::CachedRun&) HOSTBENCH_WRAP(SYM);
#undef SYM
bool wrapStore(const bridge::ResultCache* self, const std::string& key,
               const bridge::CachedRun& run) {
  Span s(Layer::kCacheStore);
  return realStore(self, key, run);
}

// --- serve: admission journal ---------------------------------------------
#define SYM                                                               \
  "_ZN6bridge5serve16AdmissionJournal5admitERKNSt7__cxx1112basic_stringIc" \
  "St11char_traitsIcESaIcEEERKNS_7JobSpecE"
bool realAdmit(bridge::serve::AdmissionJournal*, const std::string&,
               const bridge::JobSpec&) HOSTBENCH_REAL(SYM);
bool wrapAdmit(bridge::serve::AdmissionJournal*, const std::string&,
               const bridge::JobSpec&) HOSTBENCH_WRAP(SYM);
#undef SYM
bool wrapAdmit(bridge::serve::AdmissionJournal* self,
               const std::string& fingerprint, const bridge::JobSpec& spec) {
  Span s(Layer::kJournal);
  return realAdmit(self, fingerprint, spec);
}

#define SYM                                                                  \
  "_ZN6bridge5serve16AdmissionJournal8completeERKNSt7__cxx1112basic_stringIc" \
  "St11char_traitsIcESaIcEEE"
bool realComplete(bridge::serve::AdmissionJournal*, const std::string&)
    HOSTBENCH_REAL(SYM);
bool wrapComplete(bridge::serve::AdmissionJournal*, const std::string&)
    HOSTBENCH_WRAP(SYM);
#undef SYM
bool wrapComplete(bridge::serve::AdmissionJournal* self,
                  const std::string& fingerprint) {
  Span s(Layer::kJournal);
  return realComplete(self, fingerprint);
}

}  // namespace hostbench
