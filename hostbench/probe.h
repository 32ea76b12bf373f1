// The seam between the hostbench driver and its two builds.
//
// hostbench links probe_off.cpp: every hook is a no-op and nothing in the
// library is touched. hostbench_traced links probe_on.cpp, which defines a
// -Wl,--wrap replacement for each entry point in wrapped_symbols.txt and
// sums span times per (layer, enclosing layer) on a per-thread stack. The
// driver code is the same object file in both binaries.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace hostbench {

/// One layer per wrapped entry point group. kRunHit is a SweepEngine::runOne
/// call that the result cache answered; kWait is a poll() inside a frame
/// read, i.e. time spent waiting for the peer rather than moving bytes.
enum class Layer : std::uint8_t {
  kRun,
  kRunHit,
  kSoc,
  kGenBuild,
  kGenNext,
  kBranch,
  kCacheMem,
  kCacheWarm,
  kCacheArray,
  kTlb,
  kDram,
  kMpiCopy,
  kCalPort,
  kCalMem,
  kCodec,
  kFrame,
  kWait,
  kFingerprint,
  kCacheLookup,
  kCacheStore,
  kJournal,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Spans are summed per phase. The driver switches phases between the
/// timed region(s), the serve workload's local re-execution check (kCheck),
/// and other untimed work.
enum class Phase : std::uint8_t { kMain, kWarm, kCheck, kUntimed, kCount };
inline constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);

/// Span-corrected estimates for one layer over one phase. `incl_ns`
/// includes the wrapped layers called beneath it, `children_ns` is their
/// inclusive time, and `self_ns` = incl_ns - children_ns, floored at zero.
struct LayerTotals {
  double calls = 0.0;
  double incl_ns = 0.0;
  double children_ns = 0.0;
  double self_ns = 0.0;
};

struct ProbeTotals {
  std::array<LayerTotals, kLayers> layer{};
  std::uint64_t calendar_calls = 0;
  std::uint64_t calendar_scans = 0;  // calls with ready < horizon()
  double calendar_scan_depth = 0.0;  // trackedIntervals() summed over scans
  std::uint64_t cache_lookups = 0;   // ResultCache::lookup calls
  std::uint64_t cache_hits = 0;      // ... that returned an entry
};

/// True in hostbench_traced.
bool probeActive();

/// Route spans that end from now on to `phase` (all threads).
void probeSetPhase(Phase phase);

ProbeTotals probeTotals(Phase phase);

/// Per-span cost constants the totals are corrected with, in ns: what an
/// untimed and a timed span add to an enclosing window, the part of a timed
/// span inside its own window, and how much tracing slows the wrapped call
/// itself (see probeBalance). All zero when the probe is off.
struct SpanCost {
  double untimed_ns = 0.0;
  double timed_ns = 0.0;
  double inside_ns = 0.0;
  double slowdown_ns = 0.0;
  bool in_situ = false;  // set by probeCalibrate
};
SpanCost probeSpanCost();

/// Refine the span cost from one unit of fixed work timed in both builds:
/// `untraced_s` in hostbench and `traced_s` here, with the spans this build
/// opened for `units` such units counted in `phase`.
void probeCalibrate(double untraced_s, double traced_s, Phase phase,
                    double units);

/// After probeCalibrate: move the least part of the in-situ span cost from
/// outside the spans' windows to inside them (tracing slowing the wrapped
/// calls' own work) that makes the layers called directly from `root`'s
/// spans in `phase` add up to no more than `root` itself.
void probeBalance(Phase phase, Layer root);

/// Write every SweepEngine::runOne span kept so far (one line per cell or
/// executed request: thread, start and duration in ns, outcome, label) to
/// `path`. No-op when the probe is off.
void probeWriteCellSpans(const std::string& path);

}  // namespace hostbench
