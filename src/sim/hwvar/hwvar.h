// Hardware-variability parameters (DESIGN.md §5j).
//
// The paper treats each silicon platform as one deterministic machine; real
// chips are not. A K1 or SG2042 run sits inside a cloud of run-to-run and
// core-to-core spread caused by per-core DVFS governors, thermal throttling
// under sustained load, and OS noise (timer ticks, preemption by other
// processes). HwVarParams models the *causes*: per-core frequency states
// with transition latencies, a thermal-throttling curve driven by an
// activity-accumulator heat model, and OS-noise injection (a periodic tick
// plus randomly placed preemption slices).
//
// Everything is deterministic and seeded. Each per-interval decision — does
// the DVFS governor shift state, which state does it pick, does a
// preemption land here — is a pure splitmix64 hash of (seed, stream,
// physical core, interval index), the FaultPlan idiom: no generator state
// is shared across cores or jobs, so any `--jobs N`, any remote worker
// count, and any resume replays bit-identically. "Physical core" is the
// simulated core id plus a `placement` offset, so the same kernel can be
// pinned to different cores of the modeled chip purely by spec — that is
// what makes core-to-core spread studies possible on single-core jobs.
//
// The parameters live on SocConfig and serialize through the same
// "key = value" override mechanism as every other knob (`hwvar.*`), so a
// variability run's fingerprint can never alias a deterministic one — the
// result cache, the serve daemon's dedup, and tuner checkpoints all keep
// them apart for free, exactly like sampling (sim/sampling).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace bridge {

class Config;

struct HwVarParams {
  bool enabled = false;
  /// Root seed for every per-interval hash draw.
  std::uint64_t seed = 1;
  /// Decision interval in micro-ops (per core): DVFS shifts, preemption
  /// slices, and thermal updates land on these boundaries.
  std::uint64_t interval_ops = 10000;
  /// Physical-core offset: simulated core c behaves like physical core
  /// c + placement. Distinct placements give distinct DVFS/noise streams —
  /// the core-to-core axis of a variability study.
  std::uint64_t placement = 0;

  // --- DVFS ---
  /// Number of frequency states (1 disables DVFS wander). State 0 is
  /// nominal frequency; state levels-1 runs at min_freq_pct.
  std::uint64_t levels = 4;
  /// Frequency of the slowest state as a percentage of nominal, in
  /// [1, 100]. Intermediate states interpolate linearly.
  std::uint64_t min_freq_pct = 70;
  /// Per-mille probability (0..1000) that the governor re-draws the state
  /// at an interval boundary.
  std::uint64_t dvfs_shift_pm = 150;
  /// Stall cycles charged on a state change (PLL relock / voltage ramp).
  std::uint64_t dvfs_latency_cycles = 400;

  // --- Thermal throttling ---
  /// Heat units accrued per executed op, per-mille (an op at nominal
  /// frequency adds therm_heat_pm/1000 units; a throttled interval's ops
  /// run cooler, scaled by min_freq_pct/100).
  std::uint64_t therm_heat_pm = 300;
  /// Heat units dissipated per op-slot per interval, per-mille. Cooling
  /// below heating under sustained load is what builds the throttle ramp.
  std::uint64_t therm_cool_pm = 250;
  /// Heat level that trips throttling (clamp to the slowest DVFS state).
  /// Recovery at half this level (hysteresis). 0 disables the thermal model.
  std::uint64_t therm_threshold = 100000;

  // --- OS noise ---
  /// Periodic scheduler tick: one tick per tick_ops executed ops.
  /// 0 disables the tick.
  std::uint64_t tick_ops = 2500;
  /// Cycles stolen by each tick.
  std::uint64_t tick_cycles = 120;
  /// Per-mille probability (0..1000) that a preemption slice lands on an
  /// interval boundary.
  std::uint64_t preempt_pm = 30;
  /// Cycles stolen by one preemption slice.
  std::uint64_t preempt_cycles = 8000;

  /// False (with a message) on nonsense: enabled with a zero interval,
  /// zero DVFS levels, a min frequency outside [1, 100], or a per-mille
  /// knob above 1000.
  bool validate(std::string* error = nullptr) const;

  /// Canonical spec string: "off" or the full key=value list.
  std::string specString() const;

  /// Fingerprint fragment: slash-joined values. Only ever folded into
  /// describeSocConfig() when enabled, so deterministic fingerprints are
  /// byte-identical to pre-hwvar builds.
  std::string describe() const;

  /// BRIDGE_HWVAR environment knob ("on", "off", or a spec string). A
  /// malformed value disables variability with one warning — an env typo
  /// must degrade to the deterministic machine, never crash a sweep.
  static HwVarParams fromEnv();

  bool operator==(const HwVarParams&) const = default;
};

/// Parse "on" / "off" / "interval=N,seed=N,placement=N,levels=N,minfreq=N,
/// shift=N,dvfslat=N,heat=N,cool=N,threshold=N,tick=N,tickcycles=N,
/// preempt=N,preemptcycles=N" (keys optional, any order; unknown keys and
/// malformed numbers are errors). On success *out holds the params
/// (enabled unless spec is "off").
bool parseHwVarSpec(std::string_view spec, HwVarParams* out,
                    std::string* error = nullptr);

/// Set the `hwvar.*` SocConfig override keys for `p` (enabled or not).
void applyHwVarOverrides(Config* overrides, const HwVarParams& p);

/// True when `overrides` carries any explicit `hwvar.*` key — such a spec's
/// variability was pinned by its author and engine-level hwvar must not
/// rewrite it.
bool hasHwVarOverrides(const Config& overrides);

/// The field of `p` behind one dotted `hwvar.*` u64 override key, or
/// nullptr for keys this module's knob table does not hold
/// (applySocOverrides parses the values, sets `hwvar.enabled` and owns the
/// unknown-key error).
std::uint64_t* hwvarOverrideSlot(HwVarParams* p, std::string_view key);

/// Independent hash streams for the per-interval decisions.
enum class HwVarStream : std::uint64_t {
  kDvfsShift = 1,  // does the governor re-draw the state this interval?
  kDvfsLevel = 2,  // which state does it draw?
  kPreempt = 3,    // does a preemption slice land on this boundary?
};

/// One pure splitmix64 draw keyed on (seed, stream, physical core,
/// interval). The whole variability plan is a function of the spec: no
/// generator state exists to share, so any worker count replays it.
std::uint64_t hwvarRoll(const HwVarParams& p, HwVarStream stream,
                        std::uint64_t physical_core, std::uint64_t interval);

/// Physical core the simulated core `core_id` is pinned to.
std::uint64_t hwvarPhysicalCore(const HwVarParams& p, unsigned core_id);

/// DVFS state transition for one interval boundary: the state holding for
/// `interval`, given the state `prev` that held for `interval - 1`.
/// Interval 0 always starts at state 0 (nominal).
unsigned hwvarDvfsStep(const HwVarParams& p, std::uint64_t physical_core,
                       std::uint64_t interval, unsigned prev);

/// The DVFS state holding for `interval`, folded from interval 0 — O(n) in
/// the interval index, for tests and offline analysis; HwVarCore tracks it
/// incrementally via hwvarDvfsStep.
unsigned hwvarDvfsState(const HwVarParams& p, std::uint64_t physical_core,
                        std::uint64_t interval);

/// Frequency of DVFS state `state` as a percentage of nominal, in
/// [min_freq_pct, 100]: state 0 is 100, state levels-1 is ~min_freq_pct,
/// intermediate states interpolate linearly (integer arithmetic).
unsigned hwvarFreqPct(const HwVarParams& p, unsigned state);

/// True when a preemption slice lands on the boundary closing `interval`.
bool hwvarPreempts(const HwVarParams& p, std::uint64_t physical_core,
                   std::uint64_t interval);

/// Derived seed for replica `replica` of a variability study: one
/// splitmix64 expansion of the base seed, so replicas are independent,
/// well-separated streams and the mapping is a pure function (any worker
/// count or resume regenerates the identical replica set).
std::uint64_t hwvarReplicaSeed(std::uint64_t base_seed, std::uint64_t replica);

}  // namespace bridge
