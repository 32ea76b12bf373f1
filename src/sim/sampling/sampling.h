// Sampled-simulation parameters (DESIGN.md §5i).
//
// Sampled mode trades accuracy for raw simulator speed: execution is split
// into fixed-length intervals of micro-ops, and inside each interval only a
// short *detailed window* runs through the full timing model. Everything
// outside the window is *fast-forwarded* — micro-ops still update the
// functional state that carries long-range history (cache and TLB residency,
// branch-predictor tables, prefetcher strides) but skip all timing: no MSHR,
// bus, bank-calendar, or DRAM charges. The detailed window opens with
// `warmup_ops` of unmeasured detailed execution (refilling pipeline and
// queue occupancy after the jump) followed by `measure_ops` of measured
// execution; the cycles a fast-forwarded segment would have taken are
// extrapolated from the measured windows' CPI, each gap billed when the
// window after it closes so the estimate brackets the gap (sampled_core.h).
// The window's position inside each interval is a deterministic seeded
// phase so periodic program structure cannot alias with the sampling
// period.
//
// The parameters live on SocConfig and serialize through the same
// "key = value" override mechanism as every other knob (`sampling.*`), so a
// sampled job's fingerprint can never alias a full-fidelity one — the
// result cache, the serve daemon's dedup, and tuner checkpoints all keep
// them apart for free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace bridge {

class Config;

struct SamplingParams {
  bool enabled = false;
  /// Interval length in micro-ops (per core). Each interval contributes one
  /// detailed window; everything else fast-forwards. The stock 20000/300/1000
  /// split is the widest interval that keeps every cell of the stock-params
  /// gate in tests/test_sampling.cpp inside its error bound (MicroBench 5%,
  /// NPB/LAMMPS 8%).
  std::uint64_t interval_ops = 20000;
  /// Unmeasured detailed ops at the start of the window (pipeline/queue
  /// refill after the fast-forward jump).
  std::uint64_t warmup_ops = 300;
  /// Measured detailed ops per window; their CPI extrapolates the interval.
  std::uint64_t measure_ops = 1000;
  /// Phase seed for the per-interval window offset.
  std::uint64_t seed = 1;

  std::uint64_t detailedOps() const { return warmup_ops + measure_ops; }

  /// A window at least as long as the interval degenerates to exact full
  /// simulation (every op detailed) — cycles are bit-identical to a
  /// disabled run, only the fingerprint differs.
  bool exact() const { return !enabled || detailedOps() >= interval_ops; }

  /// False (with a message) on nonsense: enabled with interval_ops == 0 or
  /// measure_ops == 0.
  bool validate(std::string* error = nullptr) const;

  /// Canonical spec string: "off" or
  /// "interval=<N>,measure=<N>,warmup=<N>,seed=<N>".
  std::string specString() const;

  /// Fingerprint fragment: "<interval>/<measure>/<warmup>/<seed>". Only
  /// ever folded into describeSocConfig() when enabled, so full-fidelity
  /// fingerprints are byte-identical to pre-sampling builds.
  std::string describe() const;

  /// BRIDGE_SAMPLING environment knob ("on", "off", or a spec string). A
  /// malformed value disables sampling with one warning — an env typo must
  /// degrade to full fidelity, never crash a sweep.
  static SamplingParams fromEnv();

  bool operator==(const SamplingParams&) const = default;
};

/// Parse "on" / "off" / "interval=N,measure=N,warmup=N,seed=N" (keys
/// optional, any order; unknown keys and malformed numbers are errors).
/// On success *out holds the params (enabled unless spec is "off").
bool parseSamplingSpec(std::string_view spec, SamplingParams* out,
                       std::string* error = nullptr);

/// Set the `sampling.*` SocConfig override keys for `p` (enabled or not).
void applySamplingOverrides(Config* overrides, const SamplingParams& p);

/// True when `overrides` carries any explicit `sampling.*` key — such a
/// spec's fidelity was pinned by its author and engine-level sampling must
/// not rewrite it.
bool hasSamplingOverrides(const Config& overrides);

/// Offset of the detailed window inside interval `index`, in
/// [0, interval_ops - detailedOps()]. Interval 0 is always 0 (measure
/// before the first extrapolation); later intervals take a seeded
/// deterministic phase so strided program structure cannot hide from the
/// sampler.
std::uint64_t samplingWindowOffset(const SamplingParams& p,
                                   std::uint64_t index);

}  // namespace bridge
