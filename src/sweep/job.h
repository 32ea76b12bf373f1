// Declarative experiment jobs.
//
// A JobSpec names everything needed to reproduce one simulation point:
// platform, workload, rank count, scale, seed, and optional SocConfig
// overrides (the same "key = value" knobs the tuning tools accept). The
// sweep engine resolves a spec to a concrete SocConfig + trace program,
// runs it, and fingerprints the resolved parameters for the result cache —
// so a spec is also the cache key's source of truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "platforms/platforms.h"
#include "sim/config.h"
#include "workloads/lammps.h"
#include "workloads/npb.h"
#include "workloads/ume.h"

namespace bridge {

enum class WorkloadKind { kMicrobench, kNpb, kUme, kLammps };

std::string_view workloadKindName(WorkloadKind k);

struct JobSpec {
  std::string label;  // display only; not part of the fingerprint
  WorkloadKind kind = WorkloadKind::kMicrobench;
  PlatformId platform = PlatformId::kRocket1;
  int ranks = 1;        // multi-rank workloads (NPB / UME / LAMMPS)
  double scale = 1.0;   // workload scale knob
  std::uint64_t seed = 1;

  // Microbench-specific.
  std::string kernel;  // catalog name, e.g. "MM"
  bool warmup = true;  // run the perturbed-seed warmup instance first

  // NPB / LAMMPS benchmark selectors.
  NpbBenchmark npb = NpbBenchmark::kCG;
  LammpsBenchmark lammps = LammpsBenchmark::kLennardJones;

  // NPB extra knob (default mirrors NpbConfig): MG top-grid dimension.
  unsigned npb_mg_top = 48;

  // UME / LAMMPS extra knobs (defaults mirror the workload configs).
  unsigned ume_zones_per_dim = 32;
  std::uint64_t lammps_atoms = 8000;
  unsigned lammps_timesteps = 4;
  unsigned lammps_neighbors = 12;
  unsigned lammps_simd_lanes = 1;

  // SocConfig overrides applied on top of the platform preset; see
  // applySocOverrides() for the accepted keys.
  Config overrides;
};

/// Factory helpers; each fills a descriptive label.
JobSpec microbenchJob(PlatformId platform, std::string kernel,
                      double scale = 1.0, std::uint64_t seed = 1);
JobSpec npbJob(PlatformId platform, NpbBenchmark bench, int ranks,
               double scale = 1.0, std::uint64_t seed = 1);
JobSpec npbJob(PlatformId platform, NpbBenchmark bench, int ranks,
               const NpbConfig& cfg);
JobSpec umeJob(PlatformId platform, int ranks, const UmeConfig& cfg = {});
JobSpec lammpsJob(PlatformId platform, LammpsBenchmark bench, int ranks,
                  const LammpsConfig& cfg = {});

/// Apply "key = value" SocConfig overrides (e.g. "l2.banks", "ooo.rob",
/// "bus.width_bits"). Throws std::invalid_argument on an unknown key, or on
/// a value that does not parse as its knob's type (unsigned, u64, bool, or
/// a finite positive freq_ghz), so a typo cannot silently leave the base
/// config — and the cache fingerprint — unchanged.
void applySocOverrides(SocConfig* cfg, const Config& overrides);

/// One dotted-path unsigned knob of a SocConfig (the override keys above).
struct SocKnob {
  std::string_view key;
  unsigned* slot;
};

/// Every unsigned knob of `cfg`, addressed by override key — the single
/// source of truth shared by applySocOverrides and the tuner's parameter
/// space (which reads a base platform's current values through it).
/// freq_ghz and prefetch.enabled are handled separately.
std::vector<SocKnob> socConfigKnobs(SocConfig& cfg);

/// Current value of one unsigned knob; throws std::invalid_argument for an
/// unknown key.
unsigned socConfigKnobValue(const SocConfig& cfg, std::string_view key);

/// The SocConfig a spec runs on: platform preset, sized by the harness's
/// core rule (1 core for microbenchmarks; max(4, ranks) otherwise), with
/// overrides applied.
SocConfig resolveSocConfig(const JobSpec& spec);

/// Canonical one-line workload description (fingerprint input + debugging).
std::string describeJob(const JobSpec& spec);

/// Execute a spec synchronously on the calling thread (no pool, no cache).
/// `stats`, if non-null, receives the post-run counter snapshot.
RunResult executeJob(const JobSpec& spec, StatsSnapshot* stats = nullptr);

}  // namespace bridge
