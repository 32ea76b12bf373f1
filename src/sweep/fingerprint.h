// Content-addressed fingerprints for simulation jobs.
//
// A fingerprint is a 64-bit FNV-1a hash (hex string) over a canonical text
// description of everything that determines a run's outcome:
//   simulator version + resolved SocConfig (every timing parameter) +
//   workload spec (kind, benchmark, ranks, scale, seed, warmup, knobs).
// Two jobs with the same fingerprint produce bit-identical RunResults, so
// the result cache can key on it. Bump kSimulatorVersion whenever a timing
// model changes behaviour — that invalidates every cached result at once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "soc/soc.h"
#include "sweep/job.h"

namespace bridge {

/// Version tag folded into every fingerprint. Bump on any change that can
/// move a simulated cycle count (core/cache/DRAM/bus/MPI models, workload
/// trace generation, platform presets).
inline constexpr std::string_view kSimulatorVersion = "bridge-sim-2";

/// 64-bit FNV-1a.
std::uint64_t fnv1a64(std::string_view data);

/// Exhaustive canonical dump of a SocConfig's timing parameters.
std::string describeSocConfig(const SocConfig& cfg);

/// The full fingerprint input for a job (version + config + workload).
std::string fingerprintInput(const JobSpec& spec);

/// 16-hex-digit cache key for a job.
std::string jobFingerprint(const JobSpec& spec);

}  // namespace bridge
