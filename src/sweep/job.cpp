#include "sweep/job.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "workloads/microbench.h"

namespace bridge {

std::string_view workloadKindName(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kMicrobench: return "microbench";
    case WorkloadKind::kNpb: return "npb";
    case WorkloadKind::kUme: return "ume";
    case WorkloadKind::kLammps: return "lammps";
  }
  return "?";
}

JobSpec microbenchJob(PlatformId platform, std::string kernel, double scale,
                      std::uint64_t seed) {
  JobSpec s;
  s.kind = WorkloadKind::kMicrobench;
  s.platform = platform;
  s.kernel = std::move(kernel);
  s.scale = scale;
  s.seed = seed;
  s.label = s.kernel + "@" + std::string(platformName(platform));
  return s;
}

JobSpec npbJob(PlatformId platform, NpbBenchmark bench, int ranks,
               double scale, std::uint64_t seed) {
  JobSpec s;
  s.kind = WorkloadKind::kNpb;
  s.platform = platform;
  s.npb = bench;
  s.ranks = ranks;
  s.scale = scale;
  s.seed = seed;
  s.label = std::string(npbName(bench)) + "/" + std::to_string(ranks) +
            "r@" + std::string(platformName(platform));
  return s;
}

JobSpec npbJob(PlatformId platform, NpbBenchmark bench, int ranks,
               const NpbConfig& cfg) {
  JobSpec s = npbJob(platform, bench, ranks, cfg.scale, cfg.seed);
  s.npb_mg_top = cfg.mg_top;
  return s;
}

JobSpec umeJob(PlatformId platform, int ranks, const UmeConfig& cfg) {
  JobSpec s;
  s.kind = WorkloadKind::kUme;
  s.platform = platform;
  s.ranks = ranks;
  s.scale = cfg.scale;
  s.seed = cfg.seed;
  s.ume_zones_per_dim = cfg.zones_per_dim;
  s.label = "ume/" + std::to_string(ranks) + "r@" +
            std::string(platformName(platform));
  return s;
}

JobSpec lammpsJob(PlatformId platform, LammpsBenchmark bench, int ranks,
                  const LammpsConfig& cfg) {
  JobSpec s;
  s.kind = WorkloadKind::kLammps;
  s.platform = platform;
  s.lammps = bench;
  s.ranks = ranks;
  s.scale = cfg.scale;
  s.seed = cfg.seed;
  s.lammps_atoms = cfg.atoms;
  s.lammps_timesteps = cfg.timesteps;
  s.lammps_neighbors = cfg.neighbors;
  s.lammps_simd_lanes = cfg.simd_lanes;
  s.label = std::string(bench == LammpsBenchmark::kLennardJones ? "lammps-lj"
                                                                : "lammps-chain") +
            "/" + std::to_string(ranks) + "r@" +
            std::string(platformName(platform));
  return s;
}

std::vector<SocKnob> socConfigKnobs(SocConfig& cfg) {
  // Every knob the tuning tools and ablations touch, addressed by the same
  // dotted paths the "key = value" files use.
  return {
      {"cores", &cfg.cores},
      {"inorder.issue_width", &cfg.inorder.issue_width},
      {"inorder.pipeline_depth", &cfg.inorder.pipeline_depth},
      {"inorder.store_buffer", &cfg.inorder.store_buffer},
      {"ooo.fetch_width", &cfg.ooo.fetch_width},
      {"ooo.decode_width", &cfg.ooo.decode_width},
      {"ooo.fetch_buffer", &cfg.ooo.fetch_buffer},
      {"ooo.rob", &cfg.ooo.rob},
      {"ooo.int_iq", &cfg.ooo.int_iq},
      {"ooo.mem_iq", &cfg.ooo.mem_iq},
      {"ooo.fp_iq", &cfg.ooo.fp_iq},
      {"ooo.ldq", &cfg.ooo.ldq},
      {"ooo.stq", &cfg.ooo.stq},
      {"l1i.sets", &cfg.mem.l1i.sets},
      {"l1i.ways", &cfg.mem.l1i.ways},
      {"l1i.mshrs", &cfg.mem.l1i.mshrs},
      {"l1d.sets", &cfg.mem.l1d.sets},
      {"l1d.ways", &cfg.mem.l1d.ways},
      {"l1d.latency", &cfg.mem.l1d.latency},
      {"l1d.mshrs", &cfg.mem.l1d.mshrs},
      {"l2.sets", &cfg.mem.l2.sets},
      {"l2.ways", &cfg.mem.l2.ways},
      {"l2.latency", &cfg.mem.l2.latency},
      {"l2.banks", &cfg.mem.l2.banks},
      {"l2.mshrs", &cfg.mem.l2.mshrs},
      {"bus.width_bits", &cfg.mem.bus.width_bits},
      {"llc.sets", &cfg.mem.llc.sets},
      {"llc.ways", &cfg.mem.llc.ways},
      {"dram.channels", &cfg.mem.dram_channels},
      {"dram.read_queue_depth", &cfg.mem.dram.read_queue_depth},
      {"dram.write_queue_depth", &cfg.mem.dram.write_queue_depth},
      {"prefetch.degree", &cfg.mem.prefetch.degree},
  };
}

unsigned socConfigKnobValue(const SocConfig& cfg, std::string_view key) {
  SocConfig& mutable_cfg = const_cast<SocConfig&>(cfg);
  for (const SocKnob& k : socConfigKnobs(mutable_cfg)) {
    if (k.key == key) return *k.slot;
  }
  throw std::invalid_argument("unknown SocConfig knob: " + std::string(key));
}

void applySocOverrides(SocConfig* cfg, const Config& overrides) {
  // An unknown key, or a value that does not parse as its knob's type,
  // throws: a typo must not silently leave the base config (and its
  // fingerprint) intact.
  const std::vector<SocKnob> unsigned_knobs = socConfigKnobs(*cfg);
  const std::pair<std::string_view, bool*> flags[] = {
      {"prefetch.enabled", &cfg->mem.prefetch.enabled},
      {"sampling.enabled", &cfg->sampling.enabled},
      {"hwvar.enabled", &cfg->hwvar.enabled},
  };
  const std::pair<std::string_view, std::uint64_t*> u64_knobs[] = {
      {"sampling.interval_ops", &cfg->sampling.interval_ops},
      {"sampling.measure_ops", &cfg->sampling.measure_ops},
      {"sampling.warmup_ops", &cfg->sampling.warmup_ops},
      {"sampling.seed", &cfg->sampling.seed},
  };

  overrides.forEach([&](const std::string& key, const std::string& value) {
    const auto malformed = [&] {
      return std::invalid_argument("malformed SocConfig override value: " +
                                   key + " = '" + value + "'");
    };
    const auto u64 = [&] {
      const std::optional<std::uint64_t> v = overrides.getUint(key);
      if (!v) throw malformed();
      return *v;
    };
    for (const SocKnob& k : unsigned_knobs) {
      if (key == k.key) {
        const std::uint64_t v = u64();
        if (v > std::numeric_limits<unsigned>::max()) throw malformed();
        *k.slot = static_cast<unsigned>(v);
        return;
      }
    }
    for (const auto& [name, slot] : flags) {
      if (key == name) {
        const std::optional<bool> v = overrides.getBool(key);
        if (!v) throw malformed();
        *slot = *v;
        return;
      }
    }
    for (const auto& [name, slot] : u64_knobs) {
      if (key == name) {
        *slot = u64();
        return;
      }
    }
    if (std::uint64_t* slot = hwvarOverrideSlot(&cfg->hwvar, key)) {
      *slot = u64();
    } else if (key == "freq_ghz") {
      const std::optional<double> v = overrides.getDouble(key);
      if (!v || !std::isfinite(*v) || *v <= 0) throw malformed();
      cfg->freq_ghz = *v;
      cfg->mem.freq_ghz = *v;
    } else {
      throw std::invalid_argument("unknown SocConfig override key: " + key);
    }
  });

  std::string why;
  if (!cfg->sampling.validate(&why)) {
    throw std::invalid_argument("invalid sampling overrides: " + why);
  }
  if (!cfg->hwvar.validate(&why)) {
    throw std::invalid_argument("invalid hwvar overrides: " + why);
  }
}

SocConfig resolveSocConfig(const JobSpec& spec) {
  const unsigned cores =
      spec.kind == WorkloadKind::kMicrobench
          ? 1u
          : (spec.ranks <= 4 ? 4u : static_cast<unsigned>(spec.ranks));
  SocConfig cfg = makePlatform(spec.platform, cores);
  applySocOverrides(&cfg, spec.overrides);
  return cfg;
}

std::string describeJob(const JobSpec& spec) {
  std::ostringstream os;
  char scale_buf[40];
  std::snprintf(scale_buf, sizeof scale_buf, "%.17g", spec.scale);
  os << "workload=" << workloadKindName(spec.kind)
     << " platform=" << platformName(spec.platform)
     << " ranks=" << spec.ranks << " scale=" << scale_buf
     << " seed=" << spec.seed;
  switch (spec.kind) {
    case WorkloadKind::kMicrobench:
      os << " kernel=" << spec.kernel << " warmup=" << (spec.warmup ? 1 : 0);
      break;
    case WorkloadKind::kNpb:
      os << " bench=" << npbName(spec.npb) << " mg_top=" << spec.npb_mg_top;
      break;
    case WorkloadKind::kUme:
      os << " zones=" << spec.ume_zones_per_dim;
      break;
    case WorkloadKind::kLammps: {
      const LammpsConfig eff = resolveLammpsConfig(
          spec.platform, LammpsConfig{spec.lammps_atoms, spec.lammps_timesteps,
                                      spec.lammps_neighbors, spec.scale,
                                      spec.lammps_simd_lanes, spec.seed});
      os << " bench="
         << (spec.lammps == LammpsBenchmark::kLennardJones ? "lj" : "chain")
         << " atoms=" << eff.atoms << " timesteps=" << eff.timesteps
         << " neighbors=" << eff.neighbors << " simd=" << eff.simd_lanes;
      break;
    }
  }
  return os.str();
}

RunResult executeJob(const JobSpec& spec, StatsSnapshot* stats) {
  const SocConfig cfg = resolveSocConfig(spec);
  switch (spec.kind) {
    case WorkloadKind::kMicrobench: {
      const TraceFactory warm =
          spec.warmup ? TraceFactory([&] {
            return makeMicrobench(spec.kernel, spec.scale,
                                  spec.seed + kWarmupSeedOffset);
          })
                      : TraceFactory(nullptr);
      return runSingleCore(
          cfg, [&] { return makeMicrobench(spec.kernel, spec.scale, spec.seed); },
          warm, stats);
    }
    case WorkloadKind::kNpb: {
      NpbConfig ncfg;
      ncfg.scale = spec.scale;
      ncfg.seed = spec.seed;
      ncfg.mg_top = spec.npb_mg_top;
      return runMultiRank(
          cfg, spec.ranks,
          [&](int rank, int nranks) {
            return makeNpbRank(spec.npb, rank, nranks, ncfg);
          },
          stats);
    }
    case WorkloadKind::kUme: {
      UmeConfig ucfg;
      ucfg.zones_per_dim = spec.ume_zones_per_dim;
      ucfg.scale = spec.scale;
      ucfg.seed = spec.seed;
      return runMultiRank(
          cfg, spec.ranks,
          [&](int rank, int nranks) { return makeUmeRank(rank, nranks, ucfg); },
          stats);
    }
    case WorkloadKind::kLammps: {
      LammpsConfig lcfg;
      lcfg.atoms = spec.lammps_atoms;
      lcfg.timesteps = spec.lammps_timesteps;
      lcfg.neighbors = spec.lammps_neighbors;
      lcfg.scale = spec.scale;
      lcfg.simd_lanes = spec.lammps_simd_lanes;
      lcfg.seed = spec.seed;
      const LammpsConfig eff = resolveLammpsConfig(spec.platform, lcfg);
      return runMultiRank(
          cfg, spec.ranks,
          [&](int rank, int nranks) {
            return makeLammpsRank(spec.lammps, rank, nranks, eff);
          },
          stats);
    }
  }
  throw std::logic_error("unreachable workload kind");
}

}  // namespace bridge
