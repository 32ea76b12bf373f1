// hostbench: one run of one workload of the host-speed benchmark
// (README.md). run.py builds the binaries and calls them; to run by hand:
//
//   hostbench --workload ooo-full|inorder-full|sampled|serve --seed N
//             --seconds S [--spans FILE] [--baseline-s B]
//   hostbench --workload W --seed N --setup-only
//
// --setup-only performs the workload's set-up, prints the CPU time it took
// from the first code of the program, and exits; run.py takes the median
// over several launches.
// --baseline-s (hostbench_traced) is the untraced wall time of one unit of
// the same fixed work, used to correct span costs in situ.
//
// Run it from a scratch directory: the serve workload puts its daemon
// socket, result cache and journal there. The sim workloads run their cells
// one after another through a one-worker SweepEngine with the result cache
// off, in passes, until the next pass would overrun --seconds (so
// --seconds 0 runs one pass). The serve workload drives an in-process
// SweepDaemon from a closed loop of client threads: a cold phase of fresh
// fingerprints, then a warm phase repeating them until --seconds is used up.
//
// The last stdout line is one JSON object: the correctness verdict and its
// reasons, attempted/failed counts, a digest of every simulated result, the
// wall time of one unit of fixed work (for tracing.overhead), and the
// metrics. hostbench_traced (probe_on.cpp) adds the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "probe.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sweep/job.h"
#include "sweep/sweep.h"

namespace hostbench {
namespace {

using namespace bridge;
using Clock = std::chrono::steady_clock;

/// Scale of every sim-workload cell: BENCH_sim.json's configuration, the
/// one the stock SamplingParams were chosen on.
constexpr double kSimScale = 0.5;
/// Serve workload: closed-loop clients, daemon pool workers, and the cells
/// (small Rocket1 MicroBench probes; fresh seeds give fresh fingerprints).
constexpr unsigned kServeClients = 4;
constexpr unsigned kServeWorkers = 1;
constexpr double kServeScale = 0.5;
constexpr unsigned kServeSeedsPerRun = 96;
/// The cold phase runs in rounds of fresh cells and the warm phase in
/// windows, each on fresh client connections: threads sharing one CPU
/// settle into one of a few handoff patterns per connection set, and
/// reconnecting re-draws it. The serve metrics pool all rounds (windows).
constexpr std::size_t kServeRounds = 8;
constexpr std::size_t kServeWindows = 8;
const char* const kServeKernels[] = {"STL2", "ED1", "MIM",
                                     "DP1d", "ML2", "CCh"};

/// The seed run.py uses when none is given.
constexpr std::uint64_t kDefaultSeed = 1;

/// Digest of every cell's cycles, retired ops and StatsSnapshot, per
/// workload, at seeds 1 to kPinnedSeeds. Re-pin (and say why) only together
/// with a kSimulatorVersion bump: a speed-only change must leave them
/// untouched.
constexpr std::uint64_t kPinnedSeeds = 10;
struct PinnedDigests {
  const char* workload;
  std::uint64_t by_seed[kPinnedSeeds];  // seed 1 first
};
constexpr PinnedDigests kPinnedDigests[] = {
    {"ooo-full",
     {0x41e37eba5909a8fcull, 0x991acfb6ca55a887ull, 0xb5cadd7f7e2faaa7ull,
      0xd11064a00fce8c6full, 0x783a4f235f6635bfull, 0x949ae50bc1749c49ull,
      0x4ea6827815ea5991ull, 0xca92fddbce2b0076ull, 0xb568ff0d25d147caull,
      0xfc14093d12c16fbcull}},
    {"inorder-full",
     {0x37ebdab44c59c868ull, 0x6dcf064f061ddc4cull, 0xefdf67e5625c3400ull,
      0x30eed7b1e30d1529ull, 0xc363bf5e9ebd8c13ull, 0xa30908bc5734ae2full,
      0xa18bdd98ddaa5b94ull, 0x6f17fe339d3a0161ull, 0xaff9aaa069d7fd0dull,
      0x00b0466746b70160ull}},
    {"sampled",
     {0x7e2f8ad39c1369a8ull, 0xb29069eeec6ae7b0ull, 0xe7013f67390c938full,
      0xb135bc29a872bf9cull, 0x1ef1a1cb305fc99dull, 0x93f587669a8e8640ull,
      0xa2e1776aaea38566ull, 0x0e2bda03a3c09097ull, 0xd8cf867dc84deff6ull,
      0x660ccd0cde87ce53ull}},
    {"serve",
     {0xafebb0de3f4a48dcull, 0x51ab00e9a9a9fe94ull, 0x78709e68066dfdf0ull,
      0x083367dca008fce8ull, 0x193f51a91528a44full, 0x36583289eb7fa769ull,
      0x33ee6a1b61555812ull, 0x5944103ba68bea3dull, 0xea3614c28d99bb81ull,
      0x61960d627917d812ull}},
};

/// Full-fidelity cycles of the sampled workload's cells at the default
/// seed, in cell order; any other seed recomputes them after the timed
/// region.
constexpr Cycle kPinnedFullCycles[] = {2368953, 4664013,  1525235, 7306847,
                                       8155390, 33606258, 4075589, 42337091};

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile (type 7), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Confine the process, and every thread it starts, to one CPU: the last
/// one it may run on. On a shared VM, wakeups that cross vCPUs swung the
/// serve workload's warm throughput by up to 8x between runs; on one CPU
/// the benchmark measures the program's own work per request.
void pinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// FNV-1a over the simulated outputs of a result set.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) {
    add(s.size());
    add(s.data(), s.size());
  }
  void add(const std::string& label, const RunResult& r,
           const StatsSnapshot& stats) {
    add(label);
    add(r.cycles);
    add(r.retired);
    add(r.messages);
    for (const auto& [name, value] : stats) {
      add(name);
      add(value);
    }
  }
};

/// Bit-for-bit equality of two results, doubles included.
bool sameResult(const RunResult& a, const StatsSnapshot& as, const RunResult& b,
                const StatsSnapshot& bs) {
  return a.cycles == b.cycles && a.retired == b.retired &&
         a.messages == b.messages &&
         std::memcmp(&a.seconds, &b.seconds, sizeof a.seconds) == 0 &&
         std::memcmp(&a.ipc, &b.ipc, sizeof a.ipc) == 0 && as == bs;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  double unit_wall_s = 0.0;   // one unit of fixed work, for tracing.overhead
  double check_wall_s = 0.0;  // serve: the local re-execution check
  std::vector<Metric> metrics;    // end to end
  std::vector<Metric> per_layer;  // traced build only
  std::vector<Metric> info;       // printed, not part of the result line

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string spans;  // traced build: cell/request span log
  double baseline_s = 0.0;
  bool setup_only = false;
};

/// CPU time of the whole process, all threads, in seconds.
double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Process CPU time when the program's own code first ran. Constructor
/// priority 101 sorts ahead of every default-priority static initialiser of
/// the executable, the library's included, so they count as set-up; the
/// kernel's exec, the dynamic loader and the launching process's spawn do
/// not.
double g_cpu_at_start = 0.0;
__attribute__((constructor(101))) void markProcessStart() {
  g_cpu_at_start = processCpuSeconds();
}

/// --setup-only: the CPU time set-up took, from g_cpu_at_start. On the one
/// CPU a run is pinned to, set-up's wall time is this plus waits on the
/// filesystem and the host's scheduler, and those waits moved one run's
/// median serve set-up from 1.6 to 6.9 ms against another's minutes apart.
void printSetupSeconds() {
  std::printf("{\"setup_s\": %.9f}\n", processCpuSeconds() - g_cpu_at_start);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Cells

std::vector<JobSpec> npbCells(PlatformId platform, std::uint64_t seed) {
  std::vector<JobSpec> cells;
  for (const NpbBenchmark b : {NpbBenchmark::kCG, NpbBenchmark::kMG,
                               NpbBenchmark::kEP, NpbBenchmark::kIS}) {
    cells.push_back(npbJob(platform, b, /*ranks=*/2, kSimScale, seed));
  }
  return cells;
}

JobSpec ljCell(PlatformId platform, std::uint64_t seed) {
  LammpsConfig cfg;
  cfg.scale = kSimScale;
  cfg.seed = seed;
  return lammpsJob(platform, LammpsBenchmark::kLennardJones, /*ranks=*/2, cfg);
}

std::vector<JobSpec> simCells(const std::string& workload, std::uint64_t seed) {
  std::vector<JobSpec> cells;
  if (workload == "ooo-full") {
    cells = npbCells(PlatformId::kMilkVSim, seed);
    cells.push_back(ljCell(PlatformId::kMilkVSim, seed));
  } else if (workload == "inorder-full") {
    cells = npbCells(PlatformId::kBananaPiSim, seed);
    cells.push_back(ljCell(PlatformId::kBananaPiSim, seed));
    for (const char* k : {"MM", "STL2", "ED1", "MIM", "DP1d", "ML2", "CCh"}) {
      cells.push_back(microbenchJob(PlatformId::kRocket1, k, kSimScale, seed));
    }
  } else if (workload == "sampled") {
    cells = npbCells(PlatformId::kMilkVSim, seed);
    for (JobSpec& j : npbCells(PlatformId::kBananaPiSim, seed)) {
      cells.push_back(std::move(j));
    }
  }
  return cells;
}

std::vector<JobSpec> serveCells(std::uint64_t seed) {
  std::vector<JobSpec> cells;
  for (unsigned s = 0; s < kServeSeedsPerRun; ++s) {
    for (const char* k : kServeKernels) {
      cells.push_back(microbenchJob(PlatformId::kRocket1, k, kServeScale,
                                    seed * 1000 + s));
    }
  }
  return cells;
}

/// Engine options shared by every local run: one worker, no cache, no
/// injected faults, whatever the environment says.
SweepOptions localOptions() {
  SweepOptions o;
  o.workers = 1;
  o.use_cache = false;
  o.faults = FaultPlan{};
  return o;
}

/// The pinned digest of `workload` at `seed`, or 0 if none is pinned.
std::uint64_t pinnedDigest(const std::string& workload, std::uint64_t seed) {
  if (seed < 1 || seed > kPinnedSeeds) return 0;
  for (const PinnedDigests& p : kPinnedDigests) {
    if (workload == p.workload) return p.by_seed[seed - 1];
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Counters read from the program's own StatsSnapshots

/// Sum of `key` (exact, e.g. "mem.l2.miss") or, for "core.X", of every
/// "core<N>.X" and "core<N>.sampling...X" entry.
std::uint64_t statSum(const StatsSnapshot& stats, const std::string& key) {
  std::uint64_t total = 0;
  const bool per_core = key.rfind("core.", 0) == 0;
  const std::string suffix = per_core ? key.substr(4) : key;
  for (const auto& [name, value] : stats) {
    if (per_core) {
      if (name.rfind("core", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += value;
      }
    } else if (name == key) {
      total += value;
    }
  }
  return total;
}

void addCounters(const std::vector<SweepResult>& results, Report* out) {
  static const char* const kKeys[] = {
      "mem.l1d.miss",       "mem.l2.miss",     "mem.llc.miss",
      "mem.tlb.miss",       "core.mispredicts", "core.rob_stalls",
      "core.load_use_stalls"};
  for (const char* key : kKeys) {
    std::uint64_t total = 0;
    for (const SweepResult& r : results) total += statSum(r.stats, key);
    out->layer(std::string("counters.") + key, static_cast<double>(total),
               "count");
  }
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced build

const LayerTotals& at(const ProbeTotals& t, Layer l) {
  return t.layer[static_cast<std::size_t>(l)];
}

double perCall(const LayerTotals& l, double unit_ns) {
  return l.calls > 0 ? l.incl_ns / l.calls / unit_ns : 0.0;
}

/// Simulator layers, over the cells run in `t`'s phase. Shares are of the
/// span-corrected runOne time, or of the time of the layers it calls where
/// that is more (tracing.closure > 1), so they never add up past 1;
/// `share` is inclusive of wrapped layers beneath, `self_share` is not.
void addSimLayers(const ProbeTotals& t, const std::vector<SweepResult>& results,
                  Report* out) {
  const LayerTotals& run = at(t, Layer::kRun);
  const double run_ns = std::max(run.incl_ns, run.children_ns);
  const auto share = [&](double ns) { return run_ns > 0 ? ns / run_ns : 0.0; };
  const auto triple = [&](const std::string& name, Layer l) {
    const LayerTotals& x = at(t, l);
    out->layer(name + ".calls", x.calls, "count");
    out->layer(name + ".ns_per_call", perCall(x, 1.0), "ns");
    out->layer(name + ".share", share(x.incl_ns), "ratio");
  };
  const LayerTotals& next = at(t, Layer::kGenNext);
  const LayerTotals& build = at(t, Layer::kGenBuild);
  out->layer("workloads.gen_ns_per_uop", perCall(next, 1.0), "ns");
  out->layer("workloads.build_ms", perCall(build, 1e6), "ms");
  out->layer("workloads.share", share(next.incl_ns + build.incl_ns), "ratio");
  out->layer("soc.build_ms", perCall(at(t, Layer::kSoc), 1e6), "ms");
  triple("sim.calendar.port", Layer::kCalPort);
  triple("sim.calendar.mem", Layer::kCalMem);
  out->layer("sim.calendar.scan_frac",
             t.calendar_calls ? static_cast<double>(t.calendar_scans) /
                                    static_cast<double>(t.calendar_calls)
                              : 0.0,
             "ratio");
  out->layer("sim.calendar.scan_depth",
             t.calendar_scans ? t.calendar_scan_depth /
                                    static_cast<double>(t.calendar_scans)
                              : 0.0,
             "intervals");
  triple("branch", Layer::kBranch);
  const LayerTotals& mem = at(t, Layer::kCacheMem);
  out->layer("cache.mem.calls", mem.calls, "count");
  out->layer("cache.mem.ns_per_call", perCall(mem, 1.0), "ns");
  out->layer("cache.mem.self_share", share(mem.self_ns), "ratio");
  triple("cache.warm", Layer::kCacheWarm);
  triple("cache.array", Layer::kCacheArray);
  triple("cache.tlb", Layer::kTlb);
  triple("dram", Layer::kDram);
  out->layer("mpi.copy.calls", at(t, Layer::kMpiCopy).calls, "count");
  out->layer("mpi.copy.share", share(at(t, Layer::kMpiCopy).incl_ns), "ratio");
  out->layer("core.self_share", share(run.self_ns), "ratio");
  out->layer("sweep.execute_ms", perCall(run, 1e6), "ms");
  out->layer("tracing.closure",
             run.incl_ns > 0 ? run.children_ns / run.incl_ns : 0.0, "ratio");

  std::uint64_t ff = 0;
  std::uint64_t ops = 0;
  for (const SweepResult& r : results) {
    ff += statSum(r.stats, "core.ff_ops");
    ops += r.result.retired;
  }
  out->layer("sim.sampling.ff_frac",
             ops ? static_cast<double>(ff) / static_cast<double>(ops) : 0.0,
             "ratio");
  addCounters(results, out);
}

/// Serve and sweep-cache layers. Request-path layers come from the warm
/// phase, write-path layers from the cold one; shares are of the summed
/// client-observed latency of the phase.
void addServeLayers(const ProbeTotals& cold, const ProbeTotals& warm,
                    double warm_latency_ns, double dedup_ratio, Report* out) {
  const auto share = [&](double ns) {
    return warm_latency_ns > 0 ? ns / warm_latency_ns : 0.0;
  };
  const LayerTotals& codec = at(warm, Layer::kCodec);
  const LayerTotals& frame = at(warm, Layer::kFrame);
  out->layer("serve.codec.calls", codec.calls, "count");
  out->layer("serve.codec.us_per_call", perCall(codec, 1e3), "us");
  out->layer("serve.codec.share", share(codec.incl_ns), "ratio");
  out->layer("serve.frame.us_per_call",
             frame.calls > 0 ? frame.self_ns / frame.calls / 1e3 : 0.0, "us");
  out->layer("serve.frame.share", share(frame.self_ns), "ratio");
  out->layer("sweep.fingerprint.us_per_call",
             perCall(at(warm, Layer::kFingerprint), 1e3), "us");
  out->layer("sweep.cache.lookup_us",
             perCall(at(warm, Layer::kCacheLookup), 1e3), "us");
  const std::uint64_t lookups = cold.cache_lookups + warm.cache_lookups;
  out->layer("sweep.cache.hit_ratio",
             lookups ? static_cast<double>(cold.cache_hits + warm.cache_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  out->layer("sweep.cache.store_us",
             perCall(at(cold, Layer::kCacheStore), 1e3), "us");
  out->layer("serve.journal.us_per_call",
             perCall(at(cold, Layer::kJournal), 1e3), "us");
  out->layer("serve.dedup_ratio", dedup_ratio, "ratio");
}

// ---------------------------------------------------------------------------
// Sim workloads: ooo-full, inorder-full, sampled

void runSim(const Args& args, Report* out) {
  const bool sampled = args.workload == "sampled";
  SweepOptions opts = localOptions();
  if (sampled) opts.sampling.enabled = true;  // stock SamplingParams
  SweepEngine engine(opts);
  const std::vector<JobSpec> cells = simCells(args.workload, args.seed);
  if (args.setup_only) return printSetupSeconds();

  // Timed passes. Pass 0's results are the reference every later pass must
  // reproduce exactly.
  std::vector<SweepResult> first;
  std::vector<std::vector<double>> cell_walls(cells.size());
  std::vector<double> cycles_rate, uops_rate, jobs_rate, pass_walls;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    double wall = 0.0;
    Cycle cycles = 0;
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto t0 = Clock::now();
      SweepResult r = engine.runOne(cells[i]);
      const double dt = secondsSince(t0);
      ++out->attempted;
      if (!r.ok()) {
        ++out->failed;
        out->fail(cells[i].label + ": outcome " +
                  std::string(jobOutcomeName(r.outcome)) + " " + r.error);
      }
      wall += dt;
      cycles += r.result.cycles;
      ops += r.result.retired;
      cell_walls[i].push_back(dt);
      if (pass == 0) {
        first.push_back(std::move(r));
      } else if (!sameResult(r.result, r.stats, first[i].result,
                             first[i].stats)) {
        out->fail(cells[i].label + ": pass " + std::to_string(pass) +
                  " differs from pass 0");
      }
    }
    pass_walls.push_back(wall);
    cycles_rate.push_back(static_cast<double>(cycles) / wall);
    uops_rate.push_back(static_cast<double>(ops) / wall);
    jobs_rate.push_back(static_cast<double>(cells.size()) / wall);
    const double elapsed = secondsSince(start);
    if (elapsed + wall > args.seconds) break;
  }
  probeSetPhase(Phase::kUntimed);
  const double rss = peakRssMiB();

  Digest digest;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    digest.add(cells[i].label, first[i].result, first[i].stats);
  }
  out->digest = digest.h;
  out->unit_wall_s = median(pass_walls);

  std::vector<double> cell_ms;
  for (const std::vector<double>& w : cell_walls) {
    cell_ms.push_back(1e3 * median(w));
  }
  out->metric("sim_cycles_per_s", median(cycles_rate), "cycles/s");
  out->metric("uops_per_s", median(uops_rate), "uops/s");
  out->metric("jobs_per_s", median(jobs_rate), "1/s");
  out->metric("job_p50_ms", quantile(cell_ms, 0.5), "ms");
  out->metric("peak_rss_mb", rss, "MiB");
  out->info.push_back(
      {"passes", static_cast<double>(pass_walls.size()), "count"});

  if (sampled) {
    // Relative cycle error of each sampled cell against full fidelity,
    // computed outside the timed region.
    std::vector<Cycle> full(std::begin(kPinnedFullCycles),
                            std::end(kPinnedFullCycles));
    const bool pinned = args.seed == kDefaultSeed &&
                        full.size() == cells.size() && full.front() != 0;
    if (!pinned) {
      SweepEngine reference(localOptions());
      full.clear();
      for (const JobSpec& cell : cells) {
        const SweepResult r = reference.runOne(cell);
        if (!r.ok()) out->fail(cell.label + ": full-fidelity reference failed");
        full.push_back(r.result.cycles);
      }
    }
    double err_max = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double f = static_cast<double>(full[i]);
      const double s = static_cast<double>(first[i].result.cycles);
      const double err = f > 0 ? std::abs(s - f) / f : 0.0;
      err_max = std::max(err_max, err);
      std::printf("sampled %-22s full %11llu sampled %11llu err %.4f\n",
                  cells[i].label.c_str(),
                  static_cast<unsigned long long>(full[i]),
                  static_cast<unsigned long long>(first[i].result.cycles), err);
    }
    out->info.push_back({"sampled_err_max", err_max, "ratio"});
  }

  if (probeActive()) {
    probeCalibrate(args.baseline_s, out->unit_wall_s, Phase::kMain,
                   static_cast<double>(pass_walls.size()));
    probeBalance(Phase::kMain, Layer::kRun);
    addSimLayers(probeTotals(Phase::kMain), first, out);
    addServeLayers(probeTotals(Phase::kMain), ProbeTotals{}, 0.0, 0.0, out);
  }
}

// ---------------------------------------------------------------------------
// Serve workload

/// Deterministic Fisher-Yates (std::shuffle's algorithm is unspecified).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t x = seed;
  for (std::size_t i = n; i > 1; --i) {
    x += 0x9E3779B97F4A7C15ull;  // splitmix64
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::swap(p[i - 1], p[z % i]);
  }
  return p;
}

/// One request of the closed loop, kept small: a run sends ~10^5.
struct Request {
  std::uint32_t cell = 0;
  std::uint16_t client = 0;
  bool ok = false;
  float start_s = 0.0f;  // from the start of the phase
  float latency_s = 0.0f;
};

struct PhaseLog {
  std::vector<Request> requests;
  std::vector<std::pair<std::uint32_t, SweepResult>> results;  // if kept
  std::vector<std::string> errors;  // one per failed request
};

/// One phase of the closed loop: each client thread sends the cells of its
/// order, one request at a time, until it has sent `limit` requests or
/// `deadline_s` (if positive) has passed. With `answers`, each response is
/// checked against the answer for its cell on arrival and then dropped;
/// without, it is kept in log->results. Returns the phase's wall time.
double servePhase(std::vector<std::unique_ptr<serve::ServeClient>>& clients,
                  const std::vector<JobSpec>& cells,
                  const std::vector<std::vector<std::size_t>>& orders,
                  std::size_t limit, double deadline_s,
                  const std::vector<SweepResult>* answers, PhaseLog* log) {
  std::mutex mu;
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      PhaseLog mine;
      for (std::size_t k = 0; k < limit; ++k) {
        if (deadline_s > 0 && secondsSince(t0) >= deadline_s) break;
        Request req;
        req.client = static_cast<std::uint16_t>(c);
        req.cell = static_cast<std::uint32_t>(orders[c][k % orders[c].size()]);
        const auto s = Clock::now();
        req.start_s = static_cast<float>(
            std::chrono::duration<double>(s - t0).count());
        std::string error;
        try {
          std::vector<SweepResult> r = clients[c]->run({cells[req.cell]});
          req.ok = r.size() == 1 && r[0].ok();
          if (!req.ok) {
            error = "outcome not ok";
          } else if (answers == nullptr) {
            mine.results.emplace_back(req.cell, std::move(r[0]));
          } else if (const SweepResult& a = (*answers)[req.cell];
                     !sameResult(r[0].result, r[0].stats, a.result, a.stats)) {
            req.ok = false;
            error = "differs from the cold-phase answer";
          }
        } catch (const std::exception& e) {
          error = e.what();
        }
        req.latency_s = static_cast<float>(secondsSince(s));
        if (!req.ok) {
          mine.errors.push_back(cells[req.cell].label + ": " + error);
        }
        mine.requests.push_back(req);
      }
      std::lock_guard<std::mutex> lock(mu);
      for (const Request& r : mine.requests) log->requests.push_back(r);
      for (auto& r : mine.results) log->results.push_back(std::move(r));
      for (auto& e : mine.errors) log->errors.push_back(std::move(e));
    });
  }
  for (std::thread& t : threads) t.join();
  return secondsSince(t0);
}

/// Traced build: one line per request, tagged with its phase and round.
void writeRequestSpans(std::FILE* f, const char* phase, std::size_t round,
                       const std::vector<Request>& requests,
                       const std::vector<JobSpec>& cells) {
  if (f == nullptr) return;
  for (const Request& r : requests) {
    std::fprintf(f, "%s\t%zu\t%u\t%.0f\t%.0f\t%d\t%s\n", phase, round,
                 static_cast<unsigned>(r.client), r.start_s * 1e9,
                 r.latency_s * 1e9, r.ok ? 1 : 0,
                 cells[r.cell].label.c_str());
  }
}

void runServe(const Args& args, Report* out) {
  namespace fs = std::filesystem;
  const std::vector<JobSpec> cells = serveCells(args.seed);

  // Set-up: a fresh scratch cache and journal, the daemon, and each
  // client's connection and handshake. Every run removes the directory
  // when it ends: deleting a previous run's cache took 0.2-6 ms, which
  // would otherwise land in the next launch's set-up time.
  const std::string dir = "serve";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir + "/cache");
  serve::DaemonOptions opts;
  opts.socket_path = dir + "/d.sock";
  opts.sweep.workers = kServeWorkers;
  opts.sweep.use_cache = true;
  opts.sweep.cache_dir = dir + "/cache";
  opts.sweep.faults = FaultPlan{};
  auto daemon = std::make_unique<serve::SweepDaemon>(opts);
  std::string error;
  if (!daemon->start(&error)) {
    std::fprintf(stderr, "hostbench: daemon failed to start: %s\n",
                 error.c_str());
    std::exit(1);
  }
  std::vector<std::unique_ptr<serve::ServeClient>> clients(kServeClients);
  const auto connect = [&] {
    for (auto& c : clients) {
      c.reset();
      c = std::make_unique<serve::ServeClient>(opts.socket_path);
    }
  };
  connect();
  if (args.setup_only) {
    printSetupSeconds();
    clients.clear();
    daemon.reset();
    fs::remove_all(dir, ec);
    return;
  }

  std::FILE* spans = nullptr;
  if (probeActive() && !args.spans.empty()) {
    spans = std::fopen((args.spans + ".requests").c_str(), "w");
    if (spans) {
      std::fprintf(spans, "phase\tround\tclient\tstart_ns\tdur_ns\tok\tlabel\n");
    }
  }
  const auto countFailures = [&](const PhaseLog& log) {
    out->attempted += log.requests.size();
    out->failed += log.errors.size();
    for (const std::string& e : log.errors) out->fail("request failed: " + e);
  };

  // Cold rounds: the cells in kServeRounds chunks of fresh fingerprints.
  // Every client sends every cell of the chunk once, in its own order, so
  // each fingerprint is executed once and the other requests for it attach
  // to the flight or hit the cache. Each request's answer must be the same.
  std::vector<SweepResult> answers(cells.size());
  std::vector<bool> answered(cells.size(), false);
  std::vector<double> cold_ms;
  double cold_total = 0.0;
  std::size_t cold_requests = 0;
  const std::size_t chunk = (cells.size() + kServeRounds - 1) / kServeRounds;
  for (std::size_t r = 0; r < kServeRounds; ++r) {
    const std::size_t begin = r * chunk;
    const std::size_t end = std::min(cells.size(), begin + chunk);
    std::vector<std::vector<std::size_t>> orders;
    for (unsigned c = 0; c < kServeClients; ++c) {
      std::vector<std::size_t> order;
      for (const std::size_t i :
           permutation(end - begin, args.seed * 7919 + c + 31 * r)) {
        order.push_back(begin + i);
      }
      orders.push_back(std::move(order));
    }
    if (r > 0) connect();
    PhaseLog cold;
    probeSetPhase(Phase::kMain);
    cold_total +=
        servePhase(clients, cells, orders, end - begin, 0.0, nullptr, &cold);
    probeSetPhase(Phase::kUntimed);
    countFailures(cold);
    cold_requests += cold.requests.size();
    for (const Request& q : cold.requests) cold_ms.push_back(1e3 * q.latency_s);
    for (auto& [cell, result] : cold.results) {
      if (!answered[cell]) {
        answers[cell] = std::move(result);
        answered[cell] = true;
      } else if (!sameResult(result.result, result.stats, answers[cell].result,
                             answers[cell].stats)) {
        out->fail(cells[cell].label + ": two different answers");
      }
    }
    writeRequestSpans(spans, "cold", r, cold.requests, cells);
  }
  const serve::ServeStats after_cold = daemon->stats();

  // Warm windows: every client cycles through all cells in its own order
  // until the window closes; every response must equal the cold answer.
  std::vector<std::vector<std::size_t>> orders;
  for (unsigned c = 0; c < kServeClients; ++c) {
    orders.push_back(permutation(cells.size(), args.seed * 7919 + c));
  }
  const double warm_seconds =
      std::max(args.seconds - cold_total, std::max(0.4 * args.seconds, 0.5));
  std::vector<double> warm_ms;
  warm_ms.reserve(1 << 18);  // fixed, so the harness's own peak RSS is too
  double warm_wall = 0.0;
  double warm_latency_ns = 0.0;
  for (std::size_t w = 0; w < kServeWindows; ++w) {
    connect();
    PhaseLog warm;
    probeSetPhase(Phase::kWarm);
    warm_wall += servePhase(clients, cells, orders, SIZE_MAX,
                            warm_seconds / kServeWindows, &answers, &warm);
    probeSetPhase(Phase::kUntimed);
    countFailures(warm);
    for (const Request& q : warm.requests) {
      warm_ms.push_back(1e3 * q.latency_s);
      warm_latency_ns += 1e9 * q.latency_s;
    }
    writeRequestSpans(spans, "warm", w, warm.requests, cells);
  }
  if (spans) std::fclose(spans);
  const double rss = peakRssMiB();
  const serve::ServeStats after_warm = daemon->stats();

  // Checks: one execution per fingerprint, and each answer equal to a local
  // executeJob (the re-execution is also the in-situ span-cost baseline).
  const std::uint64_t unique = cells.size();
  for (const serve::ServeStats* s : {&after_cold, &after_warm}) {
    if (s->executed + s->completed_remote != unique) {
      out->fail("executed + completed_remote = " +
                std::to_string(s->executed + s->completed_remote) + ", " +
                std::to_string(unique) + " unique fingerprints");
    }
  }
  Digest digest;
  double cycles = 0.0;
  double ops = 0.0;
  probeSetPhase(Phase::kCheck);
  const auto check_start = Clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!answered[i]) {
      out->fail(cells[i].label + ": never answered");
      continue;
    }
    const SweepResult& a = answers[i];
    StatsSnapshot stats;
    const RunResult local = executeJob(cells[i], &stats);
    if (!sameResult(local, stats, a.result, a.stats)) {
      out->fail(cells[i].label + ": served result differs from executeJob");
    }
    digest.add(cells[i].label, a.result, a.stats);
    cycles += static_cast<double>(a.result.cycles);
    ops += static_cast<double>(a.result.retired);
  }
  out->check_wall_s = secondsSince(check_start);
  probeSetPhase(Phase::kUntimed);
  out->digest = digest.h;
  out->unit_wall_s = cold_total;

  const double dedup =
      after_cold.jobs ? static_cast<double>(after_cold.attached) /
                            static_cast<double>(after_cold.jobs)
                      : 0.0;
  const double warm_rps = static_cast<double>(warm_ms.size()) / warm_wall;
  out->metric("sim_cycles_per_s", cycles / cold_total, "cycles/s");
  out->metric("uops_per_s", ops / cold_total, "uops/s");
  out->metric("jobs_per_s", warm_rps, "1/s");
  out->metric("job_p50_ms", quantile(warm_ms, 0.5), "ms");
  out->metric("peak_rss_mb", rss, "MiB");
  out->info.push_back({"serve_cold_rps",
                       static_cast<double>(cold_requests) / cold_total,
                       "req/s"});
  out->info.push_back({"serve_cold_p50_ms", quantile(cold_ms, 0.5), "ms"});
  out->info.push_back({"serve_warm_rps", warm_rps, "req/s"});
  out->info.push_back({"serve_warm_p50_ms", quantile(warm_ms, 0.5), "ms"});
  out->info.push_back({"serve_warm_p90_ms", quantile(warm_ms, 0.9), "ms"});
  out->info.push_back({"serve_dedup_ratio", dedup, "ratio"});
  out->info.push_back(
      {"serve_unique_cells", static_cast<double>(unique), "count"});
  out->info.push_back({"serve_warm_requests",
                       static_cast<double>(warm_ms.size()), "count"});

  // Stop the daemon before reading span totals: its threads write them.
  clients.clear();
  daemon.reset();
  fs::remove_all(dir, ec);
  if (probeActive()) {
    probeCalibrate(args.baseline_s, out->check_wall_s, Phase::kCheck, 1.0);
    probeBalance(Phase::kMain, Layer::kRun);
    addSimLayers(probeTotals(Phase::kMain), answers, out);
    addServeLayers(probeTotals(Phase::kMain), probeTotals(Phase::kWarm),
                   warm_latency_ns, dedup, out);
  }
}

// ---------------------------------------------------------------------------

void printJson(const Args& args, const Report& r) {
  const auto list = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
      s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}";
  };
  std::string errors = "[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::string e;
    for (const char ch : r.errors[i]) {
      if (ch == '"' || ch == '\\') e += '\\';
      e += (ch >= 0x20) ? ch : ' ';
    }
    errors += (i ? ", \"" : "\"") + e + "\"";
  }
  errors += "]";
  const SpanCost cost = probeSpanCost();
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"correct\": %s, "
      "\"errors\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"digest\": \"%016llx\", \"pinned_digest\": \"%016llx\", "
      "\"unit_wall_s\": %.17g, \"check_wall_s\": %.17g, "
      "\"span_cost_ns\": {\"untimed\": %.3f, \"timed\": %.3f, "
      "\"inside\": %.3f, \"slowdown\": %.3f, \"in_situ\": %s}, "
      "\"metrics\": %s, \"per_layer\": %s, \"info\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      probeActive() ? "true" : "false", r.correct ? "true" : "false",
      errors.c_str(), static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.digest),
      static_cast<unsigned long long>(pinnedDigest(args.workload, args.seed)),
      r.unit_wall_s, r.check_wall_s, cost.untimed_ns, cost.timed_ns,
      cost.inside_ns, cost.slowdown_ns, cost.in_situ ? "true" : "false",
      list(r.metrics).c_str(),
      list(r.per_layer).c_str(), list(r.info).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload ooo-full|inorder-full|sampled|serve"
               " --seed N (--seconds S [--spans FILE]"
               " [--baseline-s B] | --setup-only)\n");
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--spans") {
      args.spans = v;
    } else if (a == "--baseline-s") {
      args.baseline_s = std::atof(v);
    } else {
      return usage();
    }
  }
  pinToOneCpu();
  Report report;
  if (args.workload == "serve") {
    runServe(args, &report);
  } else if (!simCells(args.workload, args.seed).empty()) {
    runSim(args, &report);
  } else {
    return usage();
  }
  if (args.setup_only) return 0;
  const std::uint64_t pinned = pinnedDigest(args.workload, args.seed);
  if (pinned != 0 && report.digest != pinned) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest %016llx != pinned %016llx",
                  static_cast<unsigned long long>(report.digest),
                  static_cast<unsigned long long>(pinned));
    report.fail(buf);
  }
  if (probeActive() && !args.spans.empty()) probeWriteCellSpans(args.spans);
  for (const Metric& m : report.info) {
    std::printf("%-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printJson(args, report);
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::run(argc, argv); }
