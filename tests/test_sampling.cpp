// Sampled-simulation suite (`ctest -L sampling`, DESIGN §5i): spec parsing
// and validation, the seeded window phase, SampledCore's measurement
// hygiene (per-window accumulator reset, skip exclusion, drain closing an
// open window), degenerate-exactness (window >= interval is bit-identical
// to full fidelity), fingerprint separation (a sampled job can never alias
// a full-fidelity one in the cache or the serve dedup table), engine-level
// rewrite semantics, bit-determinism across worker counts and repeated
// runs, the accuracy bounds at small test parameters and at the stock
// ones, and the remote-worker round trip (a sampled spec executes sampled
// on a worker whose own sampling knobs are off — and a full spec executes
// full on a worker whose environment says to sample).
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/sampling/sampled_core.h"
#include "sim/sampling/sampling.h"
#include "sim/stats.h"
#include "sweep/fingerprint.h"
#include "sweep/job.h"
#include "sweep/sweep.h"

namespace bridge {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Spec parsing and validation.

TEST(SamplingSpecTest, ParsesOnOffAndKeyValueForms) {
  SamplingParams p;
  std::string error;

  ASSERT_TRUE(parseSamplingSpec("off", &p, &error)) << error;
  EXPECT_FALSE(p.enabled);
  ASSERT_TRUE(parseSamplingSpec("0", &p, &error)) << error;
  EXPECT_FALSE(p.enabled);

  ASSERT_TRUE(parseSamplingSpec("on", &p, &error)) << error;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, SamplingParams{}.interval_ops);

  ASSERT_TRUE(parseSamplingSpec("interval=1000,measure=100,warmup=10,seed=7",
                                &p, &error))
      << error;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, 1000u);
  EXPECT_EQ(p.measure_ops, 100u);
  EXPECT_EQ(p.warmup_ops, 10u);
  EXPECT_EQ(p.seed, 7u);

  // Keys are optional and unordered; unspecified ones keep defaults.
  ASSERT_TRUE(parseSamplingSpec("measure=500", &p, &error)) << error;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.measure_ops, 500u);
  EXPECT_EQ(p.interval_ops, SamplingParams{}.interval_ops);
}

TEST(SamplingSpecTest, RejectsUnknownKeysAndMalformedNumbers) {
  SamplingParams p;
  std::string error;
  EXPECT_FALSE(parseSamplingSpec("cadence=100", &p, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseSamplingSpec("interval=abc", &p, &error));
  EXPECT_FALSE(parseSamplingSpec("interval=", &p, &error));
  EXPECT_FALSE(parseSamplingSpec("", &p, &error));
}

TEST(SamplingSpecTest, SpecStringRoundTrips) {
  SamplingParams p;
  p.enabled = true;
  p.interval_ops = 12345;
  p.measure_ops = 678;
  p.warmup_ops = 90;
  p.seed = 4;
  SamplingParams back;
  ASSERT_TRUE(parseSamplingSpec(p.specString(), &back, nullptr));
  EXPECT_EQ(back, p);

  SamplingParams off;
  EXPECT_EQ(off.specString(), "off");
  ASSERT_TRUE(parseSamplingSpec(off.specString(), &back, nullptr));
  EXPECT_EQ(back, off);
}

TEST(SamplingSpecTest, ValidateCatchesNonsense) {
  SamplingParams p;
  p.enabled = true;
  p.interval_ops = 0;
  std::string why;
  EXPECT_FALSE(p.validate(&why));
  EXPECT_FALSE(why.empty());

  p = SamplingParams{};
  p.enabled = true;
  p.measure_ops = 0;
  EXPECT_FALSE(p.validate(nullptr));

  // Disabled params are always valid, whatever the numbers say.
  p.enabled = false;
  EXPECT_TRUE(p.validate(nullptr));
}

TEST(SamplingSpecTest, EnvKnobDegradesToFullFidelityOnTypos) {
  ::setenv("BRIDGE_SAMPLING", "interval=2000,measure=100", 1);
  SamplingParams p = SamplingParams::fromEnv();
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, 2000u);

  // A typo in the environment must never crash a sweep: warn + disable.
  ::setenv("BRIDGE_SAMPLING", "intervl=2000", 1);
  p = SamplingParams::fromEnv();
  EXPECT_FALSE(p.enabled);

  ::unsetenv("BRIDGE_SAMPLING");
  p = SamplingParams::fromEnv();
  EXPECT_FALSE(p.enabled);
}

TEST(SamplingSpecTest, WindowOffsetIsSeededAndDeterministic) {
  SamplingParams p;
  p.enabled = true;
  p.interval_ops = 10000;
  p.warmup_ops = 100;
  p.measure_ops = 400;
  const std::uint64_t slack = p.interval_ops - p.detailedOps();

  // Interval 0 measures first: the CPI estimate must exist before the
  // first extrapolation.
  EXPECT_EQ(samplingWindowOffset(p, 0), 0u);

  bool moved = false;
  for (std::uint64_t i = 1; i < 64; ++i) {
    const std::uint64_t off = samplingWindowOffset(p, i);
    EXPECT_LE(off, slack);
    EXPECT_EQ(off, samplingWindowOffset(p, i));  // deterministic
    if (off != 0) moved = true;
  }
  // The phase actually varies (a constant offset would alias with any
  // periodic program structure).
  EXPECT_TRUE(moved);

  SamplingParams other = p;
  other.seed = p.seed + 1;
  bool differs = false;
  for (std::uint64_t i = 1; i < 64 && !differs; ++i) {
    differs = samplingWindowOffset(p, i) != samplingWindowOffset(other, i);
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// SampledCore unit tests against a deterministic fake inner core.

/// Fixed cost-per-op core: consume() charges `cost` cycles, warmOp()
/// charges nothing. Makes every extrapolation arithmetically checkable.
class FakeCore final : public CoreModel {
 public:
  explicit FakeCore(Cycle cost) : cost_(cost) {}

  void consume(const MicroOp&) override {
    now_ += cost_;
    ++retired_;
    ++detailed_ops;
  }
  void warmOp(const MicroOp&) override { ++warmed_ops; }
  Cycle now() const override { return now_; }
  Cycle frontier() const override { return now_; }
  Cycle drain() override { return now_; }
  void skipTo(Cycle c) override {
    if (c > now_) now_ = c;
  }
  std::uint64_t retired() const override { return retired_; }

  std::uint64_t detailed_ops = 0;
  std::uint64_t warmed_ops = 0;

 private:
  Cycle cost_;
  Cycle now_ = 0;
  std::uint64_t retired_ = 0;
};

SamplingParams smallParams() {
  SamplingParams p;
  p.enabled = true;
  p.interval_ops = 100;
  p.warmup_ops = 10;
  p.measure_ops = 20;
  p.seed = 3;
  return p;
}

MicroOp aluOp() {
  MicroOp op;
  op.cls = OpClass::kIntAlu;
  op.pc = 0x1000;
  return op;
}

TEST(SampledCoreTest, WindowAccumulatorsResetAtEveryIntervalBoundary) {
  // The satellite regression: a measurement accumulator that survives the
  // interval boundary folds the previous window's cycles into the next
  // one, so window k would report ~k times the true cycle count and every
  // extrapolation after it would be skewed. With a constant-cost inner
  // core every window must report exactly measure_ops ops and
  // measure_ops * cost cycles, from the first interval to the last.
  constexpr Cycle kCost = 3;
  const SamplingParams p = smallParams();
  StatRegistry stats;
  SampledCore core(std::make_unique<FakeCore>(kCost), p, &stats, "core0");

  constexpr std::uint64_t kIntervals = 25;
  for (std::uint64_t i = 0; i < kIntervals * p.interval_ops; ++i) {
    core.consume(aluOp());
  }

  ASSERT_EQ(core.measurements().size(), kIntervals);
  for (const SampledCore::Measurement& m : core.measurements()) {
    SCOPED_TRACE("interval " + std::to_string(m.interval));
    EXPECT_EQ(m.ops, p.measure_ops);
    EXPECT_EQ(m.cycles, p.measure_ops * kCost);
    EXPECT_LE(m.window_offset, p.interval_ops - p.detailedOps());
  }
  EXPECT_EQ(core.measurements()[0].window_offset, 0u);
  EXPECT_DOUBLE_EQ(core.estimatedCpi(), static_cast<double>(kCost));

  // The sampling counters agree with the measurement log.
  EXPECT_EQ(stats.counterValue("core0.sampling.intervals"), kIntervals);
  EXPECT_EQ(stats.counterValue("core0.sampling.measured_ops"),
            kIntervals * p.measure_ops);
  EXPECT_EQ(stats.counterValue("core0.sampling.measured_cycles"),
            kIntervals * p.measure_ops * kCost);
}

TEST(SampledCoreTest, ExtrapolatesFastForwardAtMeasuredCpi) {
  constexpr Cycle kCost = 2;
  const SamplingParams p = smallParams();
  StatRegistry stats;
  SampledCore core(std::make_unique<FakeCore>(kCost), p, &stats, "core0");
  FakeCore& inner = static_cast<FakeCore&>(core.inner());

  constexpr std::uint64_t kOps = 40 * 100;  // 40 intervals
  for (std::uint64_t i = 0; i < kOps; ++i) core.consume(aluOp());
  core.drain();

  // Every op retires exactly once, split across the two streams.
  EXPECT_EQ(core.retired(), kOps);
  EXPECT_EQ(inner.detailed_ops + inner.warmed_ops, kOps);
  EXPECT_EQ(inner.detailed_ops,
            stats.counterValue("core0.sampling.intervals") * p.detailedOps());

  // Constant CPI: the extrapolated clock lands within one interval's worth
  // of rounding of the exact clock (the final partial fast-forward segment
  // flushes on drain, so there is no systematic bias).
  const double exact = static_cast<double>(kOps) * kCost;
  const double got = static_cast<double>(core.now());
  EXPECT_NEAR(got, exact, static_cast<double>(p.interval_ops));
  EXPECT_GT(stats.counterValue("core0.sampling.skipped_cycles"), 0u);
}

TEST(SampledCoreTest, SkipToInsideMeasureWindowIsNotDoubleBilled) {
  // An MPI wait resuming the rank mid-window jumps the clock; those cycles
  // are charged directly and must not inflate the window's CPI (which
  // would re-bill them on every fast-forwarded segment).
  constexpr Cycle kCost = 1;
  const SamplingParams p = smallParams();
  StatRegistry stats;
  SampledCore core(std::make_unique<FakeCore>(kCost), p, &stats, "core0");

  // Interval 0 window is at offset 0: warmup ops 0..9, measured 10..29.
  for (int i = 0; i < 15; ++i) core.consume(aluOp());
  core.skipTo(core.now() + 500);  // the wait
  for (int i = 15; i < 30; ++i) core.consume(aluOp());

  ASSERT_EQ(core.measurements().size(), 1u);
  EXPECT_EQ(core.measurements()[0].ops, p.measure_ops);
  EXPECT_EQ(core.measurements()[0].cycles, p.measure_ops * kCost);
  EXPECT_DOUBLE_EQ(core.estimatedCpi(), 1.0);
}

TEST(SampledCoreTest, DrainClosesAnOpenWindowBeforeDraining) {
  constexpr Cycle kCost = 1;
  const SamplingParams p = smallParams();
  StatRegistry stats;
  SampledCore core(std::make_unique<FakeCore>(kCost), p, &stats, "core0");

  // Stop mid-window: 10 warmup + 5 measured ops, then end of trace.
  for (int i = 0; i < 15; ++i) core.consume(aluOp());
  core.drain();

  ASSERT_EQ(core.measurements().size(), 1u);
  EXPECT_EQ(core.measurements()[0].ops, 5u);
  EXPECT_EQ(core.measurements()[0].cycles, 5u);
}

TEST(SampledCoreTest, DegenerateWindowIsAPurePassthrough) {
  SamplingParams p;
  p.enabled = true;
  p.interval_ops = 100;
  p.warmup_ops = 50;
  p.measure_ops = 100;  // detailedOps() = 150 >= interval_ops
  ASSERT_TRUE(p.exact());

  StatRegistry stats;
  SampledCore core(std::make_unique<FakeCore>(2), p, &stats, "core0");
  FakeCore& inner = static_cast<FakeCore&>(core.inner());

  for (int i = 0; i < 1000; ++i) core.consume(aluOp());
  EXPECT_EQ(core.now(), 2000u);
  EXPECT_EQ(core.retired(), 1000u);
  EXPECT_EQ(inner.warmed_ops, 0u);
  EXPECT_TRUE(core.measurements().empty());
  EXPECT_EQ(stats.counterValue("core0.sampling.ff_ops"), 0u);
}

// ---------------------------------------------------------------------------
// Fingerprints, engine rewrite, cache separation.

SamplingParams sweepParams() {
  // Small enough to genuinely sample the reduced-scale test workloads
  // (which retire hundreds of thousands of ops, not billions).
  SamplingParams p;
  p.enabled = true;
  p.interval_ops = 5000;
  p.warmup_ops = 200;
  p.measure_ops = 1000;
  p.seed = 1;
  return p;
}

TEST(SamplingFingerprintTest, SampledAndFullSpecsNeverShareAFingerprint) {
  const JobSpec full = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  JobSpec sampled = full;
  applySamplingOverrides(&sampled.overrides, sweepParams());

  EXPECT_FALSE(hasSamplingOverrides(full.overrides));
  EXPECT_TRUE(hasSamplingOverrides(sampled.overrides));
  EXPECT_NE(jobFingerprint(full), jobFingerprint(sampled));

  // Different sampling parameters are different cache entries too.
  JobSpec other = full;
  SamplingParams q = sweepParams();
  q.seed = 2;
  applySamplingOverrides(&other.overrides, q);
  EXPECT_NE(jobFingerprint(sampled), jobFingerprint(other));
}

TEST(SamplingFingerprintTest, FullFidelityFingerprintsAreLegacyIdentical) {
  // Sampling is folded into describeSocConfig() only when enabled, so a
  // full-fidelity config's canonical description — and with it every
  // existing cache entry and golden snapshot — is byte-identical to
  // pre-sampling builds.
  const JobSpec full = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  const std::string desc = describeSocConfig(resolveSocConfig(full));
  EXPECT_EQ(desc.find("sampling"), std::string::npos);
}

TEST(SamplingEngineTest, EffectiveSpecRewritesOnceAndRespectsPinnedSpecs) {
  SweepOptions options;
  options.use_cache = false;
  options.sampling = sweepParams();
  SweepEngine engine(options);

  const JobSpec base = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  const JobSpec rewritten = engine.effectiveSpec(base);
  EXPECT_TRUE(hasSamplingOverrides(rewritten.overrides));
  EXPECT_NE(jobFingerprint(base), jobFingerprint(rewritten));

  // A spec that already pins its fidelity passes through untouched — the
  // engine must not stack its own knobs on top.
  JobSpec pinned = base;
  SamplingParams mine = sweepParams();
  mine.interval_ops = 7777;
  applySamplingOverrides(&pinned.overrides, mine);
  const JobSpec kept = engine.effectiveSpec(pinned);
  EXPECT_EQ(jobFingerprint(kept), jobFingerprint(pinned));

  // A disabled engine is the identity.
  SweepOptions off;
  off.use_cache = false;
  EXPECT_EQ(jobFingerprint(SweepEngine(off).effectiveSpec(base)),
            jobFingerprint(base));
}

TEST(SamplingEngineTest, SampledResultsNeverAliasFullOnesInTheCache) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("bridge-sampling-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const JobSpec job = microbenchJob(PlatformId::kRocket1, "MM", 0.25);

  SweepOptions sampled_opts;
  sampled_opts.cache_dir = dir.string();
  sampled_opts.sampling = sweepParams();
  const SweepResult sampled = SweepEngine(sampled_opts).runOne(job);
  ASSERT_TRUE(sampled.ok());
  EXPECT_FALSE(sampled.from_cache);

  // Same base spec at full fidelity, same cache directory: a fresh
  // execution, never the sampled entry.
  SweepOptions full_opts;
  full_opts.cache_dir = dir.string();
  const SweepResult full = SweepEngine(full_opts).runOne(job);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.from_cache);
  EXPECT_NE(full.fingerprint, sampled.fingerprint);

  // Each mode hits its own entry on re-run.
  EXPECT_TRUE(SweepEngine(sampled_opts).runOne(job).from_cache);
  EXPECT_TRUE(SweepEngine(full_opts).runOne(job).from_cache);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Determinism and accuracy.

std::vector<JobSpec> samplingGrid() {
  std::vector<JobSpec> jobs;
  for (const char* kernel : {"MM", "STL2", "ED1", "MIM"}) {
    jobs.push_back(microbenchJob(PlatformId::kRocket1, kernel, 0.25));
  }
  jobs.push_back(npbJob(PlatformId::kBananaPiSim, NpbBenchmark::kCG,
                        /*ranks=*/2, /*scale=*/0.1));
  jobs.push_back(npbJob(PlatformId::kMilkVSim, NpbBenchmark::kEP,
                        /*ranks=*/2, /*scale=*/0.1));
  return jobs;
}

TEST(SamplingDeterminismTest, WorkerCountCannotMoveASampledCycle) {
  const std::vector<JobSpec> jobs = samplingGrid();

  SweepOptions serial;
  serial.workers = 1;
  serial.use_cache = false;
  serial.sampling = sweepParams();
  SweepOptions parallel = serial;
  parallel.workers = 8;

  const auto a = SweepEngine(serial).run(jobs);
  const auto b = SweepEngine(parallel).run(jobs);
  const auto c = SweepEngine(parallel).run(jobs);  // repeated run

  ASSERT_EQ(a.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    EXPECT_TRUE(a[i].ok());
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
    EXPECT_EQ(a[i].result.cycles, b[i].result.cycles);
    EXPECT_EQ(a[i].result.retired, b[i].result.retired);
    EXPECT_EQ(a[i].result.seconds, b[i].result.seconds);
    EXPECT_EQ(a[i].result.ipc, b[i].result.ipc);
    EXPECT_EQ(a[i].stats, b[i].stats);
    EXPECT_EQ(b[i].result.cycles, c[i].result.cycles);
    EXPECT_EQ(b[i].stats, c[i].stats);
  }
}

TEST(SamplingDeterminismTest, DegenerateParamsReduceToExactFullSimulation) {
  // detailedOps() >= interval_ops: every op runs detailed, so the sampled
  // run is cycle-for-cycle the full run — only the fingerprint moves.
  SamplingParams degenerate;
  degenerate.enabled = true;
  degenerate.interval_ops = 1000;
  degenerate.warmup_ops = 200;
  degenerate.measure_ops = 900;
  ASSERT_TRUE(degenerate.exact());

  SweepOptions full_opts;
  full_opts.use_cache = false;
  SweepOptions exact_opts;
  exact_opts.use_cache = false;
  exact_opts.sampling = degenerate;

  const std::vector<JobSpec> jobs = samplingGrid();
  const auto full = SweepEngine(full_opts).run(jobs);
  const auto exact = SweepEngine(exact_opts).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    EXPECT_TRUE(exact[i].ok());
    EXPECT_NE(exact[i].fingerprint, full[i].fingerprint);
    EXPECT_EQ(exact[i].result.cycles, full[i].result.cycles);
    EXPECT_EQ(exact[i].result.retired, full[i].result.retired);
    EXPECT_EQ(exact[i].result.seconds, full[i].result.seconds);
    EXPECT_EQ(exact[i].result.ipc, full[i].result.ipc);
  }
}

double relativeError(Cycle sampled, Cycle full) {
  return std::abs(static_cast<double>(sampled) - static_cast<double>(full)) /
         static_cast<double>(full);
}

TEST(SamplingAccuracyTest, MicrobenchProbeErrorStaysWithinFivePercent) {
  SweepOptions full_opts;
  full_opts.use_cache = false;
  SweepOptions sampled_opts;
  sampled_opts.use_cache = false;
  sampled_opts.sampling = sweepParams();

  for (const char* kernel : {"MM", "STL2", "ED1", "MIM"}) {
    SCOPED_TRACE(kernel);
    const JobSpec job = microbenchJob(PlatformId::kRocket1, kernel, 0.25);
    const SweepResult full = SweepEngine(full_opts).runOne(job);
    const SweepResult sampled = SweepEngine(sampled_opts).runOne(job);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(sampled.ok());
    EXPECT_EQ(sampled.result.retired, full.result.retired);
    EXPECT_LE(relativeError(sampled.result.cycles, full.result.cycles), 0.05)
        << "sampled=" << sampled.result.cycles
        << " full=" << full.result.cycles;
  }
}

TEST(SamplingAccuracyTest, NpbErrorStaysWithinEightPercent) {
  SweepOptions full_opts;
  full_opts.use_cache = false;
  SweepOptions sampled_opts;
  sampled_opts.use_cache = false;
  sampled_opts.sampling = sweepParams();

  const std::vector<JobSpec> jobs = {
      npbJob(PlatformId::kBananaPiSim, NpbBenchmark::kCG, /*ranks=*/2,
             /*scale=*/0.1),
      npbJob(PlatformId::kBananaPiSim, NpbBenchmark::kMG, /*ranks=*/2,
             /*scale=*/0.1),
      npbJob(PlatformId::kMilkVSim, NpbBenchmark::kEP, /*ranks=*/2,
             /*scale=*/0.1),
  };
  const auto full = SweepEngine(full_opts).run(jobs);
  const auto sampled = SweepEngine(sampled_opts).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    ASSERT_TRUE(full[i].ok());
    ASSERT_TRUE(sampled[i].ok());
    EXPECT_LE(
        relativeError(sampled[i].result.cycles, full[i].result.cycles), 0.08)
        << "sampled=" << sampled[i].result.cycles
        << " full=" << full[i].result.cycles;
  }
}

TEST(SamplingAccuracyTest, StockParamsStayWithinClassBounds) {
  // The gate on the stock SamplingParams: 13 cells at scale 0.5 and the
  // default seed, each run at full fidelity and sampled, with a relative
  // cycle-error bound per class (MicroBench 5%, NPB and LAMMPS 8%).
  struct Cell {
    JobSpec job;
    double bound;
  };
  std::vector<Cell> cells;
  for (const char* kernel : {"MM", "STL2", "ED1", "MIM", "DP1d", "ML2"}) {
    cells.push_back({microbenchJob(PlatformId::kRocket1, kernel, 0.5), 0.05});
  }
  for (const NpbBenchmark bench : {NpbBenchmark::kCG, NpbBenchmark::kMG}) {
    cells.push_back(
        {npbJob(PlatformId::kBananaPiSim, bench, /*ranks=*/2, 0.5), 0.08});
  }
  for (const NpbBenchmark bench : {NpbBenchmark::kCG, NpbBenchmark::kMG,
                                   NpbBenchmark::kEP, NpbBenchmark::kIS}) {
    cells.push_back(
        {npbJob(PlatformId::kMilkVSim, bench, /*ranks=*/2, 0.5), 0.08});
  }
  LammpsConfig lj;
  lj.scale = 0.5;
  cells.push_back({lammpsJob(PlatformId::kBananaPiSim,
                             LammpsBenchmark::kLennardJones, /*ranks=*/2, lj),
                   0.08});

  std::vector<JobSpec> jobs;
  for (const Cell& cell : cells) jobs.push_back(cell.job);
  SweepOptions full_opts;
  full_opts.use_cache = false;
  SweepOptions sampled_opts = full_opts;
  sampled_opts.sampling.enabled = true;
  const auto full = SweepEngine(full_opts).run(jobs);
  const auto sampled = SweepEngine(sampled_opts).run(jobs);
  ASSERT_EQ(full.size(), cells.size());
  ASSERT_EQ(sampled.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    ASSERT_TRUE(full[i].ok());
    ASSERT_TRUE(sampled[i].ok());
    EXPECT_EQ(sampled[i].result.retired, full[i].result.retired);
    EXPECT_LE(
        relativeError(sampled[i].result.cycles, full[i].result.cycles),
        cells[i].bound)
        << "sampled=" << sampled[i].result.cycles
        << " full=" << full[i].result.cycles;
  }
}

// ---------------------------------------------------------------------------
// Serve / elastic round trip.

/// Scratch tree + worker process helpers, same conventions as the serve
/// and elastic suites.
class SamplingServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("bridge-sampling-") + info->name() + "-" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string socketPath() const { return (dir_ / "d.sock").string(); }
  std::string cachePath() const { return (dir_ / "cache").string(); }

  serve::DaemonOptions daemonOptions() const {
    serve::DaemonOptions options;
    options.socket_path = socketPath();
    options.sweep.workers = 2;
    options.sweep.cache_dir = cachePath();
    return options;
  }

  /// Spawn a real sweep_worker attached to `socket` (argv assembled before
  /// fork(): the gtest process is multi-threaded, so the child only makes
  /// async-signal-safe calls).
  static pid_t spawnWorker(const std::string& socket) {
    static std::vector<std::string> args;  // outlives the fork window
    args = {BRIDGE_SWEEP_WORKER_BIN, "--connect", socket, "--jobs", "2"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  static void reapWorker(pid_t pid) {
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }

  static bool eventually(const std::function<bool()>& cond) {
    for (int spins = 0; spins < 5000; ++spins) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cond();
  }

  fs::path dir_;
};

TEST_F(SamplingServeTest, SampledJobRoundTripsBitIdenticallyViaRemoteWorker) {
  // The fidelity rides in the spec's `sampling.*` overrides, so a daemon
  // and worker with their own sampling knobs off must execute it sampled —
  // and return exactly what a local sampled run computes.
  JobSpec sampled_spec = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  applySamplingOverrides(&sampled_spec.overrides, sweepParams());
  const JobSpec full_spec = microbenchJob(PlatformId::kRocket1, "MM", 0.25);

  SweepOptions local;
  local.use_cache = false;
  const SweepResult local_sampled = SweepEngine(local).runOne(sampled_spec);
  const SweepResult local_full = SweepEngine(local).runOne(full_spec);
  ASSERT_TRUE(local_sampled.ok());
  ASSERT_TRUE(local_full.ok());
  ASSERT_NE(local_sampled.fingerprint, local_full.fingerprint);

  serve::SweepDaemon daemon(daemonOptions());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Hardening: the worker's environment says to sample everything. The
  // worker must ignore it — fidelity comes only from each job's spec.
  ::setenv("BRIDGE_SAMPLING", "interval=500,measure=50,warmup=10", 1);
  const pid_t worker = spawnWorker(daemon.socketPath());
  ::unsetenv("BRIDGE_SAMPLING");
  ASSERT_GT(worker, 0);
  ASSERT_TRUE(eventually([&] { return daemon.stats().workers == 1; }))
      << "worker never registered";

  serve::ServeClient client(daemon.socketPath());
  const std::vector<SweepResult> remote =
      client.run({sampled_spec, full_spec});
  ASSERT_EQ(remote.size(), 2u);

  // Both executed remotely (one worker attached: nothing runs locally),
  // under distinct fingerprints — the sampled job never dedups against,
  // or serves from, the full-fidelity one.
  const serve::ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed_remote, 2u);
  EXPECT_EQ(stats.attached, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);

  EXPECT_EQ(remote[0].fingerprint, local_sampled.fingerprint);
  EXPECT_EQ(remote[0].result.cycles, local_sampled.result.cycles);
  EXPECT_EQ(remote[0].result.retired, local_sampled.result.retired);
  EXPECT_EQ(remote[0].result.seconds, local_sampled.result.seconds);
  EXPECT_EQ(remote[0].result.ipc, local_sampled.result.ipc);
  EXPECT_EQ(remote[0].stats, local_sampled.stats);

  EXPECT_EQ(remote[1].fingerprint, local_full.fingerprint);
  EXPECT_EQ(remote[1].result.cycles, local_full.result.cycles);
  EXPECT_EQ(remote[1].result.seconds, local_full.result.seconds);
  EXPECT_EQ(remote[1].stats, local_full.stats);

  daemon.requestStop();
  reapWorker(worker);
  daemon.join();
}

}  // namespace
}  // namespace bridge
