// Hardware-variability suite (`ctest -L hwvar`, DESIGN §5j): spec parsing
// and validation, the pure-hash DVFS/preemption decision functions,
// HwVarCore's interval arithmetic against a deterministic fake inner core
// (stretch, ticks, preemption, the thermal latch, external-skip hygiene),
// fingerprint separation (a variability run can never alias the
// deterministic machine in the cache or the serve dedup table),
// engine-level rewrite semantics, bit-determinism across worker counts and
// reruns, the variability-study spread harness, the distribution-matching
// objective, and the remote-worker round trip (a pinned hwvar spec
// executes identically on a worker whose own environment says otherwise).
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "harness/variability.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/hwvar/hwvar.h"
#include "sim/hwvar/hwvar_core.h"
#include "sim/stats.h"
#include "sweep/fingerprint.h"
#include "sweep/job.h"
#include "sweep/sweep.h"
#include "tune/dist_objective.h"
#include "tune/tuner.h"

namespace bridge {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Spec parsing and validation.

TEST(HwVarSpecTest, ParsesOnOffAndKeyValueForms) {
  HwVarParams p;
  std::string error;

  ASSERT_TRUE(parseHwVarSpec("off", &p, &error)) << error;
  EXPECT_FALSE(p.enabled);
  ASSERT_TRUE(parseHwVarSpec("0", &p, &error)) << error;
  EXPECT_FALSE(p.enabled);

  ASSERT_TRUE(parseHwVarSpec("on", &p, &error)) << error;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, HwVarParams{}.interval_ops);

  ASSERT_TRUE(parseHwVarSpec(
                  "interval=2000,seed=9,placement=3,levels=6,minfreq=55,"
                  "shift=250,dvfslat=500,heat=400,cool=350,threshold=9000,"
                  "tick=1000,tickcycles=90,preempt=40,preemptcycles=7000",
                  &p, &error))
      << error;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, 2000u);
  EXPECT_EQ(p.seed, 9u);
  EXPECT_EQ(p.placement, 3u);
  EXPECT_EQ(p.levels, 6u);
  EXPECT_EQ(p.min_freq_pct, 55u);
  EXPECT_EQ(p.dvfs_shift_pm, 250u);
  EXPECT_EQ(p.dvfs_latency_cycles, 500u);
  EXPECT_EQ(p.therm_heat_pm, 400u);
  EXPECT_EQ(p.therm_cool_pm, 350u);
  EXPECT_EQ(p.therm_threshold, 9000u);
  EXPECT_EQ(p.tick_ops, 1000u);
  EXPECT_EQ(p.tick_cycles, 90u);
  EXPECT_EQ(p.preempt_pm, 40u);
  EXPECT_EQ(p.preempt_cycles, 7000u);

  // Keys are optional and unordered; unspecified ones keep defaults.
  ASSERT_TRUE(parseHwVarSpec("threshold=0,interval=500", &p, &error)) << error;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, 500u);
  EXPECT_EQ(p.therm_threshold, 0u);
  EXPECT_EQ(p.levels, HwVarParams{}.levels);
}

TEST(HwVarSpecTest, RejectsUnknownKeysAndMalformedValues) {
  HwVarParams p;
  std::string error;
  EXPECT_FALSE(parseHwVarSpec("governor=ondemand", &p, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseHwVarSpec("interval=abc", &p, &error));
  EXPECT_FALSE(parseHwVarSpec("interval=", &p, &error));
  EXPECT_FALSE(parseHwVarSpec("interval", &p, &error));
  EXPECT_FALSE(parseHwVarSpec("", &p, &error));
  // A parseable spec that fails validation is a parse error too.
  EXPECT_FALSE(parseHwVarSpec("minfreq=0", &p, &error));
  EXPECT_FALSE(parseHwVarSpec("shift=1001", &p, &error));
}

TEST(HwVarSpecTest, SpecStringRoundTrips) {
  HwVarParams p;
  p.enabled = true;
  p.seed = 11;
  p.interval_ops = 4321;
  p.placement = 2;
  p.levels = 5;
  p.min_freq_pct = 45;
  p.dvfs_shift_pm = 333;
  p.therm_threshold = 777;
  p.tick_ops = 0;
  p.preempt_pm = 999;
  HwVarParams back;
  ASSERT_TRUE(parseHwVarSpec(p.specString(), &back, nullptr));
  EXPECT_EQ(back, p);

  HwVarParams off;
  EXPECT_EQ(off.specString(), "off");
  ASSERT_TRUE(parseHwVarSpec(off.specString(), &back, nullptr));
  EXPECT_EQ(back, off);
}

TEST(HwVarSpecTest, FullU64SeedsRoundTrip) {
  // About half of all replica seeds have 19 or 20 digits; --hwvar must
  // re-run each of them, and nothing past 2^64 - 1 may wrap around.
  for (std::uint64_t r = 0; r < 16; ++r) {
    HwVarParams p;
    p.enabled = true;
    p.seed = hwvarReplicaSeed(1, r);
    HwVarParams back;
    std::string error;
    ASSERT_TRUE(parseHwVarSpec(p.specString(), &back, &error))
        << "replica " << r << ": " << error;
    EXPECT_EQ(back, p) << "replica " << r;
  }
  HwVarParams p;
  ASSERT_TRUE(parseHwVarSpec("seed=18446744073709551615", &p, nullptr));
  EXPECT_EQ(p.seed, ~std::uint64_t{0});
  EXPECT_FALSE(parseHwVarSpec("seed=18446744073709551616", &p, nullptr));
  EXPECT_FALSE(parseHwVarSpec("seed=+5", &p, nullptr));
  EXPECT_FALSE(parseHwVarSpec("seed=-1", &p, nullptr));
}

TEST(HwVarSpecTest, ValidateCatchesNonsense) {
  HwVarParams p;
  p.enabled = true;
  p.interval_ops = 0;
  std::string why;
  EXPECT_FALSE(p.validate(&why));
  EXPECT_FALSE(why.empty());

  p = HwVarParams{};
  p.enabled = true;
  p.levels = 0;
  EXPECT_FALSE(p.validate(nullptr));

  p = HwVarParams{};
  p.enabled = true;
  p.min_freq_pct = 101;
  EXPECT_FALSE(p.validate(nullptr));

  p = HwVarParams{};
  p.enabled = true;
  p.preempt_pm = 2000;
  EXPECT_FALSE(p.validate(nullptr));

  // Disabled params are always valid, whatever the numbers say.
  p.enabled = false;
  EXPECT_TRUE(p.validate(nullptr));
}

TEST(HwVarSpecTest, EnvKnobDegradesToDeterministicOnTypos) {
  ::setenv("BRIDGE_HWVAR", "interval=2000,preempt=50", 1);
  HwVarParams p = HwVarParams::fromEnv();
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.interval_ops, 2000u);
  EXPECT_EQ(p.preempt_pm, 50u);

  // A typo in the environment must never crash a sweep: warn + disable.
  ::setenv("BRIDGE_HWVAR", "intervl=2000", 1);
  p = HwVarParams::fromEnv();
  EXPECT_FALSE(p.enabled);

  ::unsetenv("BRIDGE_HWVAR");
  p = HwVarParams::fromEnv();
  EXPECT_FALSE(p.enabled);
}

// ---------------------------------------------------------------------------
// Pure-hash decision functions.

TEST(HwVarHashTest, RollsAreDeterministicAndStreamSeparated) {
  HwVarParams p;
  p.seed = 42;
  for (std::uint64_t core = 0; core < 3; ++core) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      const std::uint64_t r = hwvarRoll(p, HwVarStream::kDvfsShift, core, i);
      EXPECT_EQ(r, hwvarRoll(p, HwVarStream::kDvfsShift, core, i));
      // Streams, cores, and seeds each decorrelate the draw.
      EXPECT_NE(r, hwvarRoll(p, HwVarStream::kPreempt, core, i));
      EXPECT_NE(r, hwvarRoll(p, HwVarStream::kDvfsShift, core + 7, i));
      HwVarParams q = p;
      q.seed = 43;
      EXPECT_NE(r, hwvarRoll(q, HwVarStream::kDvfsShift, core, i));
    }
  }
}

TEST(HwVarHashTest, DvfsStepMatchesTheFold) {
  // The incremental step HwVarCore tracks must agree with the O(n) pure
  // fold at every interval — that equivalence is what makes the DVFS
  // trajectory a function of the spec alone.
  HwVarParams p;
  p.enabled = true;
  p.seed = 3;
  p.levels = 4;
  p.dvfs_shift_pm = 350;
  const std::uint64_t core = 5;
  unsigned state = 0;
  unsigned seen_states = 1;  // interval 0 pins nominal
  for (std::uint64_t i = 1; i <= 64; ++i) {
    state = hwvarDvfsStep(p, core, i, state);
    EXPECT_LT(state, p.levels);
    EXPECT_EQ(state, hwvarDvfsState(p, core, i));
    if (state != 0) ++seen_states;
  }
  // With shift=350pm over 64 intervals the governor actually wanders.
  EXPECT_GT(seen_states, 1u);

  // Interval 0 is always nominal, and a single-level governor never moves.
  EXPECT_EQ(hwvarDvfsStep(p, core, 0, 3), 0u);
  HwVarParams flat = p;
  flat.levels = 1;
  for (std::uint64_t i = 0; i <= 16; ++i) {
    EXPECT_EQ(hwvarDvfsState(flat, core, i), 0u);
  }
}

TEST(HwVarHashTest, FreqPctInterpolatesLinearly) {
  HwVarParams p;
  p.levels = 4;
  p.min_freq_pct = 70;
  EXPECT_EQ(hwvarFreqPct(p, 0), 100u);
  EXPECT_EQ(hwvarFreqPct(p, 1), 90u);
  EXPECT_EQ(hwvarFreqPct(p, 2), 80u);
  EXPECT_EQ(hwvarFreqPct(p, 3), 70u);

  p.levels = 2;
  p.min_freq_pct = 55;
  EXPECT_EQ(hwvarFreqPct(p, 0), 100u);
  EXPECT_EQ(hwvarFreqPct(p, 1), 55u);

  p.levels = 1;
  EXPECT_EQ(hwvarFreqPct(p, 0), 100u);
}

TEST(HwVarHashTest, PreemptionRateTracksThePerMilleKnob) {
  HwVarParams p;
  p.seed = 9;
  p.preempt_pm = 100;
  std::uint64_t hits = 0;
  constexpr std::uint64_t kIntervals = 10000;
  for (std::uint64_t i = 0; i < kIntervals; ++i) {
    if (hwvarPreempts(p, 0, i)) ++hits;
  }
  // ~10% of boundaries; wide deterministic band.
  EXPECT_GT(hits, kIntervals / 20);
  EXPECT_LT(hits, kIntervals / 5);

  p.preempt_pm = 0;
  EXPECT_FALSE(hwvarPreempts(p, 0, 1));
  p.preempt_pm = 100;
  p.preempt_cycles = 0;  // a zero-cost slice never fires either
  EXPECT_EQ(hwvarPreempts(p, 0, 1), false);
}

TEST(HwVarHashTest, ReplicaSeedsAreAPureWellSeparatedExpansion) {
  const std::uint64_t base = 17;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t r = 0; r < 32; ++r) {
    const std::uint64_t s = hwvarReplicaSeed(base, r);
    EXPECT_EQ(s, hwvarReplicaSeed(base, r));  // pure
    for (const std::uint64_t prev : seeds) EXPECT_NE(s, prev);
    seeds.push_back(s);
  }
  EXPECT_NE(hwvarReplicaSeed(base, 1), hwvarReplicaSeed(base + 1, 1));
}

TEST(HwVarHashTest, PlacementOffsetsThePhysicalCore) {
  HwVarParams p;
  EXPECT_EQ(hwvarPhysicalCore(p, 0), 0u);
  EXPECT_EQ(hwvarPhysicalCore(p, 3), 3u);
  p.placement = 10;
  EXPECT_EQ(hwvarPhysicalCore(p, 0), 10u);
  EXPECT_EQ(hwvarPhysicalCore(p, 3), 13u);
}

// ---------------------------------------------------------------------------
// HwVarCore unit tests against a deterministic fake inner core.

/// Fixed cost-per-op core: consume() charges `cost` cycles. Makes every
/// stretch/tick/preemption injection arithmetically checkable.
class FakeCore final : public CoreModel {
 public:
  explicit FakeCore(Cycle cost) : cost_(cost) {}

  void consume(const MicroOp&) override {
    now_ += cost_;
    ++retired_;
  }
  void warmOp(const MicroOp&) override {}
  Cycle now() const override { return now_; }
  Cycle frontier() const override { return now_; }
  Cycle drain() override { return now_; }
  void skipTo(Cycle c) override {
    if (c > now_) now_ = c;
  }
  std::uint64_t retired() const override { return retired_; }

 private:
  Cycle cost_;
  Cycle now_ = 0;
  std::uint64_t retired_ = 0;
};

MicroOp aluOp() {
  MicroOp op;
  op.cls = OpClass::kIntAlu;
  op.pc = 0x1000;
  return op;
}

/// Enabled params with every mechanism off: DVFS pinned to one level, no
/// tick, no preemption, no thermal model. Tests switch on exactly the
/// mechanism they check.
HwVarParams quietParams() {
  HwVarParams p;
  p.enabled = true;
  p.interval_ops = 100;
  p.levels = 1;
  p.tick_ops = 0;
  p.preempt_pm = 0;
  p.therm_threshold = 0;
  return p;
}

TEST(HwVarCoreTest, QuietSpecIsAPurePassthrough) {
  constexpr Cycle kCost = 2;
  StatRegistry stats;
  HwVarCore core(std::make_unique<FakeCore>(kCost), quietParams(), 0, &stats,
                 "core0");
  for (int i = 0; i < 1000; ++i) core.consume(aluOp());
  core.drain();
  EXPECT_EQ(core.now(), 2000u);
  EXPECT_EQ(core.retired(), 1000u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.intervals"), 10u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.stall_cycles"), 0u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.dvfs_transitions"), 0u);
}

TEST(HwVarCoreTest, PeriodicTickChargesEveryDueTick) {
  HwVarParams p = quietParams();
  p.tick_ops = 10;
  p.tick_cycles = 7;
  StatRegistry stats;
  HwVarCore core(std::make_unique<FakeCore>(1), p, 0, &stats, "core0");

  // Two full intervals: 200 ops = 20 ticks, paid at the boundaries.
  for (int i = 0; i < 200; ++i) core.consume(aluOp());
  EXPECT_EQ(core.now(), 200u + 20u * 7u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.ticks"), 20u);

  // A partial interval closed by drain() pays exactly the ticks that fell
  // due — tick accounting is total-op driven, not interval driven.
  for (int i = 0; i < 50; ++i) core.consume(aluOp());
  core.drain();
  EXPECT_EQ(core.now(), 250u + 25u * 7u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.ticks"), 25u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.intervals"), 3u);

  // drain() with nothing executed since the boundary is a no-op.
  const Cycle before = core.now();
  core.drain();
  EXPECT_EQ(core.now(), before);
  EXPECT_EQ(stats.counterValue("core0.hwvar.intervals"), 3u);
}

TEST(HwVarCoreTest, ThermalLatchTripsAndReleasesWithHysteresis) {
  // +100 heat per interval unthrottled, 80 cooled: net +20 per interval.
  // Throttled heating runs at min_freq (50%): +50 - 80 = net -30.
  HwVarParams p = quietParams();
  p.therm_heat_pm = 1000;
  p.therm_cool_pm = 800;
  p.therm_threshold = 140;
  p.min_freq_pct = 50;
  StatRegistry stats;
  HwVarCore core(std::make_unique<FakeCore>(1), p, 0, &stats, "core0");

  const auto runInterval = [&] {
    for (std::uint64_t i = 0; i < p.interval_ops; ++i) core.consume(aluOp());
  };

  // Heat ramp: 20 per interval, trip at >= 140 after the 7th close.
  for (int k = 0; k < 6; ++k) runInterval();
  EXPECT_FALSE(core.throttled());
  EXPECT_EQ(core.heat(), 120u);
  runInterval();
  EXPECT_TRUE(core.throttled());
  EXPECT_EQ(core.heat(), 140u);
  EXPECT_EQ(core.now(), 700u);  // the trip itself costs nothing yet

  // Throttled intervals run at 50%: work stretches by 100%, and the core
  // cools by 30 per interval. Release only at heat*2 <= threshold (70).
  runInterval();  // closes at heat 110 — still latched
  EXPECT_TRUE(core.throttled());
  EXPECT_EQ(core.heat(), 110u);
  EXPECT_EQ(core.now(), 700u + 200u);
  runInterval();  // heat 80 > 70: hysteresis holds the latch
  EXPECT_TRUE(core.throttled());
  EXPECT_EQ(core.heat(), 80u);
  runInterval();  // heat 50 <= 70: released
  EXPECT_FALSE(core.throttled());
  EXPECT_EQ(core.heat(), 50u);

  // Three throttled closes, each stretching 100 work cycles to 200.
  EXPECT_EQ(stats.counterValue("core0.hwvar.throttled_intervals"), 3u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.stretch_cycles"), 300u);
  EXPECT_EQ(core.now(), 1000u + 300u);

  // The next interval runs at nominal again.
  runInterval();
  EXPECT_EQ(core.now(), 1100u + 300u);
}

TEST(HwVarCoreTest, ExternalSkipsAreNeverStretched) {
  // Permanently throttled core (no cooling): every interval after the
  // first stretches its *work* by 100% — but not cycles skipped in from
  // outside (an MPI wait is blocked time, not core activity).
  HwVarParams p = quietParams();
  p.therm_heat_pm = 1000;
  p.therm_cool_pm = 0;
  p.therm_threshold = 50;
  p.min_freq_pct = 50;
  StatRegistry stats;
  HwVarCore core(std::make_unique<FakeCore>(1), p, 0, &stats, "core0");

  for (int i = 0; i < 100; ++i) core.consume(aluOp());  // trip the latch
  ASSERT_TRUE(core.throttled());
  ASSERT_EQ(core.now(), 100u);

  for (int i = 0; i < 50; ++i) core.consume(aluOp());
  core.skipTo(core.now() + 500);  // the wait
  for (int i = 0; i < 50; ++i) core.consume(aluOp());

  // Interval work = 100 op-cycles; the 500 skipped cycles pass through
  // unstretched: 100 (prior) + 100 + 500 + 100 stretch.
  EXPECT_EQ(core.now(), 800u);
  EXPECT_EQ(stats.counterValue("core0.hwvar.stretch_cycles"), 100u);

  // Sanity: the same interval without the wait costs 200.
  EXPECT_EQ(stats.counterValue("core0.hwvar.intervals"), 2u);
}

TEST(HwVarCoreTest, PreemptionSliceLandsOnHashedBoundaries) {
  HwVarParams p = quietParams();
  p.preempt_pm = 1000;  // every boundary preempts: exact arithmetic
  p.preempt_cycles = 40;
  StatRegistry stats;
  HwVarCore core(std::make_unique<FakeCore>(1), p, 0, &stats, "core0");
  for (int i = 0; i < 500; ++i) core.consume(aluOp());
  EXPECT_EQ(stats.counterValue("core0.hwvar.preemptions"), 5u);
  EXPECT_EQ(core.now(), 500u + 5u * 40u);
}

TEST(HwVarCoreTest, DvfsTransitionsPayTheLatencyOnce) {
  HwVarParams p = quietParams();
  p.levels = 4;
  p.min_freq_pct = 70;
  p.dvfs_shift_pm = 1000;  // re-draw every boundary
  p.dvfs_latency_cycles = 55;
  p.seed = 7;
  StatRegistry stats;
  HwVarCore core(std::make_unique<FakeCore>(1), p, 0, &stats, "core0");
  for (int i = 0; i < 4000; ++i) core.consume(aluOp());
  core.drain();

  // The realized state trajectory is the pure fold; count its changes.
  std::uint64_t transitions = 0;
  unsigned state = 0;
  for (std::uint64_t k = 1; k <= stats.counterValue("core0.hwvar.intervals");
       ++k) {
    const unsigned next = hwvarDvfsStep(p, 0, k, state);
    if (next != state) ++transitions;
    state = next;
  }
  EXPECT_EQ(stats.counterValue("core0.hwvar.dvfs_transitions"), transitions);
  EXPECT_GT(transitions, 0u);
  // Injected stall is visible on the clock.
  EXPECT_GT(core.now(), 4000u);
}

// ---------------------------------------------------------------------------
// Fingerprints, engine rewrite, cache separation.

/// Lively spec for whole-machine runs: short intervals and high event
/// rates so reduced-scale test workloads cross many decision boundaries.
HwVarParams sweepVarParams() {
  HwVarParams p;
  p.enabled = true;
  p.seed = 5;
  p.interval_ops = 1500;
  p.levels = 4;
  p.min_freq_pct = 60;
  p.dvfs_shift_pm = 400;
  p.dvfs_latency_cycles = 300;
  p.therm_heat_pm = 400;
  p.therm_cool_pm = 300;
  p.therm_threshold = 5000;
  p.tick_ops = 700;
  p.tick_cycles = 150;
  p.preempt_pm = 200;
  p.preempt_cycles = 5000;
  return p;
}

TEST(HwVarFingerprintTest, VariabilityNeverSharesAFingerprintWithFullRuns) {
  const JobSpec full = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  JobSpec varied = full;
  applyHwVarOverrides(&varied.overrides, sweepVarParams());

  EXPECT_FALSE(hasHwVarOverrides(full.overrides));
  EXPECT_TRUE(hasHwVarOverrides(varied.overrides));
  EXPECT_NE(jobFingerprint(full), jobFingerprint(varied));

  // Different seeds and placements are different cache entries too — the
  // replica and placement axes of a study must never collapse.
  JobSpec other_seed = full;
  HwVarParams q = sweepVarParams();
  q.seed = 6;
  applyHwVarOverrides(&other_seed.overrides, q);
  EXPECT_NE(jobFingerprint(varied), jobFingerprint(other_seed));

  JobSpec other_core = full;
  q = sweepVarParams();
  q.placement = 1;
  applyHwVarOverrides(&other_core.overrides, q);
  EXPECT_NE(jobFingerprint(varied), jobFingerprint(other_core));
  EXPECT_NE(jobFingerprint(other_seed), jobFingerprint(other_core));
}

TEST(HwVarFingerprintTest, ReplicaSeedsSurviveTheOverrideRoundTrip) {
  // Half of all splitmix64 replica seeds are >= 2^63: each must resolve to
  // itself, not collapse onto a default, and give its own cache entry.
  const JobSpec full = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  std::vector<std::string> fingerprints;
  for (std::uint64_t r = 0; r < 16; ++r) {
    HwVarParams p = sweepVarParams();
    p.seed = hwvarReplicaSeed(1, r);
    JobSpec replica = full;
    applyHwVarOverrides(&replica.overrides, p);
    EXPECT_EQ(resolveSocConfig(replica).hwvar.seed, p.seed) << "replica " << r;
    fingerprints.push_back(jobFingerprint(replica));
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  EXPECT_EQ(std::unique(fingerprints.begin(), fingerprints.end()) -
                fingerprints.begin(),
            16);
}

TEST(HwVarFingerprintTest, DeterministicFingerprintsAreLegacyIdentical) {
  // hwvar is folded into describeSocConfig() only when enabled, so the
  // deterministic machine's canonical description — and with it every
  // existing cache entry and golden snapshot — is byte-identical to
  // pre-hwvar builds. An explicitly *disabled* spec is equally invisible.
  const JobSpec full = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  const std::string desc = describeSocConfig(resolveSocConfig(full));
  EXPECT_EQ(desc.find("hwvar"), std::string::npos);

  JobSpec disabled = full;
  applyHwVarOverrides(&disabled.overrides, HwVarParams{});
  EXPECT_TRUE(hasHwVarOverrides(disabled.overrides));
  EXPECT_EQ(jobFingerprint(disabled), jobFingerprint(full));
}

TEST(HwVarFingerprintTest, InvalidOverridesAreRejectedAtResolve) {
  JobSpec job = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  HwVarParams bad = sweepVarParams();
  bad.min_freq_pct = 0;
  applyHwVarOverrides(&job.overrides, bad);
  EXPECT_THROW(resolveSocConfig(job), std::invalid_argument);

  JobSpec typo = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  typo.overrides.set("hwvar.bogus", "1");
  EXPECT_THROW(resolveSocConfig(typo), std::invalid_argument);
}

TEST(HwVarEngineTest, EffectiveSpecRewritesOnceAndRespectsPinnedSpecs) {
  SweepOptions options;
  options.use_cache = false;
  options.hwvar = sweepVarParams();
  SweepEngine engine(options);

  const JobSpec base = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  const JobSpec rewritten = engine.effectiveSpec(base);
  EXPECT_TRUE(hasHwVarOverrides(rewritten.overrides));
  EXPECT_NE(jobFingerprint(base), jobFingerprint(rewritten));

  // A spec that already pins its variability passes through untouched —
  // the engine must not stack its own knobs on top.
  JobSpec pinned = base;
  HwVarParams mine = sweepVarParams();
  mine.interval_ops = 7777;
  applyHwVarOverrides(&pinned.overrides, mine);
  const JobSpec kept = engine.effectiveSpec(pinned);
  EXPECT_EQ(jobFingerprint(kept), jobFingerprint(pinned));

  // A disabled engine is the identity.
  SweepOptions off;
  off.use_cache = false;
  EXPECT_EQ(jobFingerprint(SweepEngine(off).effectiveSpec(base)),
            jobFingerprint(base));
}

TEST(HwVarEngineTest, VariabilityResultsNeverAliasFullOnesInTheCache) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("bridge-hwvar-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const JobSpec job = microbenchJob(PlatformId::kRocket1, "MM", 0.25);

  SweepOptions varied_opts;
  varied_opts.cache_dir = dir.string();
  varied_opts.hwvar = sweepVarParams();
  const SweepResult varied = SweepEngine(varied_opts).runOne(job);
  ASSERT_TRUE(varied.ok());
  EXPECT_FALSE(varied.from_cache);

  // Same base spec on the deterministic machine, same cache directory: a
  // fresh execution, never the variability entry.
  SweepOptions full_opts;
  full_opts.cache_dir = dir.string();
  const SweepResult full = SweepEngine(full_opts).runOne(job);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.from_cache);
  EXPECT_NE(full.fingerprint, varied.fingerprint);

  // Each mode hits its own entry on re-run.
  EXPECT_TRUE(SweepEngine(varied_opts).runOne(job).from_cache);
  EXPECT_TRUE(SweepEngine(full_opts).runOne(job).from_cache);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Determinism.

std::vector<JobSpec> hwvarGrid() {
  std::vector<JobSpec> jobs;
  for (const char* kernel : {"MM", "STL2", "ED1", "MIM"}) {
    jobs.push_back(microbenchJob(PlatformId::kRocket1, kernel, 0.25));
  }
  jobs.push_back(npbJob(PlatformId::kBananaPiSim, NpbBenchmark::kCG,
                        /*ranks=*/2, /*scale=*/0.1));
  jobs.push_back(npbJob(PlatformId::kMilkVHw, NpbBenchmark::kEP,
                        /*ranks=*/2, /*scale=*/0.1));
  return jobs;
}

TEST(HwVarDeterminismTest, WorkerCountCannotMoveAVariabilityCycle) {
  const std::vector<JobSpec> jobs = hwvarGrid();

  SweepOptions serial;
  serial.workers = 1;
  serial.use_cache = false;
  serial.hwvar = sweepVarParams();
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

TEST(HwVarDeterminismTest, VariabilityActuallyMovesTheClock) {
  // Not a no-op: the periodic tick alone guarantees injected stall, so a
  // variability run is strictly slower than the deterministic machine
  // while retiring the identical instruction stream.
  SweepOptions full_opts;
  full_opts.use_cache = false;
  SweepOptions varied_opts = full_opts;
  varied_opts.hwvar = sweepVarParams();

  const JobSpec job = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  const SweepResult full = SweepEngine(full_opts).runOne(job);
  const SweepResult varied = SweepEngine(varied_opts).runOne(job);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(varied.ok());
  EXPECT_EQ(varied.result.retired, full.result.retired);
  EXPECT_GT(varied.result.cycles, full.result.cycles);
  EXPECT_LT(varied.result.ipc, full.result.ipc);
}

TEST(HwVarDeterminismTest, DisabledSpecIsBitIdenticalToTheDeterministicRun) {
  // An engine whose hwvar knob is the parsed "off" spec must produce the
  // deterministic machine's results bit-for-bit, fingerprints included —
  // the acceptance gate for this whole layer.
  HwVarParams off;
  ASSERT_TRUE(parseHwVarSpec("off", &off, nullptr));

  SweepOptions plain;
  plain.use_cache = false;
  SweepOptions disabled = plain;
  disabled.hwvar = off;

  const std::vector<JobSpec> jobs = hwvarGrid();
  const auto a = SweepEngine(plain).run(jobs);
  const auto b = SweepEngine(disabled).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
    EXPECT_EQ(a[i].result.cycles, b[i].result.cycles);
    EXPECT_EQ(a[i].result.retired, b[i].result.retired);
    EXPECT_EQ(a[i].result.seconds, b[i].result.seconds);
    EXPECT_EQ(a[i].stats, b[i].stats);
  }
}

// ---------------------------------------------------------------------------
// Variability-study harness.

VariabilityStudyOptions studyOptions() {
  VariabilityStudyOptions opts;
  opts.kernels = {"MM", "ED1"};
  opts.platforms = {PlatformId::kBananaPiHw};
  opts.scale = 0.05;
  opts.replicas = 3;
  opts.placements = 3;
  opts.hwvar = sweepVarParams();
  opts.hwvar.interval_ops = 600;  // many boundaries even at tiny scale
  opts.hwvar.tick_ops = 300;
  opts.hwvar.therm_threshold = 2000;
  return opts;
}

TEST(HwVarStudyTest, SpreadFigureIsBitIdenticalAtAnyWorkerCount) {
  SweepOptions serial;
  serial.workers = 1;
  serial.use_cache = false;
  SweepOptions parallel = serial;
  parallel.workers = 8;

  const Figure a = computeVariabilitySpread(studyOptions(), serial);
  const Figure b = computeVariabilitySpread(studyOptions(), parallel);

  // Shape: per platform, {run, core} x {mean, sd, median, iqr} series with
  // one point per kernel.
  ASSERT_EQ(a.series.size(), 8u);
  EXPECT_EQ(a.series[0].label, "BananaPiHw/run/mean");
  EXPECT_EQ(a.series[1].label, "BananaPiHw/run/sd");
  EXPECT_EQ(a.series[4].label, "BananaPiHw/core/mean");
  EXPECT_EQ(a.series[7].label, "BananaPiHw/core/iqr");
  for (const FigureSeries& s : a.series) {
    ASSERT_EQ(s.points.size(), 2u) << s.label;
    EXPECT_EQ(s.points[0].first, "MM");
    EXPECT_EQ(s.points[1].first, "ED1");
  }

  // Bitwise equality across worker counts — the property that makes the
  // spread table golden-snapshot material.
  ASSERT_EQ(b.series.size(), a.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    for (std::size_t i = 0; i < a.series[s].points.size(); ++i) {
      EXPECT_EQ(a.series[s].points[i].second, b.series[s].points[i].second)
          << a.series[s].label << "/" << a.series[s].points[i].first;
    }
  }

  // The study shows real spread on both axes: seeded replicas and distinct
  // placements actually diverge under the lively spec.
  double run_sd = 0.0;
  double core_sd = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    run_sd += a.series[1].points[i].second;
    core_sd += a.series[5].points[i].second;
    EXPECT_GT(a.series[0].points[i].second, 0.0);  // run means
  }
  EXPECT_GT(run_sd, 0.0);
  EXPECT_GT(core_sd, 0.0);
}

// ---------------------------------------------------------------------------
// Distribution-matching objective.

TEST(DistributionObjectiveTest, SelfDistanceIsExactlyZero) {
  // Model == reference: both sides simulate the identical replica set, so
  // the empirical distributions coincide and both metrics score exactly 0.
  DistributionOptions opts;
  opts.model = PlatformId::kRocket1;
  opts.reference = PlatformId::kRocket1;
  opts.kernels = {"MM"};
  opts.scale = 0.1;
  opts.replicas = 3;
  opts.hwvar = sweepVarParams();
  SweepOptions sweep;
  sweep.use_cache = false;

  for (const DistributionDistance d :
       {DistributionDistance::kKs, DistributionDistance::kQuantile}) {
    SCOPED_TRACE(distributionDistanceName(d));
    opts.distance = d;
    DistributionObjective objective(opts, sweep);
    const DistributionEval eval = objective.evaluate(Config{});
    EXPECT_DOUBLE_EQ(eval.error, 0.0);
    ASSERT_EQ(eval.kernels.size(), 1u);
    EXPECT_FALSE(eval.kernels[0].skipped);
    EXPECT_DOUBLE_EQ(eval.kernels[0].distance, 0.0);
    ASSERT_EQ(eval.kernels[0].sim_seconds.size(), 3u);
    EXPECT_EQ(eval.kernels[0].sim_seconds, eval.kernels[0].ref_seconds);
    EXPECT_TRUE(eval.skipped.empty());
    EXPECT_TRUE(objective.skippedComponents().empty());
  }
}

TEST(DistributionObjectiveTest, ReplicasActuallySpreadAndScoreInRange) {
  DistributionOptions opts;
  opts.model = PlatformId::kRocket1;
  opts.reference = PlatformId::kBananaPiHw;
  opts.kernels = {"MM"};
  opts.scale = 0.1;
  opts.replicas = 3;
  opts.hwvar = sweepVarParams();
  opts.hwvar.interval_ops = 600;
  opts.hwvar.tick_ops = 300;
  SweepOptions sweep;
  sweep.use_cache = false;
  DistributionObjective objective(opts, sweep);

  const DistributionEval eval = objective.evaluate(Config{});
  ASSERT_EQ(eval.kernels.size(), 1u);
  const KernelDistributionFit& fit = eval.kernels[0];
  EXPECT_FALSE(fit.skipped);
  ASSERT_EQ(fit.sim_seconds.size(), 3u);
  ASSERT_EQ(fit.ref_seconds.size(), 3u);
  EXPECT_TRUE(
      std::is_sorted(fit.sim_seconds.begin(), fit.sim_seconds.end()));
  // Distinct replica seeds produce a genuine distribution, not a point.
  EXPECT_NE(fit.sim_seconds.front(), fit.sim_seconds.back());
  EXPECT_GE(fit.distance, 0.0);
  EXPECT_LE(fit.distance, 1.0);  // KS statistic range
  EXPECT_DOUBLE_EQ(eval.error, fit.distance);

  // score() is the Objective-interface view of the same number, and the
  // whole evaluation is deterministic.
  EXPECT_DOUBLE_EQ(objective.score(Config{}), eval.error);
}

TEST(DistributionObjectiveTest, CoordinateDescentCompletesAnEndToEndTune) {
  DistributionOptions opts;
  opts.model = PlatformId::kRocket1;
  opts.reference = PlatformId::kBananaPiHw;
  opts.kernels = {"MM"};
  opts.scale = 0.05;
  opts.replicas = 2;
  opts.hwvar = sweepVarParams();
  opts.hwvar.interval_ops = 600;
  opts.hwvar.tick_ops = 300;
  SweepOptions sweep;
  sweep.use_cache = false;
  DistributionObjective objective(opts, sweep);

  ParamSpace space;
  space.addPow2("l2.banks", 1, 2);
  space.addPow2("l1d.mshrs", 4, 8);

  TuneOptions tune;
  tune.budget = 5;
  CoordinateDescentTuner tuner(space, &objective, tune);
  const TuneResult result = tuner.run({0, 0});

  EXPECT_GE(result.evaluations, 1u);
  EXPECT_LE(result.evaluations, tune.budget);
  EXPECT_EQ(result.trajectory.size(), result.evaluations);
  EXPECT_FALSE(result.stop_reason.empty());
  EXPECT_GE(result.best_error, 0.0);
  EXPECT_LE(result.best_error, opts.failure_penalty);
  // The winning candidate carries concrete overrides for the tuned knobs.
  EXPECT_GT(result.best_overrides.getInt("l2.banks").value_or(0), 0);
}

// ---------------------------------------------------------------------------
// Serve / remote-worker round trip.

/// Scratch tree + worker process helpers, same conventions as the serve,
/// elastic, and sampling suites.
class HwVarServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("bridge-hwvar-") + info->name() + "-" +
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

TEST_F(HwVarServeTest, VariabilityJobRoundTripsBitIdenticallyViaRemoteWorker) {
  // The variability rides in the spec's `hwvar.*` overrides, so a daemon
  // and worker with their own hwvar knobs off must execute it varied — and
  // return exactly what a local varied run computes.
  JobSpec varied_spec = microbenchJob(PlatformId::kRocket1, "MM", 0.25);
  applyHwVarOverrides(&varied_spec.overrides, sweepVarParams());
  const JobSpec full_spec = microbenchJob(PlatformId::kRocket1, "MM", 0.25);

  SweepOptions local;
  local.use_cache = false;
  const SweepResult local_varied = SweepEngine(local).runOne(varied_spec);
  const SweepResult local_full = SweepEngine(local).runOne(full_spec);
  ASSERT_TRUE(local_varied.ok());
  ASSERT_TRUE(local_full.ok());
  ASSERT_NE(local_varied.fingerprint, local_full.fingerprint);

  serve::SweepDaemon daemon(daemonOptions());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Hardening: the worker's environment says to vary everything. The
  // worker must ignore it — variability comes only from each job's spec.
  ::setenv("BRIDGE_HWVAR", "interval=500,preempt=500,tick=100", 1);
  const pid_t worker = spawnWorker(daemon.socketPath());
  ::unsetenv("BRIDGE_HWVAR");
  ASSERT_GT(worker, 0);
  ASSERT_TRUE(eventually([&] { return daemon.stats().workers == 1; }))
      << "worker never registered";

  serve::ServeClient client(daemon.socketPath());
  const std::vector<SweepResult> remote =
      client.run({varied_spec, full_spec});
  ASSERT_EQ(remote.size(), 2u);

  // Both executed remotely (one worker attached: nothing runs locally),
  // under distinct fingerprints — the varied job never dedups against, or
  // serves from, the deterministic one.
  const serve::ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed_remote, 2u);
  EXPECT_EQ(stats.attached, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);

  EXPECT_EQ(remote[0].fingerprint, local_varied.fingerprint);
  EXPECT_EQ(remote[0].result.cycles, local_varied.result.cycles);
  EXPECT_EQ(remote[0].result.retired, local_varied.result.retired);
  EXPECT_EQ(remote[0].result.seconds, local_varied.result.seconds);
  EXPECT_EQ(remote[0].result.ipc, local_varied.result.ipc);
  EXPECT_EQ(remote[0].stats, local_varied.stats);

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
