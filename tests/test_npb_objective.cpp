// NpbObjective properties: stable component structure, worker-count
// determinism, bit-identical cache-hit replay, the rocket/boom coupling
// that makes the Pareto front non-degenerate, and bit-identical
// checkpoint-resume of the annealing-mode ParetoTuner it pairs with.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "tune/npb_objective.h"
#include "tune/pareto.h"

namespace bridge {
namespace {

namespace fs = std::filesystem;

// The whole file runs at a deliberately tiny problem class: the component
// *structure* and determinism properties under test are scale-invariant,
// and the 12^3 MG grid keeps every simulation in the tens of milliseconds.
NpbConfig tinyRun() {
  NpbConfig run;
  run.scale = 0.02;
  run.mg_top = 12;
  return run;
}

NpbObjectiveOptions tinyOptions(std::vector<NpbBenchmark> benchmarks = {
                                    NpbBenchmark::kCG, NpbBenchmark::kMG}) {
  NpbObjectiveOptions opts;
  opts.benchmarks = std::move(benchmarks);
  opts.run = tinyRun();
  return opts;
}

std::string privateDir(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("bridge-npb-" + std::string(tag));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SweepOptions cachedSweep(const std::string& dir) {
  SweepOptions sweep;
  sweep.cache_dir = dir;
  return sweep;
}

std::string trajectoryString(const ParetoResult& r, const ParamSpace& s) {
  std::ostringstream os;
  for (const ParetoEntry& e : r.trajectory) {
    os << s.pointKey(e.point) << " ->";
    for (const double err : e.errors) {
      char buf[40];
      std::snprintf(buf, sizeof buf, " %.17g", err);
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

std::string frontString(const std::vector<ParetoEntry>& front,
                        const ParamSpace& s) {
  std::ostringstream os;
  for (const ParetoEntry& e : front) {
    os << s.pointKey(e.point) << " ->";
    for (const double err : e.errors) {
      char buf[40];
      std::snprintf(buf, sizeof buf, " %.17g", err);
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

TEST(NpbObjectiveTest, ComponentOrderIsStableAndHeldOutIsExcluded) {
  NpbObjectiveOptions opts;  // the real defaults, structure only — no sims
  opts.run = tinyRun();
  NpbObjective objective(opts);
  ASSERT_EQ(objective.arity(), 6u);
  const char* expected[] = {"CG/1r", "CG/4r", "IS/1r",
                            "IS/4r", "MG/1r", "MG/4r"};
  for (std::size_t i = 0; i < objective.components().size(); ++i) {
    EXPECT_EQ(npbCellName(objective.components()[i]), expected[i]);
    EXPECT_NE(objective.components()[i].bench, opts.held_out);
  }
  // A second instance agrees exactly — the checkpoint and golden-snapshot
  // identity depends on this order.
  NpbObjective again(opts);
  ASSERT_EQ(again.arity(), objective.arity());
  for (std::size_t i = 0; i < objective.arity(); ++i) {
    EXPECT_EQ(npbCellName(again.components()[i]),
              npbCellName(objective.components()[i]));
  }

  // Tuning on the validation workload would make "held-out" a lie.
  NpbObjectiveOptions bad;
  bad.benchmarks = {NpbBenchmark::kCG, NpbBenchmark::kEP};
  EXPECT_THROW(NpbObjective{bad}, std::invalid_argument);
}

TEST(NpbObjectiveTest, ScoreVectorIsWorkerCountInvariant) {
  auto runWith = [&](unsigned workers) {
    SweepOptions sweep;
    sweep.workers = workers;
    sweep.use_cache = false;  // force real concurrent simulation
    NpbObjective objective(tinyOptions(), sweep);
    return objective.scoreVector({});
  };
  const std::vector<double> serial = runWith(1);
  const std::vector<double> parallel = runWith(8);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "component " << i;
    EXPECT_GT(serial[i], 0.0);  // models never match the silicon analogs
  }
}

TEST(NpbObjectiveTest, CacheHitReplayIsBitIdentical) {
  const std::string dir = privateDir("cache-replay");
  std::vector<double> first;
  {
    NpbObjective objective(tinyOptions(), cachedSweep(dir));
    first = objective.scoreVector({});
  }
  std::size_t cached_files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++cached_files;
  }
  ASSERT_GT(cached_files, 0u);

  // A fresh objective over the same cache must replay every run from disk
  // (no new cache entries) and return the exact same bits.
  std::vector<double> second;
  {
    NpbObjective objective(tinyOptions(), cachedSweep(dir));
    second = objective.scoreVector({});
  }
  std::size_t files_after = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++files_after;
  }
  EXPECT_EQ(files_after, cached_files);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i], first[i]) << "component " << i;
  }
}

// The property the tentpole hinges on: every component is the mean of a
// rocket-side and a boom-side error, so stepping a knob in EITHER
// namespace moves EVERY component — the objective is non-separable across
// the combined space, unlike BiPlatformObjective where a rocket knob can
// never affect the boom error.
TEST(NpbObjectiveTest, EveryComponentDependsOnBothNamespaces) {
  const std::string dir = privateDir("coupling");
  NpbObjective objective(tinyOptions(), cachedSweep(dir));

  const std::vector<double> base = objective.scoreVector({});

  Config rocket_step;
  rocket_step.set("rocket/bus.width_bits", "256");  // Rocket1 base: 64
  const std::vector<double> rocket = objective.scoreVector(rocket_step);

  Config boom_step;
  boom_step.set("boom/bus.width_bits", "256");  // MilkVSim base: 128
  const std::vector<double> boom = objective.scoreVector(boom_step);

  ASSERT_EQ(rocket.size(), base.size());
  ASSERT_EQ(boom.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NE(rocket[i], base[i])
        << npbCellName(objective.components()[i])
        << " ignored the rocket-side knob";
    EXPECT_NE(boom[i], base[i])
        << npbCellName(objective.components()[i])
        << " ignored the boom-side knob";
  }
}

// Acceptance criterion: under the coupled objective the archive keeps a
// genuine trade-off set. A bus-width slice suffices — wider buses help
// the bandwidth-bound cells and over-serve the latency-bound ones
// differently on the two sides, so no single point dominates.
TEST(NpbObjectiveTest, ParetoFrontIsNonDegenerate) {
  ParamSpace space;
  space.addPow2("rocket/bus.width_bits", 64, 256);
  space.addPow2("boom/bus.width_bits", 64, 256);

  const std::string dir = privateDir("front");
  NpbObjective objective(tinyOptions(), cachedSweep(dir));
  ParetoOptions opts;
  opts.budget = 9;  // the whole 3x3 slice
  ParetoTuner tuner(space, &objective, opts);
  const ParetoResult result = tuner.run({0, 0});

  EXPECT_GT(result.front.size(), 1u)
      << "coupled NPB objective collapsed to a single ideal point:\n"
      << frontString(result.front, space);
  for (const ParetoEntry& e : result.front) {
    for (const ParetoEntry& other : result.front) {
      EXPECT_FALSE(dominates(other.errors, e.errors));
    }
  }
}

TEST(NpbObjectiveTest, HeldOutScoresEpWithoutTouchingTheTunedSet) {
  const std::string dir = privateDir("heldout");
  NpbObjective objective(tinyOptions(), cachedSweep(dir));
  const NpbEval held = objective.heldOut({});
  ASSERT_EQ(held.components.size(), 2u);
  EXPECT_EQ(npbCellName(held.components[0].cell), "EP/1r");
  EXPECT_EQ(npbCellName(held.components[1].cell), "EP/4r");
  EXPECT_GT(held.error, 0.0);
  // The held-out grid never leaks into the tuner-visible vector.
  EXPECT_EQ(objective.scoreVector({}).size(), 4u);
}

// The tune_npb resume guarantee, mirroring the ParetoTuner resume test but
// through the real NPB objective in annealing mode: kill after K fresh
// evaluations, resume from the schema-v2 checkpoint, and the final
// trajectory and archive match the uninterrupted run bit-for-bit. The
// shared result cache is what makes the resumed evaluations affordable —
// and it must not perturb a single bit of the outcome.
TEST(NpbObjectiveTest, AnnealingCheckpointResumeIsBitIdentical) {
  ParamSpace space;
  space.addPow2("rocket/l1d.mshrs", 2, 16);
  space.addPow2("boom/l2.mshrs", 4, 32);

  const std::string dir = privateDir("resume");
  const std::string ckpt = dir + "/checkpoint.json";
  const auto makeObjective = [&] {
    return NpbObjective(tinyOptions(), cachedSweep(dir));
  };
  ParetoOptions opts;
  opts.budget = 8;
  opts.descent = ParetoDescent::kAnnealing;

  NpbObjective ref = makeObjective();
  const ParetoResult full = ParetoTuner(space, &ref, opts).run({0, 0});
  EXPECT_EQ(full.evaluations, 8u);

  NpbObjective first = makeObjective();
  ParetoOptions interrupted = opts;
  interrupted.budget = 4;
  interrupted.checkpoint = ckpt;
  const ParetoResult partial =
      ParetoTuner(space, &first, interrupted).run({0, 0});
  EXPECT_EQ(partial.evaluations, 4u);

  NpbObjective second = makeObjective();
  ParetoOptions resumed = opts;
  resumed.checkpoint = ckpt;
  int fresh = 0, replayed = 0;
  resumed.on_eval = [&](std::size_t, const ParetoEntry&, bool,
                        bool is_fresh) { (is_fresh ? fresh : replayed)++; };
  const ParetoResult cont = ParetoTuner(space, &second, resumed).run({0, 0});
  EXPECT_EQ(trajectoryString(cont, space), trajectoryString(full, space));
  EXPECT_EQ(frontString(cont.front, space), frontString(full.front, space));
  EXPECT_EQ(replayed, 4);
  EXPECT_EQ(fresh, static_cast<int>(full.objective_calls) - 4);
}

// A synthetic objective for the strategy-identity checks: annealing mode
// must be deterministic in its seed, and a coordinate-descent checkpoint
// must never silently resume an annealing run (the mode is bound into the
// checkpoint's `strategy` field).
class SlopeObjective : public MultiObjective {
 public:
  std::size_t arity() const override { return 2; }
  std::vector<double> scoreVector(const Config& overrides) override {
    const double a = overrides.getDouble("rocket/l1d.mshrs").value_or(0.0);
    const double b = overrides.getDouble("boom/l2.mshrs").value_or(0.0);
    return {a + b, 32.0 - a + (32.0 - b)};
  }
};

ParamSpace slopeSpace() {
  ParamSpace s;
  s.addPow2("rocket/l1d.mshrs", 2, 16);
  s.addPow2("boom/l2.mshrs", 4, 32);
  return s;
}

TEST(NpbObjectiveTest, AnnealingModeIsSeedDeterministic) {
  const ParamSpace space = slopeSpace();
  ParetoOptions opts;
  opts.budget = 12;
  opts.seed = 7;
  opts.descent = ParetoDescent::kAnnealing;
  SlopeObjective a, b;
  const ParetoResult ra = ParetoTuner(space, &a, opts).run({1, 1});
  const ParetoResult rb = ParetoTuner(space, &b, opts).run({1, 1});
  EXPECT_EQ(trajectoryString(ra, space), trajectoryString(rb, space));
  EXPECT_EQ(frontString(ra.front, space), frontString(rb.front, space));
}

TEST(NpbObjectiveTest, DescentModeIsPartOfTheCheckpointIdentity) {
  const ParamSpace space = slopeSpace();
  const std::string ckpt = privateDir("strategy") + "/checkpoint.json";
  {
    SlopeObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.checkpoint = ckpt;  // default: coordinate descent, "pareto"
    ParetoTuner(space, &obj, opts).run({0, 0});
  }
  SlopeObjective obj;
  ParetoOptions opts;
  opts.budget = 4;
  opts.checkpoint = ckpt;
  opts.descent = ParetoDescent::kAnnealing;  // "pareto-anneal"
  ParetoTuner tuner(space, &obj, opts);
  EXPECT_THROW(tuner.run({0, 0}), std::runtime_error);
}

}  // namespace
}  // namespace bridge
