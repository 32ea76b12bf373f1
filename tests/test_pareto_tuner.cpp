// ParetoTuner behaviour: budget/ledger mechanics shared with the scalar
// Tuner, schema-v2 checkpoint resume reproducing the trajectory
// bit-identically, worker-count invariance of the archive through the real
// BiPlatformObjective, and the WeightedSumObjective bridge that lets the
// single-objective strategies search the combined space.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tune/pareto.h"
#include "tune/tuner.h"

namespace bridge {
namespace {

namespace fs = std::filesystem;

// Two convex bowls with different minima: the nondominated front is the
// set of trade-offs between the targets. Counts scoreVector calls so the
// tests can tell fresh evaluations from ledger/checkpoint replays.
class TwoBowlObjective : public MultiObjective {
 public:
  std::size_t arity() const override { return 2; }

  std::vector<double> scoreVector(const Config& overrides) override {
    ++calls_;
    const double lat = overrides.getDouble("l2.latency").value_or(0.0);
    const double banks = overrides.getDouble("l2.banks").value_or(0.0);
    const auto bowl = [&](double t_lat, double t_banks) {
      return (lat - t_lat) * (lat - t_lat) +
             (banks - t_banks) * (banks - t_banks);
    };
    return {bowl(2.0, 1.0), bowl(14.0, 8.0)};
  }

  int calls() const { return calls_; }

 private:
  int calls_ = 0;
};

ParamSpace bowlSpace() {
  ParamSpace s;
  s.addLinear("l2.latency", 2, 14, 2);  // 7 values
  s.addPow2("l2.banks", 1, 8);          // 4 values
  return s;
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

std::string checkpointPath(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("bridge-pareto-" + std::string(tag));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return (dir / "checkpoint.json").string();
}

TEST(ParetoTunerTest, FindsBothExtremesAndAMutuallyNondominatedFront) {
  const ParamSpace space = bowlSpace();
  TwoBowlObjective obj;
  ParetoOptions opts;
  opts.budget = 28;  // the whole 7x4 space
  ParetoTuner tuner(space, &obj, opts);
  const ParetoResult r = tuner.run({0, 0});

  ASSERT_FALSE(r.front.empty());
  // With the full space evaluated, both bowl minima are on the front.
  bool has_min0 = false, has_min1 = false;
  for (const ParetoEntry& e : r.front) {
    if (e.errors[0] == 0.0) has_min0 = true;
    if (e.errors[1] == 0.0) has_min1 = true;
    for (const ParetoEntry& other : r.front) {
      EXPECT_FALSE(dominates(other.errors, e.errors));
    }
  }
  EXPECT_TRUE(has_min0);
  EXPECT_TRUE(has_min1);
  // The bounded exploration phase may stop a step short of sweeping every
  // last point; it must still have covered most of the 28-point space.
  EXPECT_GE(r.evaluations, 20u);
  // Revisits are free: every distinct point scored exactly once.
  EXPECT_EQ(obj.calls(), static_cast<int>(r.evaluations));
  EXPECT_EQ(r.objective_calls, r.evaluations);
}

TEST(ParetoTunerTest, BudgetIsEnforcedAndSeedIsDeterministic) {
  const ParamSpace space = bowlSpace();
  ParetoOptions opts;
  opts.budget = 9;
  opts.seed = 5;

  TwoBowlObjective a;
  const ParetoResult ra = ParetoTuner(space, &a, opts).run({3, 2});
  TwoBowlObjective b;
  const ParetoResult rb = ParetoTuner(space, &b, opts).run({3, 2});
  EXPECT_EQ(ra.evaluations, 9u);
  EXPECT_EQ(ra.stop_reason, "budget");
  EXPECT_EQ(trajectoryString(ra, space), trajectoryString(rb, space));
  EXPECT_EQ(frontString(ra.front, space), frontString(rb.front, space));
}

TEST(ParetoTunerTest, CheckpointResumeIsBitIdentical) {
  const ParamSpace space = bowlSpace();
  const std::string ckpt = checkpointPath("resume");

  // Uninterrupted reference run.
  TwoBowlObjective ref;
  ParetoOptions opts;
  opts.budget = 20;
  const ParetoResult full = ParetoTuner(space, &ref, opts).run({0, 0});

  // Interrupted at 6 evaluations, checkpointing.
  TwoBowlObjective first;
  ParetoOptions interrupted = opts;
  interrupted.budget = 6;
  interrupted.checkpoint = ckpt;
  const ParetoResult partial =
      ParetoTuner(space, &first, interrupted).run({0, 0});
  EXPECT_EQ(partial.evaluations, 6u);
  EXPECT_EQ(first.calls(), 6);

  // Resume with the full budget: trajectory, front, and fresh-call count
  // must match the uninterrupted run exactly.
  TwoBowlObjective second;
  ParetoOptions resumed = opts;
  resumed.checkpoint = ckpt;
  int fresh = 0, replayed = 0;
  resumed.on_eval = [&](std::size_t, const ParetoEntry&, bool,
                        bool is_fresh) { (is_fresh ? fresh : replayed)++; };
  const ParetoResult cont = ParetoTuner(space, &second, resumed).run({0, 0});
  EXPECT_EQ(trajectoryString(cont, space), trajectoryString(full, space));
  EXPECT_EQ(frontString(cont.front, space), frontString(full.front, space));
  EXPECT_EQ(replayed, 6);
  EXPECT_EQ(second.calls(), static_cast<int>(full.objective_calls) - 6);
  EXPECT_EQ(fresh, second.calls());
}

TEST(ParetoTunerTest, MismatchedOrCorruptCheckpointIsRejected) {
  const ParamSpace space = bowlSpace();
  const std::string ckpt = checkpointPath("mismatch");
  {
    TwoBowlObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.checkpoint = ckpt;
    ParetoTuner(space, &obj, opts).run({0, 0});
  }
  // Different seed.
  {
    TwoBowlObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.seed = 99;
    opts.checkpoint = ckpt;
    ParetoTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0}), std::runtime_error);
  }
  // Different archive capacity (part of the schema identity).
  {
    TwoBowlObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.archive_cap = 8;
    opts.checkpoint = ckpt;
    ParetoTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0}), std::runtime_error);
  }
  // Different space.
  {
    ParamSpace other;
    other.addPow2("l2.banks", 1, 8);
    TwoBowlObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.checkpoint = ckpt;
    ParetoTuner tuner(other, &obj, opts);
    EXPECT_THROW(tuner.run({0}), std::runtime_error);
  }
  // A scalar (v1) checkpoint is not a pareto (v2) checkpoint.
  {
    std::ofstream out(ckpt, std::ios::trunc);
    out << "{\"version\": 1, \"strategy\": \"cd\", \"space\": \"x\", "
           "\"seed\": 1, \"seed_probes\": 0, \"evals\": []}\n";
  }
  {
    TwoBowlObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.checkpoint = ckpt;
    ParetoTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0}), std::runtime_error);
  }
  // Corrupt file.
  {
    std::ofstream out(ckpt, std::ios::trunc);
    out << "{ not json";
  }
  {
    TwoBowlObjective obj;
    ParetoOptions opts;
    opts.budget = 4;
    opts.checkpoint = ckpt;
    ParetoTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0}), std::runtime_error);
  }
}

// The real bi-platform objective through the sweep engine: the archive must
// be identical whether the probe kernels fan out over 1 worker or 8 — the
// `--jobs` invariance the ISSUE requires (and the TSan smoke target
// re-runs under -DBRIDGE_SANITIZE=thread).
TEST(ParetoTunerTest, ArchiveIsWorkerCountInvariant) {
  // A 2x2 slice of the combined space keeps this fast: one knob per side.
  ParamSpace space;
  space.addPow2("rocket/l2.banks", 2, 4).addPow2("boom/l2.banks", 4, 8);

  auto runWith = [&](unsigned workers) {
    BiPlatformOptions bopts;
    bopts.kernels = {"ED1", "ML2"};
    bopts.scale = 0.05;
    SweepOptions sweep;
    sweep.workers = workers;
    sweep.use_cache = false;  // force real concurrent simulation
    BiPlatformObjective objective(bopts, sweep);
    ParetoOptions opts;
    opts.budget = 4;  // the whole slice
    ParetoTuner tuner(space, &objective, opts);
    return tuner.run({0, 0});
  };

  const ParetoResult serial = runWith(1);
  const ParetoResult parallel = runWith(8);
  EXPECT_EQ(trajectoryString(serial, space),
            trajectoryString(parallel, space));
  EXPECT_EQ(frontString(serial.front, space),
            frontString(parallel.front, space));
  for (const ParetoEntry& e : serial.front) {
    ASSERT_EQ(e.errors.size(), 2u);
    EXPECT_GT(e.errors[0], 0.0);  // real models never match silicon exactly
    EXPECT_GT(e.errors[1], 0.0);
  }
}

TEST(WeightedSumObjectiveTest, ScalarizesForTheSingleObjectiveStrategies) {
  const ParamSpace space = bowlSpace();
  TwoBowlObjective multi;

  // All weight on objective 0: coordinate descent must land on its bowl.
  WeightedSumObjective w0(&multi, {1.0, 0.0});
  TuneOptions opts;
  opts.budget = 100;
  const TuneResult r0 =
      CoordinateDescentTuner(space, &w0, opts).run({3, 2});
  EXPECT_DOUBLE_EQ(r0.best_error, 0.0);
  EXPECT_EQ(space.pointKey(r0.best), "l2.latency=2,l2.banks=1");

  // All weight on objective 1: the other bowl.
  WeightedSumObjective w1(&multi, {0.0, 1.0});
  const TuneResult r1 =
      CoordinateDescentTuner(space, &w1, opts).run({3, 2});
  EXPECT_DOUBLE_EQ(r1.best_error, 0.0);
  EXPECT_EQ(space.pointKey(r1.best), "l2.latency=14,l2.banks=8");

  // A mixture lands between the two minima.
  WeightedSumObjective mix(&multi, {1.0, 1.0});
  const TuneResult rm =
      CoordinateDescentTuner(space, &mix, opts).run({0, 0});
  const Config best = space.overrides(rm.best);
  const double lat = best.getDouble("l2.latency").value_or(0.0);
  EXPECT_GT(lat, 2.0);
  EXPECT_LT(lat, 14.0);
}

TEST(WeightedSumObjectiveTest, RejectsInvalidWeights) {
  TwoBowlObjective multi;
  EXPECT_THROW(WeightedSumObjective(&multi, {1.0}), std::invalid_argument);
  EXPECT_THROW(WeightedSumObjective(&multi, {1.0, -0.5}),
               std::invalid_argument);
  EXPECT_THROW(WeightedSumObjective(&multi, {0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bridge
