#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tune/objective.h"

namespace bridge {
namespace {

namespace fs = std::filesystem;

// Synthetic objective: sum of squared distances of each knob value from a
// target — a convex bowl the tuner must descend. Counts objective calls so
// tests can tell fresh evaluations from ledger replays.
class QuadraticObjective : public Objective {
 public:
  QuadraticObjective(std::vector<std::pair<std::string, double>> targets)
      : targets_(std::move(targets)) {}

  double score(const Config& overrides) override {
    ++calls_;
    double err = 0.0;
    for (const auto& [key, target] : targets_) {
      const double v = overrides.getDouble(key).value_or(0.0);
      err += (v - target) * (v - target);
    }
    return err;
  }

  int calls() const { return calls_; }

 private:
  std::vector<std::pair<std::string, double>> targets_;
  int calls_ = 0;
};

ParamSpace smallSpace() {
  ParamSpace s;
  s.addLinear("l2.latency", 2, 32, 2);       // 16 values, target 14
  s.addPow2("l2.banks", 1, 8);               // 4 values, target 4
  s.addPow2("bus.width_bits", 64, 256);      // 3 values, target 128
  return s;
}

QuadraticObjective smallObjective() {
  return QuadraticObjective(
      {{"l2.latency", 14.0}, {"l2.banks", 4.0}, {"bus.width_bits", 128.0}});
}

std::string trajectoryString(const TuneResult& r, const ParamSpace& s) {
  std::ostringstream os;
  for (const TuneEval& e : r.trajectory) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", e.error);
    os << s.pointKey(e.point) << " -> " << buf << "\n";
  }
  return os.str();
}

std::string checkpointPath(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("bridge-tune-" + std::string(tag));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return (dir / "checkpoint.json").string();
}

TEST(CoordinateDescentTest, ConvergesOnQuadratic) {
  const ParamSpace space = smallSpace();
  QuadraticObjective obj = smallObjective();
  TuneOptions opts;
  opts.budget = 100;
  CoordinateDescentTuner tuner(space, &obj, opts);
  const TuneResult r = tuner.run({0, 0, 0});  // far corner
  EXPECT_EQ(r.stop_reason, "converged");
  EXPECT_DOUBLE_EQ(r.best_error, 0.0);
  EXPECT_EQ(space.pointKey(r.best),
            "l2.latency=14,l2.banks=4,bus.width_bits=128");
  EXPECT_EQ(r.evaluations, r.trajectory.size());
  EXPECT_EQ(static_cast<int>(r.objective_calls), obj.calls());
}

TEST(AnnealingTest, ImprovesOnQuadraticAndIsSeedDeterministic) {
  const ParamSpace space = smallSpace();
  TuneOptions opts;
  opts.budget = 60;
  opts.seed = 42;

  QuadraticObjective a = smallObjective();
  const TuneResult ra = AnnealingTuner(space, &a, opts).run({0, 0, 0});
  QuadraticObjective b = smallObjective();
  const TuneResult rb = AnnealingTuner(space, &b, opts).run({0, 0, 0});

  EXPECT_EQ(trajectoryString(ra, space), trajectoryString(rb, space));
  const double start_error = ra.trajectory.front().error;
  EXPECT_LT(ra.best_error, start_error);
  EXPECT_LE(ra.best_error, 16.0);  // within two latency steps of the bowl

  // A different seed explores a different path.
  TuneOptions other = opts;
  other.seed = 43;
  QuadraticObjective c = smallObjective();
  const TuneResult rc = AnnealingTuner(space, &c, other).run({0, 0, 0});
  EXPECT_NE(trajectoryString(ra, space), trajectoryString(rc, space));
}

TEST(RandomSearchTest, StopsWhenSpaceIsExhausted) {
  ParamSpace space;
  space.addPow2("l2.banks", 1, 4);  // 3 points
  QuadraticObjective obj({{"l2.banks", 2.0}});
  TuneOptions opts;
  opts.budget = 50;
  RandomSearchTuner tuner(space, &obj, opts);
  const TuneResult r = tuner.run({0});
  EXPECT_EQ(r.evaluations, 3u);  // every distinct point exactly once
  EXPECT_EQ(r.stop_reason, "converged");
  EXPECT_DOUBLE_EQ(r.best_error, 0.0);
}

TEST(TunerTest, BudgetIsEnforced) {
  const ParamSpace space = smallSpace();
  QuadraticObjective obj = smallObjective();
  TuneOptions opts;
  opts.budget = 5;
  CoordinateDescentTuner tuner(space, &obj, opts);
  const TuneResult r = tuner.run({0, 0, 0});
  EXPECT_EQ(r.evaluations, 5u);
  EXPECT_EQ(obj.calls(), 5);
  EXPECT_EQ(r.stop_reason, "budget");
}

TEST(TunerTest, StagnationStopsEarly) {
  ParamSpace space;
  space.addLinear("l2.latency", 1, 64, 1);
  QuadraticObjective obj({{"l2.latency", 0.0}});  // start is already best
  TuneOptions opts;
  opts.budget = 1000;
  opts.stagnation = 7;
  opts.seed = 3;
  RandomSearchTuner tuner(space, &obj, opts);
  const TuneResult r = tuner.run({0});
  // 1 improving start + 7 consecutive non-improving evaluations.
  EXPECT_EQ(r.evaluations, 8u);
  EXPECT_EQ(r.stop_reason, "stagnation");
}

TEST(TunerTest, RevisitsAreFree) {
  const ParamSpace space = smallSpace();
  QuadraticObjective obj = smallObjective();
  TuneOptions opts;
  opts.budget = 100;
  CoordinateDescentTuner tuner(space, &obj, opts);
  const TuneResult r = tuner.run({0, 0, 0});
  // Coordinate descent backtracks constantly; every distinct point must be
  // scored exactly once.
  EXPECT_EQ(static_cast<int>(r.evaluations), obj.calls());
}

TEST(TunerCheckpointTest, ResumeReproducesTrajectoryBitIdentically) {
  const ParamSpace space = smallSpace();
  const std::string ckpt = checkpointPath("resume");

  // Uninterrupted reference run (no checkpoint).
  QuadraticObjective ref = smallObjective();
  TuneOptions opts;
  opts.budget = 60;
  const TuneResult full = CoordinateDescentTuner(space, &ref, opts).run({0, 0, 0});

  // Interrupted run: stop after 7 evaluations, checkpointing as we go.
  QuadraticObjective first = smallObjective();
  TuneOptions interrupted = opts;
  interrupted.budget = 7;
  interrupted.checkpoint = ckpt;
  const TuneResult partial =
      CoordinateDescentTuner(space, &first, interrupted).run({0, 0, 0});
  EXPECT_EQ(partial.evaluations, 7u);
  EXPECT_EQ(first.calls(), 7);

  // Resume with the full budget: the replayed prefix plus the continuation
  // must equal the uninterrupted run, bit for bit, and the objective must
  // only be called for the work the interrupted run never did.
  QuadraticObjective second = smallObjective();
  TuneOptions resumed = opts;
  resumed.checkpoint = ckpt;
  const TuneResult cont =
      CoordinateDescentTuner(space, &second, resumed).run({0, 0, 0});
  EXPECT_EQ(trajectoryString(cont, space), trajectoryString(full, space));
  EXPECT_EQ(cont.best_error, full.best_error);
  EXPECT_EQ(space.pointKey(cont.best), space.pointKey(full.best));
  EXPECT_EQ(second.calls(), static_cast<int>(full.objective_calls) - 7);
}

TEST(SeedProbesTest, FixedSeedYieldsBitIdenticalTrajectory) {
  const ParamSpace space = smallSpace();
  TuneOptions opts;
  opts.budget = 40;
  opts.seed = 17;
  opts.seed_probes = 6;

  QuadraticObjective a = smallObjective();
  const TuneResult ra = CoordinateDescentTuner(space, &a, opts).run({0, 0, 0});
  QuadraticObjective b = smallObjective();
  const TuneResult rb = CoordinateDescentTuner(space, &b, opts).run({0, 0, 0});
  EXPECT_EQ(trajectoryString(ra, space), trajectoryString(rb, space));
  EXPECT_DOUBLE_EQ(ra.best_error, 0.0);  // still descends to the bowl

  // A different seed probes different points.
  TuneOptions other = opts;
  other.seed = 18;
  QuadraticObjective c = smallObjective();
  const TuneResult rc =
      CoordinateDescentTuner(space, &c, other).run({0, 0, 0});
  EXPECT_NE(trajectoryString(ra, space), trajectoryString(rc, space));
}

TEST(SeedProbesTest, ProbesConsumeBudget) {
  const ParamSpace space = smallSpace();
  QuadraticObjective obj = smallObjective();
  TuneOptions opts;
  opts.budget = 5;  // 1 start + at most 4 distinct probes
  opts.seed_probes = 10;
  CoordinateDescentTuner tuner(space, &obj, opts);
  const TuneResult r = tuner.run({0, 0, 0});
  EXPECT_EQ(r.evaluations, 5u);
  EXPECT_EQ(r.stop_reason, "budget");
}

TEST(SeedProbesTest, ProbeCountIsPartOfTheCheckpointIdentity) {
  const ParamSpace space = smallSpace();
  const std::string ckpt = checkpointPath("seed-probes");
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 6;
    opts.seed_probes = 3;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner(space, &obj, opts).run({0, 0, 0});
  }
  // Resuming with a different probe count would replay a different
  // trajectory; it must be rejected, not silently diverge.
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 6;
    opts.seed_probes = 4;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0, 0}), std::runtime_error);
  }
  // The matching probe count resumes cleanly.
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 12;
    opts.seed_probes = 3;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner tuner(space, &obj, opts);
    const TuneResult r = tuner.run({0, 0, 0});
    EXPECT_EQ(obj.calls(), static_cast<int>(r.objective_calls));
    EXPECT_GE(r.evaluations, 6u);
  }
}

TEST(TunerCheckpointTest, MismatchedCheckpointIsRejected) {
  const ParamSpace space = smallSpace();
  const std::string ckpt = checkpointPath("mismatch");
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 5;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner(space, &obj, opts).run({0, 0, 0});
  }
  // Different strategy.
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 5;
    opts.checkpoint = ckpt;
    AnnealingTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0, 0}), std::runtime_error);
  }
  // Different space.
  {
    ParamSpace other;
    other.addPow2("l2.banks", 1, 8);
    QuadraticObjective obj({{"l2.banks", 4.0}});
    TuneOptions opts;
    opts.budget = 5;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner tuner(other, &obj, opts);
    EXPECT_THROW(tuner.run({0}), std::runtime_error);
  }
  // Corrupt file.
  {
    std::ofstream out(ckpt, std::ios::trunc);
    out << "{ not json";
  }
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 5;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner tuner(space, &obj, opts);
    EXPECT_THROW(tuner.run({0, 0, 0}), std::runtime_error);
  }
}

TEST(TunerCheckpointTest, ProgressCallbackSeesReplayedAndFreshEvals) {
  const ParamSpace space = smallSpace();
  const std::string ckpt = checkpointPath("callback");
  {
    QuadraticObjective obj = smallObjective();
    TuneOptions opts;
    opts.budget = 4;
    opts.checkpoint = ckpt;
    CoordinateDescentTuner(space, &obj, opts).run({0, 0, 0});
  }
  QuadraticObjective obj = smallObjective();
  TuneOptions opts;
  opts.budget = 8;
  opts.checkpoint = ckpt;
  int replayed = 0, fresh = 0;
  opts.on_eval = [&](std::size_t, const TuneEval&, bool, bool is_fresh) {
    (is_fresh ? fresh : replayed)++;
  };
  CoordinateDescentTuner(space, &obj, opts).run({0, 0, 0});
  EXPECT_EQ(replayed, 4);
  EXPECT_EQ(fresh, 4);
}

// The tuner's concurrent evaluation path: one FidelityObjective evaluation
// fans probe kernels across SweepEngine workers. The trajectory must be
// independent of the worker count (this is the test the TSan smoke job
// exercises under -DBRIDGE_SANITIZE=thread).
TEST(TunerFidelityTest, TrajectoryIsWorkerCountInvariant) {
  ParamSpace space;
  space.addPow2("l2.banks", 1, 4).addPow2("bus.width_bits", 64, 128);

  auto runWith = [&](unsigned workers) {
    FidelityOptions fopts;
    fopts.model = PlatformId::kRocket1;
    fopts.reference = PlatformId::kBananaPiHw;
    fopts.kernels = {"ED1", "ML2", "MM"};
    fopts.scale = 0.05;
    SweepOptions sweep;
    sweep.workers = workers;
    sweep.use_cache = false;  // force real concurrent simulation
    FidelityObjective objective(fopts, sweep);
    TuneOptions opts;
    opts.budget = 6;
    CoordinateDescentTuner tuner(space, &objective, opts);
    return tuner.run({0, 0});
  };

  const TuneResult serial = runWith(1);
  const TuneResult parallel = runWith(4);
  EXPECT_EQ(trajectoryString(serial, space), trajectoryString(parallel, space));
  EXPECT_EQ(serial.best_error, parallel.best_error);
  EXPECT_GT(serial.best_error, 0.0);  // a real model never matches exactly
}

// Fidelity error must actually reward the paper's tuning steps: the
// hand-built BananaPiSim model scores better than the untuned Rocket1.
TEST(TunerFidelityTest, HandBuiltModelBeatsBase) {
  FidelityOptions fopts;
  fopts.model = PlatformId::kRocket1;
  fopts.reference = PlatformId::kBananaPiHw;
  fopts.kernels = {"DP1d", "ML2", "MC"};
  fopts.scale = 0.05;
  SweepOptions sweep;
  sweep.workers = 2;
  sweep.use_cache = false;
  FidelityObjective objective(fopts, sweep);
  const FidelityEval base = objective.evaluate({});
  const FidelityEval tuned = objective.evaluateOn(PlatformId::kBananaPiSim, {});
  EXPECT_LT(tuned.error, base.error);
  for (const KernelFidelity& k : tuned.kernels) {
    EXPECT_GT(k.rel, 0.0);
    EXPECT_LT(k.rel, 1.5);
  }
}

TEST(TunerFidelityTest, RejectsUnknownProbeKernel) {
  FidelityOptions fopts;
  fopts.kernels = {"NotAKernel"};
  EXPECT_THROW(FidelityObjective objective(fopts), std::out_of_range);
}

}  // namespace
}  // namespace bridge
