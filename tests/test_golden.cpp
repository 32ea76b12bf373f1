// Golden-figure regression harness (`ctest -L golden`): every paper figure
// is recomputed at a pinned reduced scale and compared point-by-point
// against the checked-in snapshots under tests/golden/. The sweep cache is
// bypassed so a timing-model change that forgot to bump kSimulatorVersion
// still fails here instead of being masked by stale cached seconds.
//
// After a *deliberate* model change, regenerate the snapshots and commit
// them alongside the change:
//
//   $ ./bridge_golden_tests --regen
//
// The golden directory defaults to the source tree's tests/golden
// (BRIDGE_GOLDEN_DIR compile definition); the environment variable of the
// same name overrides it, which the regen path and CI both use.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/figures.h"
#include "harness/variability.h"
#include "tune/npb_objective.h"

namespace bridge {
namespace {

// Reduced but fixed scale: large enough that every kernel takes a
// non-degenerate path through the timing model, small enough that the
// whole suite recomputes in seconds.
constexpr double kGoldenScale = 0.03;

// Figures are deterministic, so snapshots match to the last bit on the
// machine that wrote them; the loose-ish tolerance only forgives
// libm/architecture drift across hosts while still catching any real
// model change (the negative test injects 5% and must fail at 1e-6).
constexpr double kGoldenRelTol = 1e-6;

SweepOptions goldenSweep() {
  SweepOptions sweep;
  sweep.use_cache = false;  // never trust cached seconds for a regression
  return sweep;
}

// The variability-spread study at golden scale: a lively spec (short
// intervals, low thermal threshold, frequent noise) so every axis shows
// nonzero spread even on the small pinned runs, over two probe kernels
// with opposite memory behaviour. The study is a pure function of this
// spec — seeded replicas, pinned placements — which is what lets a
// *stochastic-looking* figure be a golden snapshot at all.
VariabilityStudyOptions goldenVariability() {
  VariabilityStudyOptions options;
  options.kernels = {"MM", "ED1"};
  options.platforms = {PlatformId::kBananaPiHw};
  options.scale = kGoldenScale;
  options.seed = 5;
  options.replicas = 3;
  options.placements = 3;
  options.hwvar.enabled = true;
  options.hwvar.seed = 5;
  options.hwvar.interval_ops = 600;
  options.hwvar.levels = 4;
  options.hwvar.min_freq_pct = 60;
  options.hwvar.dvfs_shift_pm = 400;
  options.hwvar.dvfs_latency_cycles = 300;
  options.hwvar.therm_heat_pm = 400;
  options.hwvar.therm_cool_pm = 300;
  options.hwvar.therm_threshold = 2000;
  options.hwvar.tick_ops = 300;
  options.hwvar.tick_cycles = 150;
  options.hwvar.preempt_pm = 200;
  options.hwvar.preempt_cycles = 5000;
  return options;
}

struct GoldenCase {
  const char* file;  // snapshot filename under the golden directory
  Figure (*compute)();
};

// Printed as its snapshot filename, so ctest's name for each instance is the
// same on every build instead of a dump of the two pointers.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.file; }

const GoldenCase kGoldenCases[] = {
    {"fig1.json", [] { return computeFig1(kGoldenScale, goldenSweep()); }},
    {"fig2.json", [] { return computeFig2(kGoldenScale, goldenSweep()); }},
    {"fig3_r1.json",
     [] { return computeFig3(1, kGoldenScale, goldenSweep()); }},
    {"fig3_r4.json",
     [] { return computeFig3(4, kGoldenScale, goldenSweep()); }},
    {"fig4a.json", [] { return computeFig4a(kGoldenScale, goldenSweep()); }},
    {"fig4b.json", [] { return computeFig4b(kGoldenScale, goldenSweep()); }},
    {"fig5.json", [] { return computeFig5(kGoldenScale, goldenSweep()); }},
    {"fig6.json", [] { return computeFig6(kGoldenScale, goldenSweep()); }},
    {"fig7.json", [] { return computeFig7(kGoldenScale, goldenSweep()); }},
    // The NPB objective's error-vector table: objective-definition drift
    // (component order, side averaging, reference extraction) is caught
    // here exactly like timing-model drift in the figures. The 12^3 MG
    // grid keeps the recompute fast; the cache is bypassed like the rest.
    {"npb_errors.json",
     [] {
       NpbObjectiveOptions opts;
       opts.run.scale = kGoldenScale;
       opts.run.mg_top = 12;
       return npbErrorFigure(opts, goldenSweep());
     }},
    // Variability-spread table (DESIGN §5j): seeded replicas and pinned
    // placements make the spread statistics a deterministic function of
    // the study spec, so the harness catches drift in the hwvar decision
    // hashes, the HwVarCore interval arithmetic, or the distribution
    // statistics exactly like timing-model drift in the figures.
    {"variability_spread.json",
     [] { return computeVariabilitySpread(goldenVariability(), goldenSweep()); }},
};

std::string goldenDir() {
  if (const char* env = std::getenv("BRIDGE_GOLDEN_DIR")) return env;
  return BRIDGE_GOLDEN_DIR;
}

std::string goldenPath(const char* file) {
  return goldenDir() + "/" + file;
}

bool readFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

class GoldenFigure : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenFigure, MatchesSnapshot) {
  const GoldenCase& c = GetParam();
  std::string json;
  ASSERT_TRUE(readFile(goldenPath(c.file), &json))
      << "missing golden snapshot " << goldenPath(c.file)
      << " — run `bridge_golden_tests --regen` and commit the result";
  Figure golden;
  ASSERT_TRUE(figureFromJson(json, &golden))
      << goldenPath(c.file) << " is not a valid figure snapshot";
  const Figure actual = c.compute();
  std::string diff;
  EXPECT_TRUE(figuresMatch(golden, actual, kGoldenRelTol, &diff))
      << c.file << ": " << diff
      << "\nIf the model change is intentional, regenerate with "
         "`bridge_golden_tests --regen` and commit the snapshots.";
}

INSTANTIATE_TEST_SUITE_P(Figures, GoldenFigure,
                         ::testing::ValuesIn(kGoldenCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           std::string name = info.param.file;
                           return name.substr(0, name.find('.'));
                         });

TEST(GoldenHarness, JsonRoundTripIsExact) {
  Figure fig;
  fig.title = "Figure T \"quoted\"";
  fig.metric = "metric\nwith newline";
  fig.series.push_back(
      {"A", {{"x1", 1.0 / 3.0}, {"x2", 1e-17}, {"x3", 12345.6789012345678}}});
  fig.series.push_back({"empty", {}});
  Figure back;
  ASSERT_TRUE(figureFromJson(figureToJson(fig), &back));
  ASSERT_EQ(back.series.size(), fig.series.size());
  EXPECT_EQ(back.title, fig.title);
  EXPECT_EQ(back.metric, fig.metric);
  for (std::size_t s = 0; s < fig.series.size(); ++s) {
    EXPECT_EQ(back.series[s].label, fig.series[s].label);
    ASSERT_EQ(back.series[s].points.size(), fig.series[s].points.size());
    for (std::size_t p = 0; p < fig.series[s].points.size(); ++p) {
      EXPECT_EQ(back.series[s].points[p].first, fig.series[s].points[p].first);
      // %.17g round-trips doubles exactly — the property the bit-level
      // golden compare relies on.
      EXPECT_EQ(back.series[s].points[p].second,
                fig.series[s].points[p].second);
    }
  }
}

// Negative test: the harness must actually catch regressions. A 5% bump on
// a single point of a real snapshot has to fail the compare and name the
// perturbed point — checked on a figure snapshot and on the variability
// spread table (whose tiny sd/iqr values are exactly where a too-loose
// tolerance would hide drift).
TEST(GoldenHarness, CatchesFivePercentPerturbation) {
  for (const char* file : {"fig1.json", "variability_spread.json"}) {
    std::string json;
    ASSERT_TRUE(readFile(goldenPath(file), &json))
        << "missing " << file << " — run `bridge_golden_tests --regen`";
    Figure golden;
    ASSERT_TRUE(figureFromJson(json, &golden));
    ASSERT_FALSE(golden.series.empty());
    ASSERT_FALSE(golden.series[0].points.empty());

    Figure perturbed = golden;
    auto& victim =
        perturbed.series[0].points[perturbed.series[0].points.size() / 2];
    victim.second *= 1.05;

    std::string diff;
    EXPECT_FALSE(figuresMatch(golden, perturbed, kGoldenRelTol, &diff))
        << file;
    EXPECT_NE(diff.find(victim.first), std::string::npos) << file << ": "
                                                          << diff;

    // And an identical copy passes.
    EXPECT_TRUE(figuresMatch(golden, golden, kGoldenRelTol, nullptr)) << file;
  }
}

// Golden snapshots are produced only by full-fidelity runs: the figure
// harness strips engine-level sampling (with a warning) from whatever
// SweepOptions it is handed, so even a caller who inherited
// BRIDGE_SAMPLING through SweepCli recomputes figures exactly — and the
// recompute matches the checked-in snapshot bit-for-bit.
TEST(GoldenHarness, SamplingIsBypassedWhenComputingFigures) {
  std::string json;
  ASSERT_TRUE(readFile(goldenPath("fig1.json"), &json))
      << "missing fig1.json — run `bridge_golden_tests --regen`";
  Figure golden;
  ASSERT_TRUE(figureFromJson(json, &golden));

  SweepOptions sampled = goldenSweep();
  sampled.sampling.enabled = true;
  sampled.sampling.interval_ops = 2000;
  sampled.sampling.warmup_ops = 100;
  sampled.sampling.measure_ops = 200;
  const Figure via_sampled_options = computeFig1(kGoldenScale, sampled);

  std::string diff;
  EXPECT_TRUE(
      figuresMatch(golden, via_sampled_options, kGoldenRelTol, &diff))
      << "figure computed under sampling-enabled SweepOptions diverged "
         "from the full-fidelity snapshot: "
      << diff;

  // And it is not merely close: it is the same full-fidelity computation.
  const Figure full = computeFig1(kGoldenScale, goldenSweep());
  EXPECT_TRUE(figuresMatch(full, via_sampled_options, 0.0, &diff)) << diff;
}

// Engine-level hardware variability is stripped the same way: paper
// figures model the deterministic machine, so a caller who inherited
// BRIDGE_HWVAR must still recompute the snapshot bit-for-bit. (The
// variability_spread snapshot is unaffected either way — its jobs pin
// their own hwvar.* overrides, which engine-level hwvar never rewrites.)
TEST(GoldenHarness, HwVarIsBypassedWhenComputingFigures) {
  std::string json;
  ASSERT_TRUE(readFile(goldenPath("fig1.json"), &json))
      << "missing fig1.json — run `bridge_golden_tests --regen`";
  Figure golden;
  ASSERT_TRUE(figureFromJson(json, &golden));

  SweepOptions varied = goldenSweep();
  varied.hwvar.enabled = true;
  varied.hwvar.interval_ops = 500;
  varied.hwvar.preempt_pm = 500;
  varied.hwvar.preempt_cycles = 9000;
  varied.hwvar.tick_ops = 200;
  const Figure via_hwvar_options = computeFig1(kGoldenScale, varied);

  std::string diff;
  EXPECT_TRUE(figuresMatch(golden, via_hwvar_options, kGoldenRelTol, &diff))
      << "figure computed under hwvar-enabled SweepOptions diverged from "
         "the deterministic snapshot: "
      << diff;

  const Figure full = computeFig1(kGoldenScale, goldenSweep());
  EXPECT_TRUE(figuresMatch(full, via_hwvar_options, 0.0, &diff)) << diff;
}

TEST(GoldenHarness, ShapeMismatchesAreReported) {
  Figure a;
  a.title = "F";
  a.series.push_back({"S", {{"x", 1.0}}});
  Figure b = a;
  b.series[0].points.emplace_back("y", 2.0);
  std::string diff;
  EXPECT_FALSE(figuresMatch(a, b, 1.0, &diff));
  EXPECT_NE(diff.find("point count"), std::string::npos) << diff;
  b = a;
  b.series[0].label = "other";
  EXPECT_FALSE(figuresMatch(a, b, 1.0, &diff));
  b = a;
  b.title = "G";
  EXPECT_FALSE(figuresMatch(a, b, 1.0, &diff));
}

int regenerate() {
  const std::string dir = goldenDir();
  for (const GoldenCase& c : kGoldenCases) {
    const Figure fig = c.compute();
    const std::string path = dir + "/" + c.file;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    out << figureToJson(fig);
    std::printf("wrote %s (%zu series)\n", path.c_str(), fig.series.size());
  }
  return 0;
}

}  // namespace
}  // namespace bridge

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") return bridge::regenerate();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
