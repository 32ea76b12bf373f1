#include "tune/param_space.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "platforms/platforms.h"
#include "sweep/job.h"

namespace bridge {
namespace {

TEST(ParamSpaceTest, AddPow2ExpandsInclusiveRange) {
  ParamSpace s;
  s.addPow2("l2.banks", 1, 8);
  ASSERT_EQ(s.dims(), 1u);
  EXPECT_EQ(s.dim(0).values, (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(ParamSpaceTest, AddLinearStopsAtUpperBound) {
  ParamSpace s;
  s.addLinear("ooo.rob", 64, 200, 32);
  EXPECT_EQ(s.dim(0).values, (std::vector<std::int64_t>{64, 96, 128, 160, 192}));
}

TEST(ParamSpaceTest, RejectsBadDimensions) {
  ParamSpace s;
  EXPECT_THROW(s.add("x", {}), std::invalid_argument);
  EXPECT_THROW(s.add("x", {4, 2}), std::invalid_argument);
  EXPECT_THROW(s.add("x", {2, 2}), std::invalid_argument);
  EXPECT_THROW(s.addPow2("x", 3, 8), std::invalid_argument);
  EXPECT_THROW(s.addLinear("x", 8, 4, 1), std::invalid_argument);
}

TEST(ParamSpaceTest, CardinalityAndValidity) {
  ParamSpace s;
  s.addPow2("l2.banks", 1, 8).addPow2("bus.width_bits", 64, 256);
  EXPECT_EQ(s.cardinality(), 12u);
  EXPECT_TRUE(s.valid({0, 0}));
  EXPECT_TRUE(s.valid({3, 2}));
  EXPECT_FALSE(s.valid({4, 0}));  // index out of range
  EXPECT_FALSE(s.valid({0}));     // wrong arity
}

TEST(ParamSpaceTest, StepMovesOneIndexAndRespectsBounds) {
  ParamSpace s;
  s.addPow2("l2.banks", 1, 8);
  ParamPoint p{0};
  EXPECT_FALSE(s.step(&p, 0, -1));
  EXPECT_EQ(p, (ParamPoint{0}));
  EXPECT_TRUE(s.step(&p, 0, +1));
  EXPECT_EQ(p, (ParamPoint{1}));
  p = {3};
  EXPECT_FALSE(s.step(&p, 0, +1));
  EXPECT_TRUE(s.step(&p, 0, -1));
  EXPECT_EQ(p, (ParamPoint{2}));
}

TEST(ParamSpaceTest, OverridesAndPointKeyAreCanonical) {
  ParamSpace s;
  s.addPow2("l2.banks", 1, 8).addPow2("bus.width_bits", 64, 256);
  const ParamPoint p{2, 1};
  EXPECT_EQ(s.pointKey(p), "l2.banks=4,bus.width_bits=128");
  const Config cfg = s.overrides(p);
  EXPECT_EQ(cfg.getInt("l2.banks").value_or(0), 4);
  EXPECT_EQ(cfg.getInt("bus.width_bits").value_or(0), 128);

  // The overrides must be applicable to a SocConfig (keys are real knobs).
  SocConfig soc = makePlatform(PlatformId::kRocket1, 1);
  applySocOverrides(&soc, cfg);
  EXPECT_EQ(soc.mem.l2.banks, 4u);
  EXPECT_EQ(soc.mem.bus.width_bits, 128u);
}

TEST(ParamSpaceTest, StartPointProjectsPlatformValues) {
  const ParamSpace s = rocketMemorySpace();
  const SocConfig rocket1 = makePlatform(PlatformId::kRocket1, 1);
  const ParamPoint p = s.startPoint(rocket1);
  ASSERT_TRUE(s.valid(p));
  // Every dimension lands on the value closest to the platform's own.
  for (std::size_t i = 0; i < s.dims(); ++i) {
    const auto current =
        static_cast<std::int64_t>(socConfigKnobValue(rocket1, s.dim(i).key));
    for (const std::int64_t v : s.dim(i).values) {
      EXPECT_LE(std::abs(s.dim(i).values[p[i]] - current),
                std::abs(v - current));
    }
  }
  // Rocket1 concretely: 1 L2 bank, 64-bit bus, 4 L1D MSHRs.
  EXPECT_EQ(s.dim(0).values[p[0]], 1);
  EXPECT_EQ(s.dim(1).values[p[1]], 64);
  EXPECT_EQ(s.dim(2).values[p[2]], 4);
}

TEST(ParamSpaceTest, StartPointThrowsOnUnknownKey) {
  ParamSpace s;
  s.add("no.such.knob", {1, 2});
  EXPECT_THROW(s.startPoint(makePlatform(PlatformId::kRocket1, 1)),
               std::invalid_argument);
}

TEST(ParamSpaceTest, SignatureChangesWithValues) {
  ParamSpace a;
  a.addPow2("l2.banks", 1, 8);
  ParamSpace b;
  b.addPow2("l2.banks", 1, 4);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(ParamSpaceTest, RandomPointIsInRangeAndSeeded) {
  const ParamSpace s = rocketMemorySpace();
  Xorshift64Star rng1(7), rng2(7);
  for (int i = 0; i < 100; ++i) {
    const ParamPoint p = s.randomPoint(&rng1);
    EXPECT_TRUE(s.valid(p));
    EXPECT_EQ(p, s.randomPoint(&rng2));
  }
}

TEST(ParamSpaceTest, KnobValueReadsResolvedConfig) {
  const SocConfig banana = makePlatform(PlatformId::kBananaPiSim, 1);
  EXPECT_EQ(socConfigKnobValue(banana, "l2.banks"), 4u);
  EXPECT_EQ(socConfigKnobValue(banana, "bus.width_bits"), 128u);
  EXPECT_THROW(socConfigKnobValue(banana, "nope"), std::invalid_argument);
}

}  // namespace
}  // namespace bridge
