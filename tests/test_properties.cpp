// Property-based tests: invariants that must hold across parameter sweeps,
// expressed with parameterized gtest suites.
#include <gtest/gtest.h>

#include <set>

#include "cache/cache.h"
#include "core/inorder.h"
#include "core/ooo.h"
#include "dram/controller.h"
#include "dram/timings.h"
#include "sim/rng.h"
#include "trace/kernel.h"

namespace bridge {
namespace {

// ---------------------------------------------------------------------
// Cache invariants over random geometries and access streams.
// ---------------------------------------------------------------------

struct CacheGeomCase {
  unsigned sets;
  unsigned ways;
};

// Printed as "<sets>x<ways>"; ctest names the instances by it.
void PrintTo(const CacheGeomCase& c, std::ostream* os) {
  *os << c.sets << 'x' << c.ways;
}

class CacheProperty : public ::testing::TestWithParam<CacheGeomCase> {};

TEST_P(CacheProperty, OccupancyNeverExceedsCapacityAndRefsAreStable) {
  const CacheGeomCase geom = GetParam();
  SetAssocCache c({geom.sets, geom.ways});
  Xorshift64Star rng(geom.sets * 131 + geom.ways);

  std::set<Addr> resident;
  for (int i = 0; i < 20000; ++i) {
    const Addr line = rng.nextBelow(4 * geom.sets * geom.ways) * kLineBytes;
    const bool store = rng.nextBool(0.3);
    const bool was_present = c.probe(line);
    const CacheAccess a = c.access(line, store);
    EXPECT_EQ(a.hit, was_present);
    EXPECT_TRUE(c.probe(line));  // access installs
    resident.insert(lineAddr(line));
    if (a.writeback) {
      // A victim must have been resident previously and distinct.
      EXPECT_NE(a.victim_line, lineAddr(line));
      EXPECT_FALSE(c.probe(a.victim_line));
    }
  }
  // Count resident lines by probing: cannot exceed capacity.
  std::size_t count = 0;
  for (const Addr line : resident) {
    if (c.probe(line)) ++count;
  }
  EXPECT_LE(count, std::size_t{geom.sets} * geom.ways);
}

TEST_P(CacheProperty, HitPlusMissEqualsAccesses) {
  const CacheGeomCase geom = GetParam();
  SetAssocCache c({geom.sets, geom.ways});
  Xorshift64Star rng(99);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    c.access(rng.nextBelow(1 << 16), false);
  }
  EXPECT_EQ(c.hits() + c.misses(), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(CacheGeomCase{1, 1}, CacheGeomCase{1, 8},
                      CacheGeomCase{16, 2}, CacheGeomCase{64, 8},
                      CacheGeomCase{256, 4}, CacheGeomCase{1024, 16}));

// ---------------------------------------------------------------------
// DRAM: completion monotonicity and bandwidth ceiling across presets.
// ---------------------------------------------------------------------

}  // namespace

// Printed as the preset's name; ctest names the instances by it. Outside the
// anonymous namespace so argument-dependent lookup finds it for DramTimings.
void PrintTo(const DramTimings& t, std::ostream* os) { *os << t.name; }

namespace {

class DramProperty
    : public ::testing::TestWithParam<DramTimings> {};

TEST_P(DramProperty, CompletionAfterArrivalAndDeterministic) {
  DramController a(GetParam(), 2.0);
  DramController b(GetParam(), 2.0);
  Xorshift64Star rng(5);
  Cycle t = 0;
  for (int i = 0; i < 2000; ++i) {
    const Addr line = rng.nextBelow(1 << 20) * kLineBytes;
    const bool write = rng.nextBool(0.3);
    t += rng.nextBelow(20);
    const Cycle ca = write ? a.write(line, t) : a.read(line, t);
    const Cycle cb = write ? b.write(line, t) : b.read(line, t);
    EXPECT_GT(ca, t);
    EXPECT_EQ(ca, cb);  // determinism
  }
}

TEST_P(DramProperty, BusUtilizationBounded) {
  DramController c(GetParam(), 2.0);
  Xorshift64Star rng(11);
  Cycle t = 0;
  Cycle last = 0;
  for (int i = 0; i < 5000; ++i) {
    last = c.read(rng.nextBelow(1 << 18) * kLineBytes, t);
    ++t;
  }
  EXPECT_LE(c.busUtilization(last), 1.0);
  EXPECT_GT(c.busUtilization(last), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Presets, DramProperty,
                         ::testing::Values(ddr3_2000_quadrank(), ddr4_3200(),
                                           lpddr4_2666(),
                                           fixedLatency(50.0)));

// ---------------------------------------------------------------------
// Cores: IPC bounds and monotonicity in resources.
// ---------------------------------------------------------------------

MemSysParams propMem() {
  MemSysParams p;
  p.l1i = {64, 8, 1, 1};
  p.l1d = {64, 8, 2, 4};
  p.l2 = {1024, 8, 14, 2, 2, 8};
  p.bus = {128, 1};
  p.dram = fixedLatency(80.0);
  p.dram_channels = 1;
  p.freq_ghz = 1.0;
  return p;
}

TraceSourcePtr mixedTrace(std::uint64_t seed, std::uint64_t iters) {
  KernelBuilder b("mixed");
  const int ld = b.addrGen(
      std::make_unique<RandomGen>(0x100000, 1 << 18, 8, seed));
  const int st = b.addrGen(
      std::make_unique<StrideGen>(0x400000, 8, 1 << 16));
  const int br = b.branchGen(std::make_unique<RandomBranchGen>(0.7, seed));
  b.segment(iters)
      .add(load(intReg(5), ld))
      .add(alu(intReg(6), intReg(5)))
      .add(fma(fpReg(1), fpReg(1), fpReg(2), fpReg(3)))
      .add(store(st, intReg(6)))
      .add(branch(br, intReg(6)));
  return b.build();
}

class OooWidthProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(OooWidthProperty, IpcNeverExceedsDecodeWidth) {
  OooParams p = largeBoomParams();
  p.decode_width = GetParam();
  StatRegistry stats;
  MemoryHierarchy mem(1, propMem(), &stats);
  OooCore core(0, p, &mem, &stats, "c");
  auto t = mixedTrace(3, 4000);
  MicroOp op;
  while (t->next(&op)) core.consume(op);
  core.drain();
  EXPECT_LE(core.ipc(), static_cast<double>(p.decode_width) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, OooWidthProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

class RobSizeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RobSizeProperty, BiggerRobNeverSlowerOnIndependentMisses) {
  auto run = [](unsigned rob) {
    OooParams p = largeBoomParams();
    p.rob = rob;
    StatRegistry stats;
    MemoryHierarchy mem(1, propMem(), &stats);
    OooCore core(0, p, &mem, &stats, "c");
    MicroOp ld;
    ld.cls = OpClass::kLoad;
    ld.pc = 0x400;
    ld.mem_size = 8;
    for (int i = 0; i < 1500; ++i) {
      ld.dst = intReg(5 + (i % 16));
      ld.addr = 0x100000 + static_cast<Addr>(i) * 4096;
      core.consume(ld);
    }
    return core.drain();
  };
  const unsigned rob = GetParam();
  EXPECT_LE(run(rob * 2), run(rob) + 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RobSizeProperty,
                         ::testing::Values(8u, 16u, 32u, 64u));

class InOrderWidthProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(InOrderWidthProperty, IpcBoundedByIssueWidth) {
  InOrderParams p;
  p.issue_width = GetParam();
  StatRegistry stats;
  MemoryHierarchy mem(1, propMem(), &stats);
  InOrderCore core(0, p, &mem, &stats, "c");
  auto t = mixedTrace(17, 4000);
  MicroOp op;
  while (t->next(&op)) core.consume(op);
  core.drain();
  EXPECT_LE(core.ipc(), static_cast<double>(p.issue_width) + 1e-9);
  EXPECT_GT(core.ipc(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Widths, InOrderWidthProperty,
                         ::testing::Values(1u, 2u));

// Core local clocks never move backward while consuming any stream.
TEST(CoreMonotonicity, ClocksNeverRegress) {
  StatRegistry stats;
  MemoryHierarchy mem(2, propMem(), &stats);
  InOrderCore in(0, InOrderParams{}, &mem, &stats, "in");
  OooCore ooo(1, largeBoomParams(), &mem, &stats, "ooo");
  auto t1 = mixedTrace(23, 3000);
  auto t2 = mixedTrace(29, 3000);
  MicroOp op;
  Cycle prev_in = 0, prev_ooo = 0;
  while (t1->next(&op)) {
    in.consume(op);
    EXPECT_GE(in.now(), prev_in);
    prev_in = in.now();
  }
  while (t2->next(&op)) {
    ooo.consume(op);
    EXPECT_GE(ooo.now(), prev_ooo);
    prev_ooo = ooo.now();
  }
}

}  // namespace
}  // namespace bridge
