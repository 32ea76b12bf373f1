#include "cache/cache.h"

#include <gtest/gtest.h>

namespace bridge {
namespace {

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache c({64, 8});
  EXPECT_FALSE(c.probe(0x1000));
  const CacheAccess miss = c.access(0x1000, false);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(c.probe(0x1000));
  const CacheAccess hit = c.access(0x1000, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, SameLineDifferentOffsetsHit) {
  SetAssocCache c({64, 8});
  c.access(0x1000, false);
  EXPECT_TRUE(c.access(0x1030, false).hit);
  EXPECT_TRUE(c.access(0x103F, false).hit);
}

TEST(SetAssocCache, LruEvictionOrder) {
  SetAssocCache c({1, 2});  // 2 lines total
  c.access(0x0, false);
  c.access(0x40, false);
  c.access(0x0, false);    // touch 0x0 -> 0x40 is LRU
  c.access(0x80, false);   // evicts 0x40
  EXPECT_TRUE(c.probe(0x0));
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_TRUE(c.probe(0x80));
}

TEST(SetAssocCache, DirtyVictimReportsWriteback) {
  SetAssocCache c({1, 1});
  c.access(0x1000, /*is_store=*/true);
  const CacheAccess a = c.access(0x2000, false);
  EXPECT_TRUE(a.writeback);
  EXPECT_EQ(a.victim_line, 0x1000u);
}

TEST(SetAssocCache, CleanVictimNoWriteback) {
  SetAssocCache c({1, 1});
  c.access(0x1000, /*is_store=*/false);
  const CacheAccess a = c.access(0x2000, false);
  EXPECT_FALSE(a.writeback);
}

TEST(SetAssocCache, VictimLineAddressReconstruction) {
  SetAssocCache c({64, 1});
  const Addr victim = 0x4000'1040;  // arbitrary set/tag
  c.access(victim, true);
  // Another line in the same set: set index = (0x1040 >> 6) & 63.
  const Addr attacker = victim + 64ull * 64 * 1024;  // same set, new tag
  const CacheAccess a = c.access(attacker, false);
  ASSERT_TRUE(a.writeback);
  EXPECT_EQ(a.victim_line, lineAddr(victim));
}

TEST(SetAssocCache, StoreMarksDirtyOnHitToo) {
  SetAssocCache c({1, 1});
  c.access(0x1000, false);
  c.access(0x1000, true);  // hit, makes dirty
  const CacheAccess a = c.access(0x2000, false);
  EXPECT_TRUE(a.writeback);
}

TEST(SetAssocCache, FillCarriesReadyTime) {
  SetAssocCache c({64, 8});
  c.fill(0x1000, false, /*ready=*/500);
  EXPECT_EQ(c.touch(0x1000, false), 500u);
}

TEST(SetAssocCache, RefillKeepsEarlierReady) {
  SetAssocCache c({64, 8});
  c.fill(0x1000, false, 500);
  const CacheAccess again = c.fill(0x1000, true, 900);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(again.ready_at, 500u);
}

TEST(SetAssocCache, InvalidateReportsDirtiness) {
  SetAssocCache c({64, 8});
  c.access(0x1000, true);
  c.access(0x2000, false);
  EXPECT_TRUE(c.invalidate(0x1000));
  EXPECT_FALSE(c.invalidate(0x2000));
  EXPECT_FALSE(c.invalidate(0x3000));
  EXPECT_FALSE(c.probe(0x1000));
}

TEST(SetAssocCache, GeometrySizeBytes) {
  CacheGeometry g{64, 8};
  EXPECT_EQ(g.sizeBytes(), 32u * 1024);  // the Rocket L1
  CacheGeometry big{16384, 16};
  EXPECT_EQ(big.sizeBytes(), 16u * 1024 * 1024);  // one LLC slice
}

TEST(SetAssocCache, ConflictStrideThrashesSingleSet) {
  // 64 sets x 8 ways: 8 KiB stride maps everything to set 0.
  SetAssocCache c({64, 8});
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      c.access(static_cast<Addr>(i) * 8192, false);
    }
  }
  // 16 lines in an 8-way set: steady-state misses (LRU worst case).
  EXPECT_GT(c.missRate(), 0.9);
}

}  // namespace
}  // namespace bridge
