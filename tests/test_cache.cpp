#include "cache/cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"

namespace bridge {
namespace {

// The array of 32-byte Line structs SetAssocCache replaced, kept as the
// reference: the parallel tag/LRU/ready/dirty arrays and the empty-tag
// sentinel must give every call the same answer, victims included.
class LineCache {
 public:
  explicit LineCache(const CacheGeometry& geom)
      : geom_(geom), lines_(std::size_t{geom.sets} * geom.ways) {
    while ((1u << set_shift_) < geom.sets) ++set_shift_;
  }

  bool probe(Addr a) const { return find(lineAddr(a)) != nullptr; }

  bool touchIfPresent(Addr a, bool is_store, Cycle* ready) {
    Line* l = find(lineAddr(a));
    if (l == nullptr) return false;
    l->lru = ++tick_;
    l->dirty = l->dirty || is_store;
    ++hits_;
    *ready = l->ready;
    return true;
  }

  CacheAccess fill(Addr a, bool dirty, Cycle ready) {
    a = lineAddr(a);
    CacheAccess out;
    if (Line* l = find(a)) {
      l->dirty = l->dirty || dirty;
      out.hit = true;
      out.ready_at = l->ready;
      return out;
    }
    ++misses_;
    const std::size_t base = setBase(a);
    Line* victim = nullptr;
    for (unsigned w = 0; w < geom_.ways && victim == nullptr; ++w) {
      if (!lines_[base + w].valid) victim = &lines_[base + w];
    }
    if (victim == nullptr) {
      victim = &lines_[base];
      for (unsigned w = 1; w < geom_.ways; ++w) {
        if (lines_[base + w].lru < victim->lru) victim = &lines_[base + w];
      }
    }
    if (victim->valid && victim->dirty) {
      out.writeback = true;
      out.victim_line =
          ((victim->tag << set_shift_) | (base / geom_.ways)) << kLineShift;
    }
    *victim = Line{(a >> kLineShift) >> set_shift_, ++tick_, ready, true,
                   dirty};
    out.ready_at = ready;
    return out;
  }

  CacheAccess access(Addr a, bool is_store) {
    CacheAccess out;
    if (touchIfPresent(a, is_store, &out.ready_at)) {
      out.hit = true;
      return out;
    }
    return fill(a, is_store, 0);
  }

  bool invalidate(Addr a) {
    Line* l = find(lineAddr(a));
    if (l == nullptr) return false;
    const bool was_dirty = l->dirty;
    l->valid = false;
    l->dirty = false;
    return was_dirty;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    Cycle ready = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::size_t setBase(Addr a) const {
    return ((a >> kLineShift) & (geom_.sets - 1)) * geom_.ways;
  }
  Line* find(Addr a) {
    const std::uint64_t tag = (a >> kLineShift) >> set_shift_;
    for (unsigned w = 0; w < geom_.ways; ++w) {
      Line& l = lines_[setBase(a) + w];
      if (l.valid && l.tag == tag) return &l;
    }
    return nullptr;
  }
  const Line* find(Addr a) const {
    return const_cast<LineCache*>(this)->find(a);
  }

  CacheGeometry geom_;
  unsigned set_shift_ = 0;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

void expectSameAccess(const CacheAccess& got, const CacheAccess& want) {
  EXPECT_EQ(got.hit, want.hit);
  EXPECT_EQ(got.ready_at, want.ready_at);
  EXPECT_EQ(got.writeback, want.writeback);
  EXPECT_EQ(got.victim_line, want.victim_line);
}

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
  Cycle ready = 0;
  EXPECT_TRUE(c.touchIfPresent(0x1000, false, &ready));
  EXPECT_EQ(ready, 500u);
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

TEST(SetAssocCache, MatchesLineReferenceOnRandomStreams) {
  // A seeded stream of probe/touchIfPresent/fill/access/invalidate calls
  // over a footprint of three times the capacity, so sets fill, evict
  // dirty and clean victims, and refill ways that invalidate() emptied.
  // Line addresses are scattered over all 58 line-index bits, so tags
  // reach their full width.
  for (const CacheGeometry geom :
       {CacheGeometry{64, 8}, CacheGeometry{64, 16}}) {
    SetAssocCache cache(geom);
    LineCache ref(geom);
    Xorshift64Star rng(geom.ways);
    const std::uint64_t footprint = 3ull * geom.sets * geom.ways;
    std::uint64_t refills = 0;
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t line =
          (rng.nextBelow(footprint) * 0x9E3779B97F4A7C15ull) &
          ((1ull << (64 - kLineShift)) - 1);
      const Addr addr = (line << kLineShift) | rng.nextBelow(kLineBytes);
      const bool flag = rng.nextBelow(2) != 0;
      SCOPED_TRACE(testing::Message() << geom.sets << "x" << geom.ways
                                      << " call " << i << " addr " << addr);
      switch (rng.nextBelow(5)) {
        case 0:
          ASSERT_EQ(cache.probe(addr), ref.probe(addr));
          break;
        case 1: {
          Cycle got = 7;
          Cycle want = 7;
          ASSERT_EQ(cache.touchIfPresent(addr, flag, &got),
                    ref.touchIfPresent(addr, flag, &want));
          ASSERT_EQ(got, want);
          break;
        }
        case 2: {
          const Cycle ready = rng.nextBelow(1000);
          expectSameAccess(cache.fill(addr, flag, ready),
                           ref.fill(addr, flag, ready));
          break;
        }
        case 3:
          expectSameAccess(cache.access(addr, flag), ref.access(addr, flag));
          break;
        default: {
          const bool present = ref.probe(addr);
          ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr));
          if (present) {
            // Invalidate-then-refill: both must pick the same way, the
            // first one the empty-tag sentinel (or !valid) marks free.
            const Cycle ready = rng.nextBelow(1000);
            expectSameAccess(cache.fill(addr, flag, ready),
                             ref.fill(addr, flag, ready));
            ++refills;
          }
          break;
        }
      }
      ASSERT_FALSE(HasFailure());
      ASSERT_EQ(cache.hits(), ref.hits());
      ASSERT_EQ(cache.misses(), ref.misses());
    }
    EXPECT_GT(refills, 1000u);
  }
}

}  // namespace
}  // namespace bridge
