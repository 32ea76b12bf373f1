// Set-associative cache tag array with LRU replacement.
//
// This models *state* (which lines are resident, dirty, and when their data
// actually arrives); timing is layered on top by MemoryHierarchy. Each line
// carries a `ready` cycle stamped at fill time, so an access that hits a
// line whose fill is still in flight waits for it — which is what makes
// memory-level parallelism (and its absence) come out right in the
// independent-miss microbenchmarks (MIM, MIM2).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/types.h"

namespace bridge {

struct CacheGeometry {
  unsigned sets = 64;
  unsigned ways = 8;

  std::uint64_t sizeBytes() const {
    return std::uint64_t{sets} * ways * kLineBytes;
  }
};

/// Result of an allocating access or fill.
struct CacheAccess {
  bool hit = false;
  Cycle ready_at = 0;      // when the line's data is available (hits)
  bool writeback = false;  // a dirty victim was evicted
  Addr victim_line = 0;    // line address of the dirty victim
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geom);

  /// Non-allocating lookup; does not touch replacement state.
  bool probe(Addr line_addr) const;

  /// Hit path: if the line is resident, updates LRU and dirtiness, stores
  /// the cycle at which its data is available in `*ready`, and returns
  /// true; otherwise leaves all state (including `*ready`) untouched and
  /// returns false. Every demand lookup in the hierarchy uses it, so a hit
  /// scans its set once instead of once in probe() and again to update it.
  bool touchIfPresent(Addr line_addr, bool is_store, Cycle* ready);

  /// Install a line whose data arrives at `ready`. Returns writeback info
  /// for a dirty victim. If the line is already present, only updates
  /// dirtiness (a prefetch raced a demand fill).
  CacheAccess fill(Addr line_addr, bool dirty, Cycle ready);

  /// Convenience allocating access (probe + touch-or-fill with ready = 0).
  /// Used by the LLC slice and by tests that don't track fill timing.
  CacheAccess access(Addr line_addr, bool is_store);

  /// Drop a line if present; returns true if it was present and dirty.
  bool invalidate(Addr line_addr);

  const CacheGeometry& geometry() const { return geom_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double missRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(misses_) /
                            static_cast<double>(total);
  }

 private:
  /// Tag of an empty way: a real tag is at most 64 - kLineShift bits wide.
  static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  /// A calloc'd array: the pages of a large one that no access reaches are
  /// never faulted in.
  template <class T>
  using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;
  template <class T>
  static ZeroedArray<T> zeroedArray(std::size_t n);

  std::size_t setBase(Addr line_addr) const;
  std::uint64_t tagOf(Addr line_addr) const;
  /// Way index of a resident line, or kAbsent.
  std::size_t find(Addr line_addr) const;
  std::size_t pickVictim(std::size_t base) const;

  CacheGeometry geom_;
  // sets is asserted to be a power of two, so the set/tag split is a
  // shift+mask — measurably cheaper than div/mod in the per-access lookup,
  // the hottest path of the whole hierarchy (hostbench's `cache.array`
  // layer).
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  // Per-way state in parallel arrays, indexed set * ways + way, so a set
  // scan reads only the tags: 8 bytes per way (128 B for a 16-way set).
  std::vector<std::uint64_t> tags_;  // kEmptyTag marks an empty way
  ZeroedArray<std::uint64_t> lru_;   // tick of the last touch or fill
  ZeroedArray<Cycle> ready_;         // when the line's data arrives
  ZeroedArray<std::uint8_t> dirty_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bridge
