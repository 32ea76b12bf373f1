// TLB model.
//
// Table 5 of the paper specifies TLB geometry for both FireSim models
// (32-entry fully-associative L1 D/I TLBs; BOOM adds a 1024-entry
// direct-mapped L2 TLB) while the silicon vendors disclose nothing — one
// of the undisclosed-parameter gaps the paper calls out. The model charges
// translation cost per demand access: an L1 TLB hit is free (folded into
// the cache hit latency), an L2 TLB hit costs a few cycles, and a full
// miss launches a page-table walk whose loads go through the *memory
// hierarchy* (so walk cost scales with the platform's memory latency, and
// walks from multiple cores contend).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace bridge {

struct TlbParams {
  bool enabled = false;
  unsigned l1_entries = 32;    // fully associative
  unsigned l2_entries = 0;     // direct mapped; 0 = no L2 TLB
  unsigned l2_latency = 4;     // cycles on an L1-miss/L2-hit
  unsigned walk_levels = 2;    // dependent memory accesses per walk
  unsigned page_bits = 12;     // 4 KiB pages
};

/// One core's TLB state. The owner (MemoryHierarchy) performs the walk
/// accesses; this class only tracks residency.
class Tlb {
 public:
  explicit Tlb(const TlbParams& params);

  enum class Outcome { kL1Hit, kL2Hit, kMiss };

  /// Look up the page of `addr`, updating recency/registration.
  Outcome access(Addr addr);

  const TlbParams& params() const { return params_; }
  std::uint64_t l1Hits() const { return l1_hits_; }
  std::uint64_t l2Hits() const { return l2_hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t pageOf(Addr addr) const { return addr >> params_.page_bits; }

  TlbParams params_;
  // L1 kept as parallel arrays rather than an array of {page, lru} structs:
  // the fully-associative match scan and the LRU victim scan then run over
  // contiguous same-typed words and vectorize (the scans dominate
  // translation cost on TLB-miss-heavy kernels; hostbench's `cache.tlb`
  // layer times them).
  std::vector<std::uint64_t> l1_page_;  // fully associative, LRU
  std::vector<std::uint64_t> l1_lru_;
  std::vector<std::uint64_t> l2_;  // direct mapped, tag = page number
  // MRU filter: streaming access touches the same 4 KiB page dozens of
  // times in a row; remembering the last-hit slot skips the associative
  // scan. Pure shortcut — the slot the previous access touched cannot have
  // been evicted since (only access() evicts), so outcome, LRU ticks, and
  // victim choice are bit-identical to the plain scan.
  std::uint64_t mru_page_ = ~std::uint64_t{0};
  std::size_t mru_slot_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bridge
