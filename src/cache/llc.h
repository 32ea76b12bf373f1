// Last-level cache models.
//
// FireSim's LLC model "behaves like an SRAM and does not account for
// detailed cache system latencies such as tag access delay or data retrieval
// latency" (paper §4). We provide both that simplified model and a
// latency-accurate one used by the silicon reference platforms, so the
// FireSim-vs-silicon LLC fidelity question is directly expressible.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/cache.h"
#include "sim/calendar.h"
#include "sim/types.h"

namespace bridge {

enum class LlcMode : std::uint8_t {
  kSimplifiedSram,  // FireSim-style: flat access latency, no queuing
  kRealistic,       // tag + data pipeline, banked, queued
};

struct LlcParams {
  LlcMode mode = LlcMode::kSimplifiedSram;
  unsigned sets = 16384;  // 16 MiB with 16 ways (one FireSim LLC slice)
  unsigned ways = 16;
  unsigned sram_latency = 8;   // simplified mode: flat latency
  unsigned tag_latency = 6;    // realistic mode: tag pipeline
  unsigned data_latency = 24;  // realistic mode: data array
  unsigned banks = 4;          // realistic mode: bank-level parallelism
  unsigned bank_busy = 4;      // realistic mode: bank occupancy per access
};

/// One LLC slice (the paper attaches one slice per DRAM channel).
class LlcSlice {
 public:
  explicit LlcSlice(const LlcParams& params);

  struct Result {
    bool hit = false;
    Cycle complete = 0;      // data available (hit) or lookup resolved (miss)
    bool writeback = false;  // dirty victim must go to DRAM
    Addr victim_line = 0;
  };

  /// Allocating access at cycle `now`. On a miss the caller fetches the
  /// line from DRAM and the line is already installed here (fill-on-miss).
  Result access(Addr line_addr, bool is_store, Cycle now);

  /// Functional-only access for sampled fast-forward: updates residency,
  /// LRU, and dirtiness exactly like access() but charges no bank calendar
  /// time (complete is meaningless and left 0). Timing state must stay
  /// untouched so warmed history can never push out a later detailed
  /// access.
  Result warmAccess(Addr line_addr, bool is_store);

  const SetAssocCache& tags() const { return tags_; }
  const LlcParams& params() const { return params_; }

 private:
  LlcParams params_;
  SetAssocCache tags_;
  std::vector<BusyCalendar> banks_;
};

}  // namespace bridge
