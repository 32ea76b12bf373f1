#include "cache/llc.h"

#include <algorithm>

namespace bridge {

LlcSlice::LlcSlice(const LlcParams& params)
    : params_(params),
      tags_(CacheGeometry{params.sets, params.ways}),
      banks_(std::max(1u, params.banks)) {}

LlcSlice::Result LlcSlice::warmAccess(Addr line_addr, bool is_store) {
  Result out;
  const CacheAccess a = tags_.access(line_addr, is_store);
  out.hit = a.hit;
  out.writeback = a.writeback;
  out.victim_line = a.victim_line;
  return out;
}

LlcSlice::Result LlcSlice::access(Addr line_addr, bool is_store, Cycle now) {
  Result out;
  const CacheAccess a = tags_.access(line_addr, is_store);
  out.hit = a.hit;
  out.writeback = a.writeback;
  out.victim_line = a.victim_line;

  if (params_.mode == LlcMode::kSimplifiedSram) {
    // FireSim-style: a flat SRAM latency regardless of load; effectively an
    // idealized tag+data access with no contention.
    out.complete = now + params_.sram_latency;
    return out;
  }

  // Realistic mode: tag pipeline, then a banked data array with occupancy.
  const std::size_t bank = (line_addr >> kLineShift) % banks_.size();
  const Cycle tag_done = now + params_.tag_latency;
  const Cycle start = banks_[bank].reserve(tag_done, params_.bank_busy);
  out.complete = out.hit ? start + params_.data_latency : tag_done;
  return out;
}

}  // namespace bridge
