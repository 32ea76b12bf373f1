#include "cache/cache.h"

#include <cassert>
#include <new>

namespace bridge {

template <class T>
SetAssocCache::ZeroedArray<T> SetAssocCache::zeroedArray(std::size_t n) {
  T* p = static_cast<T*>(std::calloc(n, sizeof(T)));
  if (p == nullptr) throw std::bad_alloc();
  return ZeroedArray<T>(p);
}

SetAssocCache::SetAssocCache(const CacheGeometry& geom)
    : geom_(geom),
      tags_(std::size_t{geom.sets} * geom.ways, kEmptyTag),
      lru_(zeroedArray<std::uint64_t>(tags_.size())),
      ready_(zeroedArray<Cycle>(tags_.size())),
      dirty_(zeroedArray<std::uint8_t>(tags_.size())) {
  assert(geom.sets != 0 && (geom.sets & (geom.sets - 1)) == 0);
  assert(geom.ways != 0);
  set_mask_ = geom.sets - 1;
  while ((1u << set_shift_) < geom.sets) ++set_shift_;
}

std::size_t SetAssocCache::setBase(Addr line_addr) const {
  const std::uint64_t line_index = line_addr >> kLineShift;
  return (line_index & set_mask_) * geom_.ways;
}

std::uint64_t SetAssocCache::tagOf(Addr line_addr) const {
  return (line_addr >> kLineShift) >> set_shift_;
}

std::size_t SetAssocCache::find(Addr line_addr) const {
  const std::size_t base = setBase(line_addr);
  const std::uint64_t tag = tagOf(line_addr);
  const std::uint64_t* const set = tags_.data() + base;
  for (unsigned w = 0; w < geom_.ways; ++w) {
    if (set[w] == tag) return base + w;
  }
  return kAbsent;
}

std::size_t SetAssocCache::pickVictim(std::size_t base) const {
  for (unsigned w = 0; w < geom_.ways; ++w) {
    if (tags_[base + w] == kEmptyTag) return base + w;
  }
  std::size_t victim = base;
  for (unsigned w = 1; w < geom_.ways; ++w) {
    if (lru_[base + w] < lru_[victim]) victim = base + w;
  }
  return victim;
}

bool SetAssocCache::probe(Addr line_addr) const {
  return find(lineAddr(line_addr)) != kAbsent;
}

bool SetAssocCache::touchIfPresent(Addr line_addr, bool is_store,
                                   Cycle* ready) {
  const std::size_t i = find(lineAddr(line_addr));
  if (i == kAbsent) return false;
  lru_[i] = ++tick_;
  dirty_[i] |= is_store;
  ++hits_;
  *ready = ready_[i];
  return true;
}

CacheAccess SetAssocCache::fill(Addr line_addr, bool dirty, Cycle ready) {
  line_addr = lineAddr(line_addr);
  CacheAccess out;
  if (const std::size_t i = find(line_addr); i != kAbsent) {
    // Already present (e.g. a prefetch raced a demand fill): keep the
    // earlier ready time, just merge dirtiness.
    dirty_[i] |= dirty;
    out.hit = true;
    out.ready_at = ready_[i];
    return out;
  }
  ++misses_;
  const std::size_t base = setBase(line_addr);
  const std::size_t v = pickVictim(base);
  if (tags_[v] != kEmptyTag && dirty_[v]) {
    out.writeback = true;
    const std::uint64_t set_index = base / geom_.ways;
    out.victim_line = ((tags_[v] << set_shift_) | set_index) << kLineShift;
  }
  tags_[v] = tagOf(line_addr);
  dirty_[v] = dirty;
  lru_[v] = ++tick_;
  ready_[v] = ready;
  out.ready_at = ready;
  return out;
}

CacheAccess SetAssocCache::access(Addr line_addr, bool is_store) {
  line_addr = lineAddr(line_addr);
  CacheAccess out;
  if (touchIfPresent(line_addr, is_store, &out.ready_at)) {
    out.hit = true;
    return out;
  }
  return fill(line_addr, is_store, /*ready=*/0);
}

bool SetAssocCache::invalidate(Addr line_addr) {
  const std::size_t i = find(lineAddr(line_addr));
  if (i == kAbsent) return false;
  const bool was_dirty = dirty_[i];
  tags_[i] = kEmptyTag;
  dirty_[i] = false;
  return was_dirty;
}

}  // namespace bridge
