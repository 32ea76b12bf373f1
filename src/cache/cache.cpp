#include "cache/cache.h"

#include <cassert>

namespace bridge {

SetAssocCache::SetAssocCache(const CacheGeometry& geom)
    : geom_(geom), lines_(std::size_t{geom.sets} * geom.ways) {
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

SetAssocCache::Line* SetAssocCache::find(Addr line_addr) {
  const std::size_t base = setBase(line_addr);
  const std::uint64_t tag = tagOf(line_addr);
  for (unsigned w = 0; w < geom_.ways; ++w) {
    Line& l = lines_[base + w];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

const SetAssocCache::Line* SetAssocCache::find(Addr line_addr) const {
  return const_cast<SetAssocCache*>(this)->find(line_addr);
}

SetAssocCache::Line& SetAssocCache::pickVictim(std::size_t base) {
  for (unsigned w = 0; w < geom_.ways; ++w) {
    if (!lines_[base + w].valid) return lines_[base + w];
  }
  Line* victim = &lines_[base];
  for (unsigned w = 1; w < geom_.ways; ++w) {
    if (lines_[base + w].lru < victim->lru) victim = &lines_[base + w];
  }
  return *victim;
}

bool SetAssocCache::probe(Addr line_addr) const {
  return find(lineAddr(line_addr)) != nullptr;
}

Cycle SetAssocCache::touch(Addr line_addr, bool is_store) {
  Line* l = find(lineAddr(line_addr));
  assert(l != nullptr && "touch() on a non-resident line");
  l->lru = ++tick_;
  l->dirty = l->dirty || is_store;
  ++hits_;
  return l->ready;
}

bool SetAssocCache::touchIfPresent(Addr line_addr, bool is_store,
                                   Cycle* ready) {
  Line* l = find(lineAddr(line_addr));
  if (l == nullptr) return false;
  l->lru = ++tick_;
  l->dirty = l->dirty || is_store;
  ++hits_;
  *ready = l->ready;
  return true;
}

CacheAccess SetAssocCache::fill(Addr line_addr, bool dirty, Cycle ready) {
  line_addr = lineAddr(line_addr);
  CacheAccess out;
  if (Line* l = find(line_addr)) {
    // Already present (e.g. a prefetch raced a demand fill): keep the
    // earlier ready time, just merge dirtiness.
    l->dirty = l->dirty || dirty;
    out.hit = true;
    out.ready_at = l->ready;
    return out;
  }
  ++misses_;
  const std::size_t base = setBase(line_addr);
  Line& victim = pickVictim(base);
  if (victim.valid && victim.dirty) {
    out.writeback = true;
    const std::uint64_t set_index = base / geom_.ways;
    out.victim_line = ((victim.tag << set_shift_) | set_index) << kLineShift;
  }
  victim.valid = true;
  victim.dirty = dirty;
  victim.tag = tagOf(line_addr);
  victim.lru = ++tick_;
  victim.ready = ready;
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
  if (Line* l = find(lineAddr(line_addr))) {
    const bool was_dirty = l->dirty;
    l->valid = false;
    l->dirty = false;
    return was_dirty;
  }
  return false;
}

}  // namespace bridge
