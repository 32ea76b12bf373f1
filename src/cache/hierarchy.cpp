#include "cache/hierarchy.h"

#include <algorithm>
#include <cassert>

namespace bridge {

MemoryHierarchy::MemoryHierarchy(unsigned num_cores,
                                 const MemSysParams& params,
                                 StatRegistry* stats)
    : params_(params),
      l2_(CacheGeometry{params.l2.sets, params.l2.ways}),
      l2_banks_(std::max(1u, params.l2.banks)),
      l2_mshr_(params.l2.mshrs),
      bus_(params.bus),
      stats_(stats) {
  assert(num_cores >= 1);
  assert(stats != nullptr);
  assert(params.dram_channels >= 1);

  cores_.reserve(num_cores);
  for (unsigned c = 0; c < num_cores; ++c) {
    CorePrivate priv;
    priv.l1i = std::make_unique<SetAssocCache>(
        CacheGeometry{params.l1i.sets, params.l1i.ways});
    priv.l1d = std::make_unique<SetAssocCache>(
        CacheGeometry{params.l1d.sets, params.l1d.ways});
    priv.mshr = std::make_unique<MshrFile>(params.l1d.mshrs);
    priv.prefetcher = std::make_unique<StridePrefetcher>(params.prefetch);
    if (params.tlb.enabled) {
      priv.dtlb = std::make_unique<Tlb>(params.tlb);
    }
    cores_.push_back(std::move(priv));
  }

  for (unsigned ch = 0; ch < params.dram_channels; ++ch) {
    if (params.has_llc) {
      llc_.push_back(std::make_unique<LlcSlice>(params.llc));
    }
    dram_.push_back(
        std::make_unique<DramController>(params.dram, params.freq_ghz));
  }

  c_l1d_hit_ = &stats->counter("mem.l1d.hit");
  c_l1d_miss_ = &stats->counter("mem.l1d.miss");
  c_l1i_hit_ = &stats->counter("mem.l1i.hit");
  c_l1i_miss_ = &stats->counter("mem.l1i.miss");
  c_l2_hit_ = &stats->counter("mem.l2.hit");
  c_l2_miss_ = &stats->counter("mem.l2.miss");
  c_llc_hit_ = &stats->counter("mem.llc.hit");
  c_llc_miss_ = &stats->counter("mem.llc.miss");
  c_writebacks_ = &stats->counter("mem.writebacks");
  c_prefetches_ = &stats->counter("mem.prefetches");
  c_tlb_l2_hit_ = &stats->counter("mem.tlb.l2_hit");
  c_tlb_miss_ = &stats->counter("mem.tlb.miss");
}

Cycle MemoryHierarchy::translate(unsigned core, Addr addr, Cycle now) {
  CorePrivate& priv = cores_[core];
  if (!priv.dtlb) return now;
  switch (priv.dtlb->access(addr)) {
    case Tlb::Outcome::kL1Hit:
      return now;
    case Tlb::Outcome::kL2Hit:
      c_tlb_l2_hit_->add();
      return now + params_.tlb.l2_latency;
    case Tlb::Outcome::kMiss: {
      c_tlb_miss_->add();
      // Page-table walk: `walk_levels` dependent loads. Like Rocket's PTW,
      // walk accesses go through the walker core's L1D — page-table lines
      // are heavily reused (one line covers 8 PTEs = 32 KiB of reach), so
      // warm walks are L1 hits and only cold page-table lines pay the
      // shared-path cost. Synthetic addresses: upper levels reuse a tiny
      // region, the leaf level spreads with the page number.
      const std::uint64_t page = addr >> params_.tlb.page_bits;
      Cycle t = now + params_.tlb.l2_latency;
      const Addr pt_base =
          0xF800'0000 + static_cast<Addr>(core) * 0x0100'0000;
      for (unsigned level = 0; level < params_.tlb.walk_levels; ++level) {
        const std::uint64_t index = page >> (9 * (params_.tlb.walk_levels -
                                                  1 - level));
        const Addr pte = lineAddr(pt_base +
                                  static_cast<Addr>(level) * 0x0020'0000 +
                                  index * 8);
        if (Cycle line_ready = 0;
            priv.l1d->touchIfPresent(pte, false, &line_ready)) {
          t = std::max(t, line_ready) + params_.l1d.latency;
        } else {
          t = accessShared(pte, /*is_store=*/false, t + params_.l1d.latency)
                  .complete +
              params_.l1d.latency;
          priv.l1d->fill(pte, /*dirty=*/false, t);
        }
      }
      return t;
    }
  }
  return now;
}

unsigned MemoryHierarchy::channelOf(Addr line) const {
  return static_cast<unsigned>((line >> kLineShift) % dram_.size());
}

unsigned MemoryHierarchy::l2BankOf(Addr line) const {
  return static_cast<unsigned>((line >> kLineShift) % l2_banks_.size());
}

void MemoryHierarchy::writebackFromL2(Addr victim_line, Cycle now) {
  c_writebacks_->add();
  // Dirty L2 victim drains over the bus to the memory side; posted.
  const Cycle on_bus = bus_.transferLine(now);
  const unsigned ch = channelOf(victim_line);
  if (params_.has_llc) {
    // Write-allocate into the LLC; its own dirty victim goes to DRAM.
    const LlcSlice::Result r =
        llc_[ch]->access(victim_line, /*is_store=*/true, on_bus);
    if (r.writeback) dram_[ch]->write(r.victim_line, r.complete);
  } else {
    dram_[ch]->write(victim_line, on_bus);
  }
}

MemoryHierarchy::BeyondL2Result MemoryHierarchy::accessBeyondL2(
    Addr line, bool is_store, Cycle ready) {
  BeyondL2Result out;
  const Cycle req_done = bus_.sendRequest(ready);
  const unsigned ch = channelOf(line);

  Cycle data_at_edge = 0;
  if (params_.has_llc) {
    const LlcSlice::Result r = llc_[ch]->access(line, is_store, req_done);
    if (r.writeback) dram_[ch]->write(r.victim_line, r.complete);
    if (r.hit) {
      out.llc_hit = true;
      c_llc_hit_->add();
      data_at_edge = r.complete;
    } else {
      c_llc_miss_->add();
      data_at_edge = dram_[ch]->read(line, r.complete);
    }
  } else {
    data_at_edge = dram_[ch]->read(line, req_done);
  }

  out.complete = bus_.transferLine(data_at_edge);
  return out;
}

MemoryHierarchy::MemSideResult MemoryHierarchy::accessShared(Addr line,
                                                             bool is_store,
                                                             Cycle ready) {
  MemSideResult out;
  const unsigned bank = l2BankOf(line);
  const Cycle start = l2_banks_[bank].reserve(ready, params_.l2.bank_busy);

  if (Cycle line_ready = 0; l2_.touchIfPresent(line, is_store, &line_ready)) {
    c_l2_hit_->add();
    out.l2_hit = true;
    out.complete = std::max(start, line_ready) + params_.l2.latency;
    return out;
  }
  c_l2_miss_->add();

  const MshrFile::Admission adm = l2_mshr_.admit(line, start);
  if (adm.merged) {
    out.complete = std::max(adm.merged_fill, start + params_.l2.latency);
    return out;
  }

  const BeyondL2Result beyond = accessBeyondL2(
      line, /*is_store=*/false, adm.ready + params_.l2.latency);
  out.llc_hit = beyond.llc_hit;
  out.complete = beyond.complete;

  const CacheAccess fill = l2_.fill(line, is_store, out.complete);
  if (fill.writeback) writebackFromL2(fill.victim_line, out.complete);

  l2_mshr_.complete(line, out.complete);
  return out;
}

MemAccess MemoryHierarchy::load(unsigned core, Addr pc, Addr addr,
                                Cycle now) {
  assert(core < cores_.size());
  CorePrivate& priv = cores_[core];
  const Addr line = lineAddr(addr);
  MemAccess out;

  issuePrefetches(core, pc, addr, now);
  now = translate(core, addr, now);

  if (Cycle line_ready = 0;
      priv.l1d->touchIfPresent(line, /*is_store=*/false, &line_ready)) {
    c_l1d_hit_->add();
    out.l1_hit = true;
    out.complete = std::max(now, line_ready) + params_.l1d.latency;
    return out;
  }
  c_l1d_miss_->add();

  const MshrFile::Admission adm = priv.mshr->admit(line, now);
  if (adm.merged) {
    out.complete = std::max(adm.merged_fill, now + params_.l1d.latency);
    return out;
  }

  const MemSideResult mem = accessShared(
      line, /*is_store=*/false, adm.ready + params_.l1d.latency);
  out.l2_hit = mem.l2_hit;
  out.llc_hit = mem.llc_hit;
  // The returning line streams through the L1 refill port, then fill-to-use.
  const unsigned beats = bus_.beatsPerLine();
  out.complete = priv.refill.reserve(mem.complete, beats) + beats +
                 params_.l1d.latency;

  const CacheAccess fill =
      priv.l1d->fill(line, /*dirty=*/false, out.complete);
  if (fill.writeback) {
    // Dirty L1 victim lands in L2: charge an L2 bank write slot.
    const unsigned bank = l2BankOf(fill.victim_line);
    l2_banks_[bank].reserve(now, params_.l2.bank_busy);
    const CacheAccess l2fill = l2_.fill(fill.victim_line, /*dirty=*/true, now);
    if (l2fill.writeback) writebackFromL2(l2fill.victim_line, now);
  }
  priv.mshr->complete(line, out.complete);
  return out;
}

MemAccess MemoryHierarchy::store(unsigned core, Addr pc, Addr addr,
                                 Cycle now) {
  assert(core < cores_.size());
  CorePrivate& priv = cores_[core];
  const Addr line = lineAddr(addr);
  MemAccess out;

  issuePrefetches(core, pc, addr, now);
  now = translate(core, addr, now);

  if (Cycle line_ready = 0;
      priv.l1d->touchIfPresent(line, /*is_store=*/true, &line_ready)) {
    c_l1d_hit_->add();
    out.l1_hit = true;
    out.complete = std::max(now, line_ready) + params_.l1d.latency;
    return out;
  }
  c_l1d_miss_->add();

  // Write-allocate: fetch the line, then retire the store into it.
  const MshrFile::Admission adm = priv.mshr->admit(line, now);
  if (adm.merged) {
    out.complete = std::max(adm.merged_fill, now + params_.l1d.latency);
    return out;
  }
  const MemSideResult mem = accessShared(
      line, /*is_store=*/false, adm.ready + params_.l1d.latency);
  out.l2_hit = mem.l2_hit;
  out.llc_hit = mem.llc_hit;
  const unsigned beats = bus_.beatsPerLine();
  out.complete = priv.refill.reserve(mem.complete, beats) + beats +
                 params_.l1d.latency;

  const CacheAccess fill = priv.l1d->fill(line, /*dirty=*/true, out.complete);
  if (fill.writeback) {
    const unsigned bank = l2BankOf(fill.victim_line);
    l2_banks_[bank].reserve(now, params_.l2.bank_busy);
    const CacheAccess l2fill = l2_.fill(fill.victim_line, /*dirty=*/true, now);
    if (l2fill.writeback) writebackFromL2(l2fill.victim_line, now);
  }
  priv.mshr->complete(line, out.complete);
  return out;
}

MemAccess MemoryHierarchy::ifetch(unsigned core, Addr pc, Cycle now) {
  assert(core < cores_.size());
  CorePrivate& priv = cores_[core];
  const Addr line = lineAddr(pc);
  MemAccess out;

  if (Cycle line_ready = 0;
      priv.l1i->touchIfPresent(line, /*is_store=*/false, &line_ready)) {
    c_l1i_hit_->add();
    out.l1_hit = true;
    out.complete = std::max(now, line_ready) + params_.l1i.latency;
    return out;
  }
  c_l1i_miss_->add();

  // Instruction fetch is blocking (no L1I MSHR): straight to the shared L2.
  const MemSideResult mem =
      accessShared(line, /*is_store=*/false, now + params_.l1i.latency);
  out.l2_hit = mem.l2_hit;
  out.llc_hit = mem.llc_hit;
  out.complete = mem.complete + params_.l1i.latency;
  priv.l1i->fill(line, /*dirty=*/false, out.complete);
  return out;
}

void MemoryHierarchy::issuePrefetches(unsigned core, Addr pc, Addr addr,
                                      Cycle now) {
  CorePrivate& priv = cores_[core];
  if (!priv.prefetcher->params().enabled) return;
  prefetch_scratch_.clear();
  priv.prefetcher->observe(pc, addr, &prefetch_scratch_);
  for (const Addr line : prefetch_scratch_) {
    if (priv.l1d->probe(line) || l2_.probe(line)) continue;
    c_prefetches_->add();
    // Background fill into L2: charges the shared path but nobody waits.
    const BeyondL2Result r = accessBeyondL2(line, /*is_store=*/false, now);
    const CacheAccess fill = l2_.fill(line, /*dirty=*/false, r.complete);
    if (fill.writeback) writebackFromL2(fill.victim_line, r.complete);
  }
}

void MemoryHierarchy::warmWritebackFromL2(Addr victim_line) {
  c_writebacks_->add();
  if (params_.has_llc) {
    // Write-allocate into the LLC slice; the drain to DRAM carries no
    // functional state (DRAM row history is timing-only), so it stops here.
    llc_[channelOf(victim_line)]->warmAccess(victim_line, /*is_store=*/true);
  }
}

void MemoryHierarchy::warmShared(Addr line, bool is_store) {
  if (Cycle ready = 0; l2_.touchIfPresent(line, is_store, &ready)) {
    c_l2_hit_->add();
    return;
  }
  c_l2_miss_->add();
  if (params_.has_llc) {
    const LlcSlice::Result r =
        llc_[channelOf(line)]->warmAccess(line, /*is_store=*/false);
    if (r.hit) {
      c_llc_hit_->add();
    } else {
      c_llc_miss_->add();
    }
  }
  const CacheAccess fill = l2_.fill(line, is_store, /*ready=*/0);
  if (fill.writeback) warmWritebackFromL2(fill.victim_line);
}

void MemoryHierarchy::warmTranslate(unsigned core, Addr addr) {
  CorePrivate& priv = cores_[core];
  if (!priv.dtlb) return;
  switch (priv.dtlb->access(addr)) {
    case Tlb::Outcome::kL1Hit:
      return;
    case Tlb::Outcome::kL2Hit:
      c_tlb_l2_hit_->add();
      return;
    case Tlb::Outcome::kMiss: {
      c_tlb_miss_->add();
      // Same synthetic walk addresses as translate(), so warmed page-table
      // lines are exactly the ones a detailed walk would hit.
      const std::uint64_t page = addr >> params_.tlb.page_bits;
      const Addr pt_base =
          0xF800'0000 + static_cast<Addr>(core) * 0x0100'0000;
      for (unsigned level = 0; level < params_.tlb.walk_levels; ++level) {
        const std::uint64_t index = page >> (9 * (params_.tlb.walk_levels -
                                                  1 - level));
        const Addr pte = lineAddr(pt_base +
                                  static_cast<Addr>(level) * 0x0020'0000 +
                                  index * 8);
        if (Cycle ready = 0; priv.l1d->touchIfPresent(pte, false, &ready)) {
          // warmed walk line already resident
        } else {
          warmShared(pte, /*is_store=*/false);
          priv.l1d->fill(pte, /*dirty=*/false, /*ready=*/0);
        }
      }
      return;
    }
  }
}

void MemoryHierarchy::warmDemand(unsigned core, Addr pc, Addr addr,
                                 bool is_store) {
  CorePrivate& priv = cores_[core];
  const Addr line = lineAddr(addr);

  // Train the prefetcher and functionally install what it would fetch, so
  // detailed windows start with the same prefetch coverage as a full run.
  if (priv.prefetcher->params().enabled) {
    prefetch_scratch_.clear();
    priv.prefetcher->observe(pc, addr, &prefetch_scratch_);
    for (const Addr pline : prefetch_scratch_) {
      if (priv.l1d->probe(pline) || l2_.probe(pline)) continue;
      c_prefetches_->add();
      if (params_.has_llc) {
        const LlcSlice::Result r =
            llc_[channelOf(pline)]->warmAccess(pline, /*is_store=*/false);
        if (r.hit) {
          c_llc_hit_->add();
        } else {
          c_llc_miss_->add();
        }
      }
      const CacheAccess fill = l2_.fill(pline, /*dirty=*/false, /*ready=*/0);
      if (fill.writeback) warmWritebackFromL2(fill.victim_line);
    }
  }

  warmTranslate(core, addr);

  if (Cycle ready = 0; priv.l1d->touchIfPresent(line, is_store, &ready)) {
    c_l1d_hit_->add();
    return;
  }
  c_l1d_miss_->add();
  // Write-allocate like the detailed path: the shared levels see a clean
  // fetch, only the L1 copy carries the store's dirtiness.
  warmShared(line, /*is_store=*/false);
  const CacheAccess fill = priv.l1d->fill(line, is_store, /*ready=*/0);
  if (fill.writeback) {
    const CacheAccess l2fill =
        l2_.fill(fill.victim_line, /*dirty=*/true, /*ready=*/0);
    if (l2fill.writeback) warmWritebackFromL2(l2fill.victim_line);
  }
}

void MemoryHierarchy::warmLoad(unsigned core, Addr pc, Addr addr) {
  assert(core < cores_.size());
  warmDemand(core, pc, addr, /*is_store=*/false);
}

void MemoryHierarchy::warmStore(unsigned core, Addr pc, Addr addr) {
  assert(core < cores_.size());
  warmDemand(core, pc, addr, /*is_store=*/true);
}

void MemoryHierarchy::warmIfetch(unsigned core, Addr pc) {
  assert(core < cores_.size());
  CorePrivate& priv = cores_[core];
  const Addr line = lineAddr(pc);
  if (Cycle ready = 0;
      priv.l1i->touchIfPresent(line, /*is_store=*/false, &ready)) {
    c_l1i_hit_->add();
    return;
  }
  c_l1i_miss_->add();
  warmShared(line, /*is_store=*/false);
  priv.l1i->fill(line, /*dirty=*/false, /*ready=*/0);
}

Cycle MemoryHierarchy::bulkCopy(unsigned core, Addr src, Addr dst,
                                std::uint64_t bytes, Cycle now) {
  // Model the MPI shared-memory copy as a pipelined line-by-line read of the
  // source and write of the destination, issued by `core`. Lines are issued
  // back-to-back (the copy loop is trivially strided), so throughput is
  // bounded by the shared levels, not by dependency chains.
  if (bytes == 0) return now;
  const std::uint64_t lines = (bytes + kLineBytes - 1) / kLineBytes;
  Cycle t = now;
  Cycle done = now;
  const Addr copy_pc = 0xC0DE000;  // synthetic PC: lets prefetchers lock on
  for (std::uint64_t i = 0; i < lines; ++i) {
    const MemAccess rd = load(core, copy_pc, src + i * kLineBytes, t);
    const MemAccess wr = store(core, copy_pc + 4, dst + i * kLineBytes, t);
    done = std::max(rd.complete, wr.complete);
    // The copy loop issues one line per few cycles; it never outruns the L1
    // but is not serialized on the previous line's fill.
    t += 4;
  }
  return std::max(done, t);
}

}  // namespace bridge
