#include "core/ooo.h"

#include <algorithm>
#include <cassert>

namespace bridge {

OooParams smallBoomParams() {
  OooParams p;
  p.fetch_width = 4;
  p.decode_width = 1;
  p.fetch_buffer = 8;
  p.rob = 32;
  p.int_issue = 1;
  p.mem_issue = 1;
  p.fp_issue = 1;
  p.int_iq = 8;
  p.mem_iq = 8;
  p.fp_iq = 8;
  p.ldq = 8;
  p.stq = 8;
  p.redirect_penalty = 7;
  p.tage.table_entries = 256;
  p.btb_entries = 256;
  p.ras_depth = 16;
  return p;
}

OooParams mediumBoomParams() {
  OooParams p;
  p.fetch_width = 4;
  p.decode_width = 2;
  p.fetch_buffer = 16;
  p.rob = 64;
  p.int_issue = 2;
  p.mem_issue = 1;
  p.fp_issue = 1;
  p.int_iq = 20;
  p.mem_iq = 12;
  p.fp_iq = 16;
  p.ldq = 16;
  p.stq = 16;
  p.redirect_penalty = 8;
  p.tage.table_entries = 512;
  p.btb_entries = 512;
  p.ras_depth = 24;
  return p;
}

OooParams largeBoomParams() {
  OooParams p;
  p.fetch_width = 8;
  p.decode_width = 3;
  p.fetch_buffer = 24;
  p.rob = 96;
  p.int_issue = 3;
  p.mem_issue = 1;
  p.fp_issue = 1;
  p.ldq = 24;
  p.stq = 24;
  p.redirect_penalty = 9;
  p.tage.table_entries = 1024;
  p.btb_entries = 512;
  p.ras_depth = 32;
  return p;
}

OooCore::OooCore(unsigned core_id, const OooParams& params,
                 MemoryHierarchy* mem, StatRegistry* stats,
                 const std::string& stat_prefix)
    : core_id_(core_id),
      params_(params),
      mem_(mem),
      front_end_(makeBoomFrontEnd(params.tage, params.btb_entries,
                                  params.ras_depth)),
      rob_commit_(std::max(1u, params.rob), 0),
      int_ports_(std::max(1u, params.int_issue)),
      mem_ports_(std::max(1u, params.mem_issue)),
      fp_ports_(std::max(1u, params.fp_issue)),
      int_iq_(std::max(1u, params.int_iq), 0),
      mem_iq_(std::max(1u, params.mem_iq), 0),
      fp_iq_(std::max(1u, params.fp_iq), 0),
      ldq_(std::max(1u, params.ldq), 0),
      stq_(std::max(1u, params.stq), 0),
      pending_stores_(std::max(1u, params.stq), PendingStore{}) {
  assert(mem != nullptr);
  assert(stats != nullptr);
  c_mispredicts_ = &stats->counter(stat_prefix + ".mispredicts");
  c_rob_stalls_ = &stats->counter(stat_prefix + ".rob_stalls");
}

Cycle OooCore::regReady(Reg r) const {
  if (r == kNoReg || r == kZeroReg) return 0;
  return reg_ready_[r];
}

void OooCore::setRegReady(Reg r, Cycle c) {
  if (r == kNoReg || r == kZeroReg) return;
  reg_ready_[r] = c;
}

Cycle OooCore::allocPort(std::vector<BusyCalendar>& ports, Cycle earliest) {
  // Issue on the port with the earliest free slot at or after `earliest`.
  // A port slot is one cycle; waiting ops sit in the issue queue and do
  // not occupy the port. reserve(peek(r)) places exactly where reserve(r)
  // does, so a single port skips the peek; with several, the first port
  // free at `earliest` ends the scan (ties go to the lowest index).
  if (ports.size() == 1) return ports[0].reserve(earliest, 1);
  Cycle best = kCycleNever;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const Cycle candidate = ports[i].peek(earliest, 1);
    if (candidate < best) {
      best = candidate;
      best_i = i;
      if (best == earliest) break;
    }
  }
  return ports[best_i].reserve(best, 1);
}

Cycle OooCore::allocQueueSlot(std::vector<Cycle>& ring, std::size_t& head,
                              Cycle earliest) {
  // A queue entry frees when the op occupying it commits; allocation waits
  // for the oldest entry if all are busy past `earliest`.
  const Cycle slot_free = ring[head];
  const Cycle when = std::max(earliest, slot_free);
  // The slot is re-armed by the caller once the commit time is known; mark
  // occupied until then with the allocation time (monotone, safe).
  if (++head == ring.size()) head = 0;
  return when;
}

void OooCore::chargeFetch(const MicroOp& op) {
  const Addr line = lineAddr(op.pc);
  if (line == last_fetch_line_) return;
  last_fetch_line_ = line;
  const MemAccess f = mem_->ifetch(core_id_, op.pc, dispatch_cycle_);
  if (!f.l1_hit) {
    fetch_ready_ = std::max(fetch_ready_, f.complete);
  }
}

Cycle OooCore::commit(Cycle complete) {
  // In-order commit, bounded by decode_width retires per cycle.
  Cycle commit_cycle = std::max(complete, last_commit_cycle_);
  if (commit_cycle == last_commit_cycle_ &&
      committed_this_cycle_ >= params_.decode_width) {
    ++commit_cycle;
  }
  if (commit_cycle > last_commit_cycle_) {
    last_commit_cycle_ = commit_cycle;
    committed_this_cycle_ = 1;
  } else {
    ++committed_this_cycle_;
  }
  max_commit_ = std::max(max_commit_, commit_cycle);
  return commit_cycle;
}

void OooCore::consume(const MicroOp& op) {
  assert(op.cls != OpClass::kMpi && "MPI ops are handled by the runtime");

  chargeFetch(op);

  // --- Dispatch ---------------------------------------------------------
  Cycle dispatch = std::max(dispatch_cycle_, fetch_ready_);
  if (dispatch == dispatch_cycle_ &&
      dispatched_this_cycle_ >= params_.decode_width) {
    ++dispatch;
  }
  // ROB window: the entry this op takes frees when the op `rob` slots ago
  // committed.
  const Cycle rob_free = rob_commit_[rob_head_];
  if (rob_free > dispatch) {
    c_rob_stalls_->add();
    dispatch = rob_free;
  }
  // Issue-queue occupancy: the slot this op takes frees when the op
  // `iq_size` entries earlier issued (entries are held dispatch->issue).
  std::vector<Cycle>* iq = &int_iq_;
  std::size_t* iq_head = &int_iq_head_;
  if (isMemOp(op.cls)) {
    iq = &mem_iq_;
    iq_head = &mem_iq_head_;
  } else if (isFpOp(op.cls)) {
    iq = &fp_iq_;
    iq_head = &fp_iq_head_;
  }
  dispatch = std::max(dispatch, (*iq)[*iq_head]);
  if (dispatch > dispatch_cycle_) {
    dispatch_cycle_ = dispatch;
    dispatched_this_cycle_ = 0;
  }
  ++dispatched_this_cycle_;

  // --- Issue ------------------------------------------------------------
  const Cycle src_ready = std::max(
      {regReady(op.src0), regReady(op.src1), regReady(op.src2)});
  Cycle earliest = std::max(dispatch + 1, src_ready);  // 1-cycle rename

  Cycle issue = earliest;
  Cycle complete = 0;
  switch (op.cls) {
    case OpClass::kLoad: {
      issue = allocPort(mem_ports_, allocQueueSlot(ldq_, ldq_head_, earliest));
      // Store-to-load forwarding: a recent older store to the same line
      // supplies the data from the store queue, bypassing the cache (and,
      // crucially, any still-in-flight miss the store started).
      const Addr line = lineAddr(op.addr);
      Cycle forward = 0;
      bool forwarded = false;
      for (const PendingStore& ps : pending_stores_) {
        if (ps.line == line && issue < ps.retire) {
          forwarded = true;
          forward = std::max(forward, ps.data_ready);
        }
      }
      if (forwarded) {
        complete = std::max(issue, forward) + 1;
        // The cache port is still occupied but data comes from the STQ.
      } else {
        const MemAccess a = mem_->load(core_id_, op.pc, op.addr, issue);
        complete = a.complete;
      }
      mem_frontier_ = std::max(mem_frontier_, issue);
      const Cycle cm = commit(complete);
      ldq_[(ldq_head_ == 0 ? ldq_.size() : ldq_head_) - 1] = cm;
      break;
    }
    case OpClass::kStore: {
      issue = allocPort(mem_ports_, allocQueueSlot(stq_, stq_head_, earliest));
      // Stores write the cache at commit; the op itself completes quickly.
      const MemAccess a = mem_->store(core_id_, op.pc, op.addr, issue);
      mem_frontier_ = std::max(mem_frontier_, issue);
      complete = issue + params_.lat.of(op.cls);
      const Cycle cm = commit(std::max(complete, a.complete));
      stq_[(stq_head_ == 0 ? stq_.size() : stq_head_) - 1] = cm;
      pending_stores_[pending_head_] = {lineAddr(op.addr), complete, cm};
      if (++pending_head_ == pending_stores_.size()) pending_head_ = 0;
      break;
    }
    case OpClass::kIntDiv: {
      issue = allocPort(int_ports_, std::max(earliest, div_free_));
      complete = issue + params_.lat.of(op.cls);
      div_free_ = complete;
      commit(complete);
      break;
    }
    case OpClass::kFpDiv:
    case OpClass::kFpSqrt: {
      issue = allocPort(fp_ports_, std::max(earliest, fdiv_free_));
      complete = issue + params_.lat.of(op.cls);
      fdiv_free_ = complete;
      commit(complete);
      break;
    }
    case OpClass::kFpAdd:
    case OpClass::kFpMul:
    case OpClass::kFpCvt: {
      issue = allocPort(fp_ports_, earliest);
      complete = issue + params_.lat.of(op.cls);
      commit(complete);
      break;
    }
    case OpClass::kFence: {
      // Serialize against everything in flight.
      Cycle frontier = std::max(earliest, max_commit_);
      issue = frontier;
      complete = frontier + params_.lat.of(op.cls);
      commit(complete);
      break;
    }
    default: {  // integer ALU, mul, control flow, nop
      issue = allocPort(int_ports_, earliest);
      complete = issue + params_.lat.of(op.cls);
      commit(complete);
      break;
    }
  }

  // Re-arm the issue-queue slot with this op's issue cycle.
  (*iq)[*iq_head] = issue;
  if (++*iq_head == iq->size()) *iq_head = 0;

  // --- Control flow -----------------------------------------------------
  if (isCtrlOp(op.cls)) {
    const FrontEndOutcome outcome = front_end_->predictAndTrain(op);
    if (outcome.mispredict) {
      c_mispredicts_->add();
      // Dispatch of younger ops waits for resolution + front-end refill.
      fetch_ready_ =
          std::max(fetch_ready_, complete + params_.redirect_penalty);
      last_fetch_line_ = ~Addr{0};
    }
  }

  setRegReady(op.dst, complete);
  // Record this op's commit time in the ROB ring (the ring index for this
  // op is the slot we advanced past at dispatch).
  rob_commit_[rob_head_] = max_commit_;  // rob_head_ is always in range
  if (++rob_head_ == rob_commit_.size()) rob_head_ = 0;

  ++retired_;
}

void OooCore::warmOp(const MicroOp& op) {
  assert(op.cls != OpClass::kMpi && "MPI ops are handled by the runtime");
  const Addr line = lineAddr(op.pc);
  if (line != last_fetch_line_) {
    last_fetch_line_ = line;
    mem_->warmIfetch(core_id_, op.pc);
  }
  if (op.cls == OpClass::kLoad) {
    // No store-to-load forwarding during fast-forward: the store queue is a
    // timing structure, and the cache already holds the warmed line.
    mem_->warmLoad(core_id_, op.pc, op.addr);
  } else if (op.cls == OpClass::kStore) {
    mem_->warmStore(core_id_, op.pc, op.addr);
  }
  if (isCtrlOp(op.cls)) {
    const FrontEndOutcome outcome = front_end_->predictAndTrain(op);
    if (outcome.mispredict) {
      c_mispredicts_->add();
      last_fetch_line_ = ~Addr{0};
    }
  }
}

Cycle OooCore::drain() {
  const Cycle f = frontier();
  skipTo(f);
  return f;
}

void OooCore::skipTo(Cycle c) {
  if (c <= dispatch_cycle_) return;
  dispatch_cycle_ = c;
  fetch_ready_ = std::max(fetch_ready_, c);
  dispatched_this_cycle_ = 0;
}

}  // namespace bridge
