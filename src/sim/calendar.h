// Busy-interval calendar for shared-resource occupancy.
//
// Multi-core co-simulation processes each core's micro-ops in bursts whose
// resource charges are spread over a window of cycles (an out-of-order
// core's loads issue far apart from its fetches). A scalar `next_free`
// cursor would let a reservation made at a *future* cycle block another
// core's *earlier* access — serializing cores that should overlap. The
// calendar instead records recent busy intervals and places each new
// reservation in the first real gap, so interleaved charges from skewed
// cores only contend when they genuinely collide.
//
// Invariant: the tracked intervals are sorted by start, disjoint, and never
// adjacent (a reservation that touches a neighbour merges into it). Their
// ends are therefore sorted too, and an interval ending at or before `ready`
// can never move a request's placement; peek() and reserve() binary-search
// past those and scan from the first interval still live at `ready`.
//
// The window is bounded: intervals older than the `window` most recent are
// forgotten, which can let a very late straggler overlap forgotten history
// (slightly optimistic, never deadlocking). Measured against a calendar
// that keeps 65,536 intervals, 0.07–0.19% of reservations land on
// forgotten busy time (NPB and LAMMPS-LJ on the four Sim/Hw platforms), and
// a 1024-interval window moves total simulated cycles by at most 0.11%.
//
// Storage is one array of 2×window intervals allocated at construction. The
// live range slides forward as old intervals are forgotten and is moved back
// to the front, in one copy, when it reaches the end of the array.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace bridge {

class BusyCalendar {
 public:
  /// window must be >= 1.
  explicit BusyCalendar(unsigned window = 64);

  /// Reserve `duration` cycles starting no earlier than `ready`; returns
  /// the start cycle of the reservation. duration must be > 0.
  Cycle reserve(Cycle ready, Cycle duration);

  /// Where would reserve() place this request? Does not mutate.
  Cycle peek(Cycle ready, Cycle duration) const;

  /// Total cycles ever reserved (utilization accounting).
  std::uint64_t busyCycles() const { return busy_cycles_; }

  /// End of the latest reservation (diagnostics / tests).
  Cycle horizon() const {
    return size_ == 0 ? 0 : buf_[head_ + size_ - 1].end;
  }

  std::size_t trackedIntervals() const { return size_; }

 private:
  struct Interval {
    Cycle start;
    Cycle end;  // exclusive
  };

  /// First gap at or after `ready` that fits `duration`, for a request
  /// that lands before the horizon: stores its start in `*start` and
  /// returns the live index the reservation would be inserted at.
  std::size_t findGap(Cycle ready, Cycle duration, Cycle* start) const;
  void insert(std::size_t pos, Interval iv);
  void erase(std::size_t pos);

  unsigned window_;
  std::vector<Interval> buf_;  // live intervals are [head_, head_ + size_)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace bridge
