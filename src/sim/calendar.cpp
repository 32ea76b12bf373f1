#include "sim/calendar.h"

#include <algorithm>
#include <cassert>

namespace bridge {

BusyCalendar::BusyCalendar(unsigned window)
    : window_(window), buf_(2 * std::size_t{window}) {
  assert(window >= 1);
}

std::size_t BusyCalendar::findGap(Cycle ready, Cycle duration,
                                  Cycle* start) const {
  const Interval* const first = buf_.data() + head_;
  const Interval* const last = first + size_;
  const Interval* it = std::partition_point(
      first, last, [ready](const Interval& iv) { return iv.end <= ready; });
  Cycle candidate = ready;
  for (; it != last; ++it) {
    if (candidate + duration <= it->start) break;  // fits before it
    candidate = std::max(candidate, it->end);
  }
  *start = candidate;
  return static_cast<std::size_t>(it - first);
}

Cycle BusyCalendar::peek(Cycle ready, Cycle duration) const {
  assert(duration > 0);
  // At-or-past-horizon requests never collide — the common case for a
  // monotone access stream; hostbench's `sim.calendar.scan_frac` is the
  // share of calls that are not.
  if (ready >= horizon()) return ready;
  Cycle start = 0;
  findGap(ready, duration, &start);
  return start;
}

Cycle BusyCalendar::reserve(Cycle ready, Cycle duration) {
  assert(duration > 0);
  busy_cycles_ += duration;

  // At-or-past-horizon reservations append (or extend the last interval)
  // without scanning; placement is identical to the general path below.
  if (ready >= horizon()) {
    if (size_ != 0 && horizon() == ready) {
      buf_[head_ + size_ - 1].end = ready + duration;
    } else {
      insert(size_, Interval{ready, ready + duration});
    }
    return ready;
  }

  Cycle start = 0;
  const std::size_t pos = findGap(ready, duration, &start);

  // Merge with neighbours when adjacent to keep the interval count small.
  Interval* const live = buf_.data() + head_;
  const Cycle end = start + duration;
  if (pos > 0 && live[pos - 1].end == start) {
    live[pos - 1].end = end;
    // May now touch the next interval.
    if (pos < size_ && live[pos].start == end) {
      live[pos - 1].end = live[pos].end;
      erase(pos);
    }
  } else if (pos < size_ && live[pos].start == end) {
    live[pos].start = start;
  } else {
    insert(pos, Interval{start, end});
  }
  return start;
}

void BusyCalendar::insert(std::size_t pos, Interval iv) {
  // size_ <= window_ here, so once the live range is back at the front of
  // the 2×window array there is room for one more.
  if (head_ + size_ == buf_.size()) {
    std::copy(buf_.data() + head_, buf_.data() + head_ + size_, buf_.data());
    head_ = 0;
  }
  Interval* const live = buf_.data() + head_;
  std::copy_backward(live + pos, live + size_, live + size_ + 1);
  live[pos] = iv;
  // Forget the oldest interval once the window overflows (the one just
  // inserted, if it went in at the front).
  if (++size_ > window_) {
    ++head_;
    --size_;
  }
}

void BusyCalendar::erase(std::size_t pos) {
  Interval* const live = buf_.data() + head_;
  std::copy(live + pos + 1, live + size_, live + pos);
  --size_;
}

}  // namespace bridge
