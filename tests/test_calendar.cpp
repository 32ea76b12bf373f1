#include "sim/calendar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "sim/rng.h"

namespace bridge {
namespace {

// The deque calendar BusyCalendar replaced, kept as the reference: every
// scan walks the window from the oldest interval. BusyCalendar's binary-
// searched scan start and fixed array must place every request where this
// does, and forget the same history.
class DequeCalendar {
 public:
  explicit DequeCalendar(unsigned window) : window_(window) {}

  Cycle peek(Cycle ready, Cycle duration) const {
    if (intervals_.empty() || ready >= intervals_.back().end) return ready;
    Cycle candidate = ready;
    for (const Interval& iv : intervals_) {
      if (candidate + duration <= iv.start) break;
      candidate = std::max(candidate, iv.end);
    }
    return candidate;
  }

  Cycle reserve(Cycle ready, Cycle duration) {
    busy_cycles_ += duration;
    if (intervals_.empty() || ready >= intervals_.back().end) {
      if (!intervals_.empty() && intervals_.back().end == ready) {
        intervals_.back().end = ready + duration;
      } else {
        intervals_.push_back(Interval{ready, ready + duration});
        if (intervals_.size() > window_) intervals_.pop_front();
      }
      return ready;
    }
    Cycle candidate = ready;
    std::size_t insert_at = 0;
    for (std::size_t i = 0; i < intervals_.size(); ++i) {
      const Interval& iv = intervals_[i];
      if (candidate + duration <= iv.start) {
        insert_at = i;
        break;
      }
      candidate = std::max(candidate, iv.end);
      insert_at = i + 1;
    }
    const Cycle end = candidate + duration;
    const auto at = intervals_.begin() + static_cast<std::ptrdiff_t>(insert_at);
    if (insert_at > 0 && intervals_[insert_at - 1].end == candidate) {
      intervals_[insert_at - 1].end = end;
      if (insert_at < intervals_.size() && intervals_[insert_at].start == end) {
        intervals_[insert_at - 1].end = intervals_[insert_at].end;
        intervals_.erase(at);
      }
    } else if (insert_at < intervals_.size() &&
               intervals_[insert_at].start == end) {
      intervals_[insert_at].start = candidate;
    } else {
      intervals_.insert(at, Interval{candidate, end});
    }
    while (intervals_.size() > window_) intervals_.pop_front();
    return candidate;
  }

  std::uint64_t busyCycles() const { return busy_cycles_; }
  Cycle horizon() const {
    return intervals_.empty() ? 0 : intervals_.back().end;
  }
  std::size_t trackedIntervals() const { return intervals_.size(); }

 private:
  struct Interval {
    Cycle start;
    Cycle end;
  };
  unsigned window_;
  std::deque<Interval> intervals_;
  std::uint64_t busy_cycles_ = 0;
};

TEST(BusyCalendar, FirstReservationStartsAtReady) {
  BusyCalendar cal;
  EXPECT_EQ(cal.reserve(100, 4), 100u);
  EXPECT_EQ(cal.horizon(), 104u);
}

TEST(BusyCalendar, BackToBackSerializes) {
  BusyCalendar cal;
  EXPECT_EQ(cal.reserve(0, 8), 0u);
  EXPECT_EQ(cal.reserve(0, 8), 8u);
  EXPECT_EQ(cal.reserve(0, 8), 16u);
}

TEST(BusyCalendar, EarlierRequestFitsInGapBeforeFutureReservation) {
  // The whole point of the calendar: a reservation made at a future cycle
  // must not block an earlier one that fits before it.
  BusyCalendar cal;
  cal.reserve(1000, 4);             // future charge from a skewed core
  EXPECT_EQ(cal.reserve(10, 4), 10u);  // earlier arrival slots right in
  EXPECT_EQ(cal.reserve(998, 4), 1004u);  // doesn't fit before 1000: queues
}

TEST(BusyCalendar, GapMustFitDuration) {
  BusyCalendar cal;
  cal.reserve(10, 4);   // [10,14)
  cal.reserve(20, 4);   // [20,24)
  // A 6-cycle job does not fit the [14,20) gap... it does (6 == 20-14).
  EXPECT_EQ(cal.reserve(14, 6), 14u);
  // Now the region [10,24) is solid; an 8-cycle job goes after.
  EXPECT_EQ(cal.reserve(10, 8), 24u);
}

TEST(BusyCalendar, BusyCyclesAccumulate) {
  BusyCalendar cal;
  cal.reserve(0, 3);
  cal.reserve(100, 5);
  EXPECT_EQ(cal.busyCycles(), 8u);
}

TEST(BusyCalendar, AdjacentIntervalsMerge) {
  BusyCalendar cal;
  cal.reserve(0, 4);
  cal.reserve(4, 4);
  cal.reserve(8, 4);
  EXPECT_LE(cal.trackedIntervals(), 1u);
}

TEST(BusyCalendar, WindowBoundsMemory) {
  BusyCalendar cal(16);
  Xorshift64Star rng(3);
  for (int i = 0; i < 10000; ++i) {
    cal.reserve(rng.nextBelow(1 << 20), 1 + rng.nextBelow(8));
  }
  EXPECT_LE(cal.trackedIntervals(), 16u);
}

TEST(BusyCalendar, ReservationsNeverOverlapWithinWindow) {
  // With a window large enough that nothing is evicted, every pair of
  // reservations must be disjoint.
  BusyCalendar cal(1024);
  Xorshift64Star rng(7);
  std::vector<std::pair<Cycle, Cycle>> placed;
  for (int i = 0; i < 500; ++i) {
    const Cycle ready = rng.nextBelow(10000);
    const Cycle dur = 1 + rng.nextBelow(10);
    const Cycle start = cal.reserve(ready, dur);
    EXPECT_GE(start, ready);
    placed.emplace_back(start, start + dur);
  }
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      const bool disjoint = placed[i].second <= placed[j].first ||
                            placed[j].second <= placed[i].first;
      EXPECT_TRUE(disjoint) << i << "," << j;
    }
  }
}

TEST(BusyCalendar, PeekMatchesReserveAndDoesNotMutate) {
  BusyCalendar cal;
  cal.reserve(10, 4);
  cal.reserve(20, 4);
  const Cycle peeked = cal.peek(10, 4);
  EXPECT_EQ(cal.peek(10, 4), peeked);  // idempotent
  EXPECT_EQ(cal.reserve(10, 4), peeked);
}

TEST(BusyCalendar, MatchesDequeReferenceOnRandomStreams) {
  // One seeded stream per window: requests past the horizon (gapped, or
  // extending the last interval), just behind it, and anywhere back to
  // cycle 0, which includes history the window has already forgotten.
  for (const unsigned window : {16u, 64u, 1024u}) {
    BusyCalendar cal(window);
    DequeCalendar ref(window);
    Xorshift64Star rng(window);
    std::size_t most_tracked = 0;
    for (int i = 0; i < 40000; ++i) {
      const Cycle h = ref.horizon();
      const std::uint64_t kind = rng.nextBelow(10);
      Cycle ready = 0;
      if (kind < 4) {
        ready = h + rng.nextBelow(12);
      } else if (kind < 8) {
        ready = h - rng.nextBelow(std::min<Cycle>(h, 64) + 1);
      } else {
        ready = rng.nextBelow(h + 1);
      }
      const Cycle dur = 1 + rng.nextBelow(8);
      SCOPED_TRACE(testing::Message() << "window " << window << " call " << i
                                      << " ready " << ready << " dur " << dur);
      ASSERT_EQ(cal.peek(ready, dur), ref.peek(ready, dur));
      ASSERT_EQ(cal.reserve(ready, dur), ref.reserve(ready, dur));
      ASSERT_EQ(cal.busyCycles(), ref.busyCycles());
      ASSERT_EQ(cal.horizon(), ref.horizon());
      ASSERT_EQ(cal.trackedIntervals(), ref.trackedIntervals());
      most_tracked = std::max(most_tracked, cal.trackedIntervals());
    }
    // The stream filled the window, so forgetting was exercised too.
    EXPECT_EQ(most_tracked, window);
  }
}

}  // namespace
}  // namespace bridge
