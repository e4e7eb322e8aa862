#include "src/util/sim_clock.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace androne {
namespace {

TEST(SimClockTest, StartsAtZero) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  EXPECT_TRUE(clock.empty());
}

TEST(SimClockTest, RunNextAdvancesToEventTime) {
  SimClock clock;
  bool ran = false;
  clock.ScheduleAt(Millis(5), [&] { ran = true; });
  EXPECT_TRUE(clock.RunNext());
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), Millis(5));
  EXPECT_FALSE(clock.RunNext());
}

TEST(SimClockTest, EventsRunInTimeOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  clock.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  clock.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  clock.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimClockTest, EqualTimesRunFifo) {
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.ScheduleAt(Millis(1), [&order, i] { order.push_back(i); });
  }
  clock.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClockTest, ScheduleAfterUsesCurrentTime) {
  SimClock clock;
  clock.ScheduleAt(Millis(10), [] {});
  clock.RunNext();
  SimTime fired_at = -1;
  clock.ScheduleAfter(Millis(5), [&] { fired_at = clock.now(); });
  clock.RunNext();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(SimClockTest, PastDeadlinesClampToNow) {
  SimClock clock;
  clock.ScheduleAt(Millis(10), [] {});
  clock.RunNext();
  SimTime fired_at = -1;
  clock.ScheduleAt(Millis(1), [&] { fired_at = clock.now(); });
  clock.RunNext();
  EXPECT_EQ(fired_at, Millis(10));  // Not earlier than now.
}

TEST(SimClockTest, CancelPreventsExecution) {
  SimClock clock;
  bool ran = false;
  EventId id = clock.ScheduleAt(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_TRUE(clock.empty());
  clock.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SimClockTest, CancelOfRunEventReturnsFalse) {
  SimClock clock;
  EventId id = clock.ScheduleAt(Millis(1), [] {});
  clock.RunNext();
  EXPECT_FALSE(clock.Cancel(id));
}

TEST(SimClockTest, CancelUnknownIdReturnsFalse) {
  SimClock clock;
  EXPECT_FALSE(clock.Cancel(12345));
}

TEST(SimClockTest, RunUntilAdvancesClockEvenWhenIdle) {
  SimClock clock;
  clock.RunUntil(Seconds(3));
  EXPECT_EQ(clock.now(), Seconds(3));
}

TEST(SimClockTest, RunUntilRunsOnlyDueEvents) {
  SimClock clock;
  int ran = 0;
  clock.ScheduleAt(Millis(10), [&] { ++ran; });
  clock.ScheduleAt(Millis(20), [&] { ++ran; });
  clock.RunUntil(Millis(15));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.now(), Millis(15));
  EXPECT_EQ(clock.pending_events(), 1u);
}

TEST(SimClockTest, EventsMayScheduleMoreEvents) {
  SimClock clock;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      clock.ScheduleAfter(Millis(1), chain);
    }
  };
  clock.ScheduleAfter(Millis(1), chain);
  clock.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(clock.now(), Millis(5));
}

TEST(SimClockTest, RunForAdvancesRelative) {
  SimClock clock;
  clock.RunFor(Seconds(1));
  clock.RunFor(Seconds(1));
  EXPECT_EQ(clock.now(), Seconds(2));
}

TEST(SimClockTest, RunAllGuardStopsRunawayLoops) {
  SimClock clock;
  uint64_t ran = 0;
  std::function<void()> forever = [&] {
    ++ran;
    clock.ScheduleAfter(Millis(1), forever);
  };
  clock.ScheduleAfter(Millis(1), forever);
  clock.RunAll(/*max_events=*/1000);
  EXPECT_EQ(ran, 1000u);
}

TEST(SimClockTest, CancelledPendingTracksTombstones) {
  SimClock clock;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(clock.ScheduleAt(Millis(i + 1), [] {}));
  }
  EXPECT_EQ(clock.cancelled_pending(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(clock.Cancel(ids[i]));
  }
  EXPECT_EQ(clock.cancelled_pending(), 4u);
  EXPECT_EQ(clock.pending_events(), 6u);
  clock.RunAll();
  EXPECT_EQ(clock.cancelled_pending(), 0u);  // Tombstones shed by the pops.
  EXPECT_EQ(clock.pending_events(), 0u);
  EXPECT_EQ(clock.events_run(), 6u);
}

TEST(SimClockTest, CompactionBoundsTombstoneAccumulation) {
  SimClock clock;
  // A retry-timer workload: schedule far-future timers and cancel nearly all
  // of them. Without compaction the heap would hold every tombstone until
  // the end of time.
  std::vector<EventId> ids;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(clock.ScheduleAt(Seconds(1000 + i), [] {}));
  }
  for (int i = 0; i < 512; ++i) {
    if (i % 8 != 0) {
      EXPECT_TRUE(clock.Cancel(ids[i]));
    }
  }
  EXPECT_EQ(clock.pending_events(), 64u);
  EXPECT_GE(clock.compactions(), 1u);
  // Compaction keeps tombstones at no more than half the heap.
  EXPECT_LE(clock.cancelled_pending(), clock.pending_events());
  int ran = 0;
  clock.ScheduleAt(Millis(1), [&] { ++ran; });
  clock.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.events_run(), 65u);
  EXPECT_EQ(clock.cancelled_pending(), 0u);
}

TEST(SimClockTest, SlotReuseAfterCancelKeepsIdsDistinct) {
  SimClock clock;
  bool a_ran = false;
  bool b_ran = false;
  EventId a = clock.ScheduleAt(Millis(1), [&] { a_ran = true; });
  EXPECT_TRUE(clock.Cancel(a));
  // b may recycle a's slot, but a's id must stay dead.
  EventId b = clock.ScheduleAt(Millis(2), [&] { b_ran = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(clock.Cancel(a));
  clock.RunAll();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
}

TEST(SimClockTest, EventIdsAreNeverZero) {
  SimClock clock;
  for (int i = 0; i < 100; ++i) {
    EventId id = clock.ScheduleAfter(Millis(1), [] {});
    EXPECT_NE(id, 0u);  // 0 is the "no event" sentinel for callers.
    clock.Cancel(id);
  }
}

TEST(SimClockTest, RunUntilDoesNotOverrunPastCancelledFront) {
  SimClock clock;
  int ran = 0;
  EventId early = clock.ScheduleAt(Millis(10), [&] { ++ran; });
  clock.ScheduleAt(Millis(20), [&] { ++ran; });
  clock.Cancel(early);
  // The tombstone at 10 ms must not let the 20 ms event run at 15 ms.
  clock.RunUntil(Millis(15));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(clock.now(), Millis(15));
  clock.RunUntil(Millis(25));
  EXPECT_EQ(ran, 1);
}

// --- Tick lanes ---

TEST(SimClockLaneTest, LaneAndHeapTieRunInSequenceOrder) {
  // Lane armed first: it holds the smaller stamp and runs first.
  {
    SimClock clock;
    std::vector<int> order;
    SimClock::LaneId lane = clock.AddLane([&] { order.push_back(1); });
    clock.ArmLane(lane, Millis(5));
    clock.ScheduleAt(Millis(5), [&] { order.push_back(2); });
    clock.RunAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
  // Heap event scheduled first: it runs first.
  {
    SimClock clock;
    std::vector<int> order;
    SimClock::LaneId lane = clock.AddLane([&] { order.push_back(2); });
    clock.ScheduleAt(Millis(5), [&] { order.push_back(1); });
    clock.ArmLane(lane, Millis(5));
    clock.RunAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
}

TEST(SimClockLaneTest, CancelLaneOnceWithoutTombstoneOrCompaction) {
  SimClock clock;
  // A heap big enough that a tombstone per cancel would force compactions.
  for (int i = 0; i < 128; ++i) {
    clock.ScheduleAt(Seconds(100 + i), [] {});
  }
  int ran = 0;
  SimClock::LaneId lane = clock.AddLane([&] { ++ran; });
  for (int i = 0; i < 1000; ++i) {
    EventId id = clock.ArmLane(lane, Millis(1));
    EXPECT_EQ(clock.pending_events(), 129u);
    EXPECT_TRUE(clock.Cancel(id));
    EXPECT_FALSE(clock.Cancel(id));
  }
  EXPECT_EQ(clock.cancelled_pending(), 0u);
  EXPECT_EQ(clock.compactions(), 0u);
  EXPECT_EQ(clock.pending_events(), 128u);
  clock.RunUntil(Seconds(1));
  EXPECT_EQ(ran, 0);
}

TEST(SimClockLaneTest, PendingInfoReportsLaneDeadlineAndStamp) {
  SimClock clock;
  SimClock::LaneId lane = clock.AddLane([] {});
  EventId heap = clock.ScheduleAt(Millis(7), [] {});
  EventId tick = clock.ArmLane(lane, Millis(9));
  SimTime when = 0;
  uint64_t heap_seq = 0;
  uint64_t lane_seq = 0;
  ASSERT_TRUE(clock.PendingInfo(heap, &when, &heap_seq));
  ASSERT_TRUE(clock.PendingInfo(tick, &when, &lane_seq));
  EXPECT_EQ(when, Millis(9));
  EXPECT_EQ(lane_seq, heap_seq + 1);  // One counter, stamped at arm time.
  clock.RunAll();
  EXPECT_FALSE(clock.PendingInfo(tick, &when, &lane_seq));
}

TEST(SimClockLaneTest, ResetForRestoreDisarmsLanesAndStalesTheirIds) {
  SimClock clock;
  int ran = 0;
  SimClock::LaneId lane = clock.AddLane([&] { ++ran; });
  EventId tick = clock.ArmLane(lane, Millis(3));
  clock.ScheduleAt(Millis(4), [&] { ++ran; });
  clock.ResetForRestore(Millis(1), 42);
  EXPECT_TRUE(clock.empty());
  EXPECT_EQ(clock.now(), Millis(1));
  EXPECT_EQ(clock.events_run(), 42u);
  SimTime when = 0;
  uint64_t seq = 0;
  EXPECT_FALSE(clock.PendingInfo(tick, &when, &seq));
  EXPECT_FALSE(clock.Cancel(tick));
  clock.RunAll();
  EXPECT_EQ(ran, 0);
  // The bound callback survives the reset; the restored owner re-arms it.
  EventId rearmed = clock.ArmLane(lane, Millis(3));
  EXPECT_NE(rearmed, tick);
  clock.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.events_run(), 43u);
}

TEST(SimClockLaneTest, RunUntilStopsBeforeALaneDeadlinePastUntil) {
  SimClock clock;
  int ran = 0;
  SimClock::LaneId lane = clock.AddLane([&] { ++ran; });
  clock.ArmLane(lane, Millis(20));
  clock.RunUntil(Millis(15));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(clock.now(), Millis(15));
  clock.RunUntil(Millis(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.now(), Millis(20));
}

TEST(SimClockLaneTest, LaneTicksCountAsEventsAndFireTheDispatchHook) {
  SimClock clock;
  std::vector<SimTime> hooked;
  clock.SetDispatchHook([&](SimTime when) { hooked.push_back(when); });
  int ticks = 0;
  SimClock::LaneId lane = 0;
  lane = clock.AddLane([&] {
    if (++ticks < 10) {
      clock.ArmLane(lane, clock.now() + Millis(2));
    }
  });
  clock.ArmLane(lane, Millis(2));
  clock.ScheduleAt(Millis(5), [] {});
  clock.RunAll();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(clock.events_run(), 11u);
  ASSERT_EQ(hooked.size(), 11u);
  EXPECT_EQ(hooked[2], Millis(5));
  EXPECT_EQ(hooked.back(), Millis(20));
}

TEST(SimClockLaneTest, RearmingAnArmedLaneReplacesItsTick) {
  SimClock clock;
  std::vector<SimTime> fired;
  SimClock::LaneId lane = clock.AddLane([&] { fired.push_back(clock.now()); });
  EventId first = clock.ArmLane(lane, Millis(10));
  clock.ArmLane(lane, Millis(4));
  EXPECT_EQ(clock.pending_events(), 1u);
  EXPECT_FALSE(clock.Cancel(first));
  clock.RunAll();
  EXPECT_EQ(fired, (std::vector<SimTime>{Millis(4)}));
}

TEST(SimClockLaneTest, AddLaneInsideALaneCallbackKeepsItValid) {
  SimClock clock;
  std::vector<int> order;
  SimClock::LaneId lane = 0;
  int ticks = 0;
  lane = clock.AddLane([&] {
    // Enough new lanes to grow the lane storage several times over while
    // this callback is still running.
    for (int i = 0; i < 300; ++i) {
      SimClock::LaneId extra = clock.AddLane([&order, i] {
        order.push_back(i);
      });
      if (i % 100 == 0) {
        clock.ArmLane(extra, clock.now() + Millis(1));
      }
    }
    ++ticks;
    order.push_back(-ticks);
    if (ticks < 2) {
      clock.ArmLane(lane, clock.now() + Millis(1));
    }
  });
  clock.ArmLane(lane, Millis(1));
  clock.RunAll();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 100, 200, -2, 0, 100, 200}));
}

// Seeded equivalence: one random mix of self-rescheduling periodic timers,
// one-shots and cancels, driven once with every timer on the heap and once
// with the periodic timers on lanes, must dispatch identically. The mix
// draws its decisions from an Rng consumed in dispatch order, so a single
// reordering changes everything after it.
class TimerMix {
 public:
  TimerMix(uint64_t seed, bool lanes) : lanes_(lanes), rng_(seed) {
    size_t count = 2 + rng_.NextU64Below(6);
    for (size_t k = 0; k < count; ++k) {
      // Periods and offsets on a 1 ms grid, so deadlines tie often.
      Periodic p;
      p.period = Millis(1 + static_cast<int64_t>(rng_.NextU64Below(6)));
      if (lanes_) {
        p.lane = clock_.AddLane([this, k] { Tick(k); });
      }
      periodic_.push_back(p);
    }
    for (size_t k = 0; k < periodic_.size(); ++k) {
      Arm(k, Millis(static_cast<int64_t>(rng_.NextU64Below(4))));
      if (rng_.Bernoulli(0.5)) {
        ScheduleOneShot();
      }
    }
  }

  // Advances in seeded chunks: RunUntil and RunNext both dispatch.
  void Drive(uint64_t seed, SimTime horizon) {
    Rng steps(seed);
    while (clock_.now() < horizon) {
      if (steps.Bernoulli(0.2)) {
        clock_.RunNext();
      } else {
        clock_.RunUntil(clock_.now() +
                        Micros(static_cast<int64_t>(steps.NextU64Below(4000))));
      }
    }
  }

  const std::vector<std::pair<SimTime, int>>& log() const { return log_; }
  const SimClock& clock() const { return clock_; }

 private:
  struct Periodic {
    SimDuration period = 0;
    SimClock::LaneId lane = 0;
    EventId event = 0;
    bool alive = true;
  };

  void Arm(size_t k, SimTime when) {
    Periodic& p = periodic_[k];
    p.event = lanes_ ? clock_.ArmLane(p.lane, when)
                     : clock_.ScheduleAt(when, [this, k] { Tick(k); });
  }

  void Tick(size_t k) {
    log_.emplace_back(clock_.now(), static_cast<int>(k));
    Act();
    if (periodic_[k].alive) {
      Arm(k, clock_.now() + periodic_[k].period);
    }
  }

  void ScheduleOneShot() {
    int id = next_oneshot_++;
    SimDuration delay = Millis(static_cast<int64_t>(rng_.NextU64Below(5)));
    oneshots_.push_back(clock_.ScheduleAfter(delay, [this, id] {
      log_.emplace_back(clock_.now(), 1000 + id);
      Act();
    }));
  }

  void Act() {
    switch (rng_.NextU64Below(8)) {
      case 0:
      case 1:
        ScheduleOneShot();
        break;
      case 2:
        if (!oneshots_.empty()) {
          EventId id = oneshots_[rng_.NextU64Below(oneshots_.size())];
          log_.emplace_back(clock_.now(), clock_.Cancel(id) ? -1 : -2);
        }
        break;
      case 3: {
        // Stop a periodic timer, and restart it later from a one-shot.
        size_t k = rng_.NextU64Below(periodic_.size());
        Periodic& p = periodic_[k];
        if (p.alive && clock_.Cancel(p.event)) {
          p.alive = false;
          log_.emplace_back(clock_.now(), -10 - static_cast<int>(k));
          SimDuration delay =
              Millis(static_cast<int64_t>(rng_.NextU64Below(4)));
          clock_.ScheduleAfter(delay, [this, k] {
            periodic_[k].alive = true;
            Arm(k, clock_.now() + periodic_[k].period);
          });
        }
        break;
      }
      default:
        break;
    }
  }

  bool lanes_;
  SimClock clock_;
  Rng rng_;
  std::vector<Periodic> periodic_;
  std::vector<EventId> oneshots_;
  int next_oneshot_ = 0;
  std::vector<std::pair<SimTime, int>> log_;
};

TEST(SimClockLaneTest, LanesDispatchExactlyLikeTheHeap) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    TimerMix heap(seed, /*lanes=*/false);
    TimerMix lanes(seed, /*lanes=*/true);
    heap.Drive(seed * 7919, Millis(300));
    lanes.Drive(seed * 7919, Millis(300));
    ASSERT_GT(heap.log().size(), 100u) << "seed " << seed;
    ASSERT_EQ(heap.log(), lanes.log()) << "seed " << seed;
    EXPECT_EQ(heap.clock().events_run(), lanes.clock().events_run())
        << "seed " << seed;
    EXPECT_EQ(heap.clock().pending_events(), lanes.clock().pending_events())
        << "seed " << seed;
    EXPECT_EQ(heap.clock().now(), lanes.clock().now()) << "seed " << seed;
  }
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_EQ(Micros(1), 1000);
  EXPECT_EQ(Millis(1), 1000000);
  EXPECT_EQ(Seconds(1), 1000000000);
  EXPECT_EQ(SecondsF(0.0025), 2500000);
  EXPECT_DOUBLE_EQ(ToSecondsF(Seconds(2)), 2.0);
  EXPECT_EQ(ToMicros(Millis(3)), 3000);
  EXPECT_EQ(ToMillis(Seconds(4)), 4000);
}

}  // namespace
}  // namespace androne
