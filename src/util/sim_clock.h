// SimClock: the deterministic discrete-event engine at the heart of the
// AnDrone simulation substrates. The real-time kernel scheduler, the flight
// physics, and the network link models all schedule callbacks on one shared
// SimClock so an entire multi-virtual-drone flight is reproducible and runs
// orders of magnitude faster than wall-clock time.
//
// Hot-path design: cancellation is O(1) against a slot table of generation
// stamps instead of a per-event hash set. An EventId packs (slot, generation);
// a heap entry whose generation no longer matches its slot is a tombstone and
// is skipped when popped. When tombstones outnumber live events the heap is
// compacted in place, so a workload that schedules-and-cancels (retry timers,
// watchdogs) costs no hash allocations and no unbounded heap growth.
//
// Tick lanes: a fixed-rate timer (the flight controller's 400 Hz fast loop
// and its telemetry loops) binds its callback once with AddLane and re-arms
// it each tick with ArmLane, which touches neither the heap nor a closure.
// - Ordering key. Arming a lane takes its FIFO stamp from the same sequence
//   counter as ScheduleAt, and dispatch merges the armed lanes with the heap
//   by the one (deadline, sequence) key, so an event runs at exactly the
//   point it would have run as a heap entry scheduled by the same call.
// - Cancellation. ArmLane returns an ordinary EventId from the same slot
//   table: Cancel, PendingInfo and stale-id checks treat it like any other
//   event. Cancelling a lane disarms it in place — it leaves no tombstone,
//   so it neither raises cancelled_pending() nor triggers a compaction.
// - Restore. ResetForRestore disarms every lane (lane ids held by the
//   caller then read as already run) but keeps the bound callbacks; a
//   restored component re-arms its lanes from the checkpoint's timer table.
// - AddLane during dispatch is allowed: lanes live in stable storage, so
//   adding one never moves a lane whose callback is running.
// The earliest armed lane is cached, so a clock that never arms a lane
// dispatches at heap-only cost plus one branch. Finding the next lane after
// one runs scans the lanes, which suits the handful of periodic timers per
// clock that lanes are for; one-shot and irregular timers stay on the heap.
#ifndef SRC_UTIL_SIM_CLOCK_H_
#define SRC_UTIL_SIM_CLOCK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/util/arena.h"
#include "src/util/time.h"

namespace androne {

// Identifies a scheduled event so it can be cancelled. Packs a slot index in
// the high 32 bits and that slot's generation stamp in the low 32; never 0,
// so 0 remains usable as a "no event" sentinel by callers.
using EventId = uint64_t;

class SimClock {
 public:
  using Callback = std::function<void()>;

  // |arena| (optional, borrowed) backs the event heap, slot table, and
  // free-slot stack, so a fleet worker's worlds never touch the global
  // allocator for clock bookkeeping (DESIGN.md §14). Closure captures
  // larger than std::function's inline buffer still heap-allocate.
  explicit SimClock(Arena* arena = nullptr)
      : heap_(ArenaAllocator<Event>(arena)),
        slots_(ArenaAllocator<Slot>(arena)),
        free_slots_(ArenaAllocator<uint32_t>(arena)),
        lanes_(ArenaAllocator<Lane>(arena)) {}
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  SimTime now() const { return now_; }

  // Schedules |cb| to run at absolute simulated time |when| (clamped to now).
  EventId ScheduleAt(SimTime when, Callback cb);

  // Schedules |cb| to run |delay| after the current simulated time.
  EventId ScheduleAfter(SimDuration delay, Callback cb);

  // Cancels a pending event or armed lane tick. Returns false if it already
  // ran or is unknown.
  bool Cancel(EventId id);

  // --- Tick lanes (see the file comment) ---
  using LaneId = uint32_t;

  // Binds |cb| to a new, unarmed lane. The lane lives as long as the clock.
  LaneId AddLane(Callback cb);

  // Arms |lane| to run its callback at absolute time |when| (clamped to
  // now), taking the next FIFO sequence stamp exactly as ScheduleAt would.
  // Re-arming a lane that is still armed replaces its pending tick. The
  // lane is disarmed when its tick runs, before the callback, so the
  // callback may re-arm it.
  EventId ArmLane(LaneId lane, SimTime when);

  // Runs the single earliest pending event, advancing the clock to its
  // deadline. Returns false if no events are pending.
  bool RunNext();

  // Runs all events with deadline <= |until|, then advances the clock to
  // |until| even if the queue drains early.
  void RunUntil(SimTime until);

  // Runs the simulation forward by |duration|.
  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  // Drains every pending event (events may schedule more events). The
  // |max_events| guard counts executed (non-cancelled) events and protects
  // against runaway self-rescheduling loops.
  void RunAll(uint64_t max_events = 100'000'000);

  // Optional observer invoked after the clock advances to each executed
  // event's deadline, just before the callback runs. Null (the default)
  // costs a single branch per dispatch; the obs layer's AttachClockTrace
  // installs a sampled counter here. The hook must not mutate the clock.
  using DispatchHook = std::function<void(SimTime when)>;
  void SetDispatchHook(DispatchHook hook) { dispatch_hook_ = std::move(hook); }

  bool empty() const { return live_count_ == 0; }
  size_t pending_events() const { return live_count_; }

  // Cancelled events still occupying heap entries (tombstones awaiting a pop
  // or the next compaction). Bounded: compaction keeps this under
  // max(live, kCompactionMinEntries).
  size_t cancelled_pending() const { return cancelled_pending_; }

  // Total events executed (excludes cancelled) — the fleet benches report
  // aggregate events/sec from this.
  uint64_t events_run() const { return events_run_; }

  // Times the heap was compacted to shed tombstones.
  uint64_t compactions() const { return compactions_; }

  // --- Checkpoint/restore support (DESIGN.md §13) ---

  // Looks up a still-pending event: fills its absolute deadline and FIFO
  // sequence stamp and returns true, or returns false when the event
  // already ran or was cancelled. Save paths use this to persist each
  // armed timer's (deadline, order) so restore can re-schedule them in the
  // original relative dispatch order. O(lanes + heap) — checkpoint-time
  // only.
  bool PendingInfo(EventId id, SimTime* when, uint64_t* seq) const;

  // Restore entry point: drops every pending event (their closures belong
  // to the pre-restore world) and disarms every lane (keeping its bound
  // callback), rewinds/advances the clock to |now| and overwrites the
  // executed-event counter. Slot generations are NOT reset, so stale
  // EventIds held by the caller read as already-run. Components re-arm
  // their own timers and lanes afterwards.
  void ResetForRestore(SimTime now, uint64_t events_run);

 private:
  struct Slot {
    uint32_t generation = 1;  // Bumped on run/cancel; stale entries mismatch.
  };
  struct Event {
    SimTime when;
    uint64_t seq;  // Tie-break on insertion order for FIFO among equal times.
    uint32_t slot;
    uint32_t generation;
    Callback cb;
  };
  struct Lane {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
    bool armed = false;
    Callback cb;
  };
  // Dispatch order between an armed lane and a live heap entry.
  static bool LaneFirst(const Lane& lane, const Event& ev) {
    return lane.when != ev.when ? lane.when < ev.when : lane.seq < ev.seq;
  }
  // std::push_heap/pop_heap comparator: max-heap on "later", so the earliest
  // (or FIFO-first among equals) event surfaces at front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Below this size compaction is not worth the make_heap; tombstones are
  // shed by pops instead.
  static constexpr size_t kCompactionMinEntries = 64;

  bool IsLive(const Event& ev) const {
    return slots_[ev.slot].generation == ev.generation;
  }
  // Takes a free slot from the table, growing it when none is free.
  uint32_t TakeSlot();
  // Retires |slot| (run or cancelled): bumps the generation so heap entries
  // stamped with the old one read as tombstones, and recycles the slot.
  void RetireSlot(uint32_t slot);
  // Disarms an armed lane and retires its slot; refreshes next_lane_ when
  // |lane| was the cached earliest.
  void DisarmLane(Lane& lane);
  // The earliest armed lane by (deadline, sequence), or null.
  Lane* EarliestLane();
  // Pops the front heap entry, returning it by move.
  Event PopTop();
  // Drops tombstoned entries and re-heapifies. Called when cancelled
  // tombstones exceed half the heap.
  void MaybeCompact();
  // Pops tombstones off the heap front, so the front (if any) is live.
  void SkimTombstones();
  // True when the cached earliest lane runs before the live heap front.
  // Tombstones must have been skimmed.
  bool LaneRunsNext() const {
    return next_lane_ != nullptr &&
           (heap_.empty() || LaneFirst(*next_lane_, heap_.front()));
  }
  // Runs the cached earliest lane's tick.
  void RunLane();
  // Pops and runs the heap front, which must be live.
  void RunHeapFront();
  // Advances the clock to |when| and counts and observes the dispatch.
  void BeginDispatch(SimTime when) {
    now_ = when;
    ++events_run_;
    if (dispatch_hook_) {
      dispatch_hook_(now_);
    }
  }
  // Runs the earliest pending event, heap entry or lane tick, discarding
  // tombstones on the way. Returns false if nothing live was pending.
  bool PopAndRunLive();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  DispatchHook dispatch_hook_;
  std::vector<Event, ArenaAllocator<Event>> heap_;
  std::vector<Slot, ArenaAllocator<Slot>> slots_;
  std::vector<uint32_t, ArenaAllocator<uint32_t>> free_slots_;
  // A deque never moves its elements on push_back, so AddLane is safe while
  // a lane callback runs and next_lane_ stays valid.
  std::deque<Lane, ArenaAllocator<Lane>> lanes_;
  Lane* next_lane_ = nullptr;  // Earliest armed lane, or null.
  size_t live_count_ = 0;  // Pending heap events plus armed lanes.
  size_t cancelled_pending_ = 0;
  uint64_t events_run_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace androne

#endif  // SRC_UTIL_SIM_CLOCK_H_
