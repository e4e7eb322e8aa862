#include "src/util/sim_clock.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace androne {

namespace {

EventId PackId(uint32_t slot, uint32_t generation) {
  return (static_cast<EventId>(slot) << 32) | generation;
}

}  // namespace

uint32_t SimClock::TakeSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.push_back(Slot{});
  return static_cast<uint32_t>(slots_.size() - 1);
}

EventId SimClock::ScheduleAt(SimTime when, Callback cb) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot = TakeSlot();
  uint32_t generation = slots_[slot].generation;
  heap_.push_back(Event{when, next_seq_++, slot, generation, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return PackId(slot, generation);
}

EventId SimClock::ScheduleAfter(SimDuration delay, Callback cb) {
  return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
}

void SimClock::RetireSlot(uint32_t slot) {
  // Generation 0 is skipped on wrap so no EventId is ever 0 and a stale
  // 32-bit id cannot collide with a freshly reset stamp.
  if (++slots_[slot].generation == 0) {
    slots_[slot].generation = 1;
  }
  free_slots_.push_back(slot);
}

SimClock::LaneId SimClock::AddLane(Callback cb) {
  lanes_.push_back(Lane{});
  lanes_.back().cb = std::move(cb);
  return static_cast<LaneId>(lanes_.size() - 1);
}

EventId SimClock::ArmLane(LaneId id, SimTime when) {
  Lane& lane = lanes_[id];
  if (lane.armed) {
    DisarmLane(lane);
  }
  if (when < now_) {
    when = now_;
  }
  lane.when = when;
  lane.seq = next_seq_++;
  lane.slot = TakeSlot();
  lane.armed = true;
  ++live_count_;
  // The new stamp is the largest yet, so a deadline tie stays behind the
  // cached lane.
  if (next_lane_ == nullptr || when < next_lane_->when) {
    next_lane_ = &lane;
  }
  return PackId(lane.slot, slots_[lane.slot].generation);
}

void SimClock::DisarmLane(Lane& lane) {
  RetireSlot(lane.slot);
  lane.armed = false;
  --live_count_;
  if (next_lane_ == &lane) {
    next_lane_ = EarliestLane();
  }
}

SimClock::Lane* SimClock::EarliestLane() {
  Lane* earliest = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.armed &&
        (earliest == nullptr || std::tie(lane.when, lane.seq) <
                                    std::tie(earliest->when, earliest->seq))) {
      earliest = &lane;
    }
  }
  return earliest;
}

bool SimClock::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t generation = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;  // Already ran, already cancelled, or never existed.
  }
  if (next_lane_ != nullptr) {  // Some lane is armed: is it this event?
    for (Lane& lane : lanes_) {
      if (lane.armed && lane.slot == slot) {
        DisarmLane(lane);  // No tombstone to shed.
        return true;
      }
    }
  }
  RetireSlot(slot);
  --live_count_;
  ++cancelled_pending_;
  MaybeCompact();
  return true;
}

SimClock::Event SimClock::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void SimClock::MaybeCompact() {
  if (heap_.size() < kCompactionMinEntries ||
      cancelled_pending_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Event& ev) { return !IsLive(ev); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_pending_ = 0;
  ++compactions_;
}

void SimClock::SkimTombstones() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    PopTop();
    --cancelled_pending_;
  }
}

void SimClock::RunLane() {
  Lane& lane = *next_lane_;
  DisarmLane(lane);
  BeginDispatch(lane.when);
  lane.cb();
}

void SimClock::RunHeapFront() {
  Event ev = PopTop();
  RetireSlot(ev.slot);
  --live_count_;
  BeginDispatch(ev.when);
  ev.cb();
}

bool SimClock::PopAndRunLive() {
  if (live_count_ == 0) {
    // Only tombstones remain (if anything); shed them all at once.
    heap_.clear();
    cancelled_pending_ = 0;
    return false;
  }
  SkimTombstones();
  if (LaneRunsNext()) {
    RunLane();
  } else {
    RunHeapFront();  // Something is live and it is not a lane.
  }
  return true;
}

bool SimClock::RunNext() { return PopAndRunLive(); }

bool SimClock::PendingInfo(EventId id, SimTime* when, uint64_t* seq) const {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t generation = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;
  }
  for (const Lane& lane : lanes_) {
    if (lane.armed && lane.slot == slot) {
      *when = lane.when;
      *seq = lane.seq;
      return true;
    }
  }
  for (const Event& ev : heap_) {
    if (ev.slot == slot && ev.generation == generation) {
      *when = ev.when;
      *seq = ev.seq;
      return true;
    }
  }
  return false;
}

void SimClock::ResetForRestore(SimTime now, uint64_t events_run) {
  for (const Event& ev : heap_) {
    if (IsLive(ev)) {
      RetireSlot(ev.slot);
    }
  }
  heap_.clear();
  for (Lane& lane : lanes_) {
    if (lane.armed) {
      RetireSlot(lane.slot);
      lane.armed = false;
    }
  }
  next_lane_ = nullptr;
  live_count_ = 0;
  cancelled_pending_ = 0;
  now_ = now;
  events_run_ = events_run;
}

void SimClock::RunUntil(SimTime until) {
  for (;;) {
    // Skim tombstones first: a cancelled entry ahead of |until| must not
    // let the deadline check below read past it to the next live event.
    SkimTombstones();
    if (LaneRunsNext()) {
      if (next_lane_->when > until) {
        break;
      }
      RunLane();
    } else if (!heap_.empty() && heap_.front().when <= until) {
      RunHeapFront();
    } else {
      break;
    }
  }
  if (now_ < until) {
    now_ = until;
  }
}

void SimClock::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  while (live_count_ > 0 && ran < max_events) {
    if (PopAndRunLive()) {
      ++ran;
    }
  }
  if (live_count_ == 0 && !heap_.empty()) {
    heap_.clear();  // Shed any trailing tombstones.
    cancelled_pending_ = 0;
  }
}

}  // namespace androne
