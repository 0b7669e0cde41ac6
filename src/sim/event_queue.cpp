#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace crusader::sim {

EventId EventQueue::schedule(double t, EventFn fn) {
  CS_CHECK_MSG(fn, "cannot schedule an empty event");
  CS_CHECK_MSG(std::isfinite(t),
               "event time must be finite (NaN/inf would corrupt the "
               "queue's strict weak ordering)");
  const EventId id = push(t, scheduled_, std::move(fn));
  ++scheduled_;
  return id;
}

EventId EventQueue::push(double t, std::uint64_t seq, EventFn&& fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    CS_CHECK_MSG(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "event slab exhausted (2^32 - 1 pending events)");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  const EventId id =
      (static_cast<EventId>(slots_[slot].gen) << 32) | static_cast<EventId>(slot);
  heap_.push_back(Entry{t, seq, id});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
  high_water_ = std::max(high_water_, heap_.size());
  ++live_;
  return id;
}

void EventQueue::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;  // wraps after 2^32 reuses of one slot; ids don't live that long
  free_.push_back(slot);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.gen != gen_of(id) || !s.fn) return false;
  retire(slot);
  ++stale_in_heap_;  // the heap entry stays until drop_stale()/compact()
  compact();
  return true;
}

void EventQueue::drop_stale() const {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    heap_.pop_back();
    --stale_in_heap_;
  }
}

void EventQueue::compact() {
  // Amortized O(1): rebuilding costs O(heap), paid for by the >= heap/2
  // cancellations since the last rebuild. The +64 floor avoids rebuilding
  // tiny heaps.
  if (stale_in_heap_ <= heap_.size() / 2 || stale_in_heap_ <= 64) return;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  std::make_heap(heap_.begin(), heap_.end(), FiresLater{});
  stale_in_heap_ = 0;
}

bool EventQueue::empty() const {
  drop_stale();
  return heap_.empty();
}

double EventQueue::next_time() const {
  drop_stale();
  CS_CHECK(!heap_.empty());
  return heap_.front().t;
}

double EventQueue::pop_and_run() {
  drop_stale();
  CS_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  const Entry top = heap_.back();
  heap_.pop_back();
  EventFn fn = std::move(slots_[slot_of(top.id)].fn);
  retire(slot_of(top.id));
  CS_CHECK_MSG(fn, "popped a cancelled event");
  Run finished;
  {
    // Restores the enclosing run's state on every exit, throws included.
    struct Scope {
      Run& current;
      Run saved;
      ~Scope() { current = saved; }
    } scope{run_, std::exchange(run_, Run{true, false, top.t, 0.0})};
    fn();
    finished = run_;
  }
  if (finished.repeat) push(finished.repeat_t, top.seq, std::move(fn));
  return top.t;
}

void EventQueue::repeat_at(double t) {
  CS_CHECK_MSG(run_.active, "repeat_at outside a running event");
  CS_CHECK_MSG(!run_.repeat, "repeat_at called twice in one run");
  CS_CHECK_MSG(std::isfinite(t) && t >= run_.t,
               "repeat_at(" << t << ") must be finite and not before the "
                               "running event's time " << run_.t);
  run_.repeat = true;
  run_.repeat_t = t;
}

}  // namespace crusader::sim
