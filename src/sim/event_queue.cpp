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
  heap_.emplace_back();  // the hole sift_up fills
  sift_up(heap_.size() - 1, Entry{time_key(t), seq, id});
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

void EventQueue::sift_up(std::size_t hole, const Entry e) noexcept {
  const Priority p = priority(e);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (priority(heap_[parent]) < p) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::sift_down(std::size_t hole, const Entry e) const noexcept {
  const std::size_t n = heap_.size();
  const Priority p = priority(e);
  for (std::size_t child; (child = 2 * hole + 1) < n; hole = child) {
    // The earlier of two children, picked without a branch on the keys.
    if (child + 1 < n)
      child += priority(heap_[child + 1]) < priority(heap_[child]);
    if (p < priority(heap_[child])) break;
    heap_[hole] = heap_[child];
  }
  heap_[hole] = e;
}

void EventQueue::pop_top() const noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::drop_stale_slow() const {
  do {
    pop_top();
    --stale_in_heap_;
  } while (!heap_.empty() && stale(heap_.front()));
}

void EventQueue::compact() {
  // Amortized O(1): rebuilding costs O(heap), paid for by the >= heap/2
  // cancellations since the last rebuild. The +64 floor avoids rebuilding
  // tiny heaps.
  if (stale_in_heap_ <= heap_.size() / 2 || stale_in_heap_ <= 64) return;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i, heap_[i]);
  stale_in_heap_ = 0;
}

bool EventQueue::empty() const {
  drop_stale();
  return heap_.empty();
}

double EventQueue::next_time() const {
  drop_stale();
  CS_CHECK(!heap_.empty());
  return key_time(heap_.front().time_key);
}

double EventQueue::pop_and_run() {
  drop_stale();
  CS_CHECK(!heap_.empty());
  const Entry top = heap_.front();
  pop_top();
  const double t = key_time(top.time_key);
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
    } scope{run_, std::exchange(run_, Run{true, false, t, 0.0})};
    fn();
    finished = run_;
  }
  if (finished.repeat) push(finished.repeat_t, top.seq, std::move(fn));
  return t;
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
