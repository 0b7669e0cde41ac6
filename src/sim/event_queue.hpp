#pragma once
// Deterministic discrete-event queue: events ordered by (time, sequence).
// Equal-time events fire in insertion order, which makes every run with the
// same seed bit-reproducible.
//
// Storage is a slab of callback slots recycled through a free list, so memory
// is O(pending events) — not O(events ever scheduled). Ids are
// generation-tagged: an id names (slot, generation), and cancelling or firing
// an event bumps the slot's generation, which invalidates stale ids in O(1)
// without any auxiliary set.
//
// A running callback may re-arm itself with repeat_at(t): after it returns,
// the same callback goes back into the queue at `t` under its original
// sequence number. A batched broadcast uses this to walk its delivery
// segments in (time, position) order from one queue entry: under one
// sequence number the walk pops exactly where one event per segment,
// scheduled back to back, would.
//
// The order lives in a hand-written binary min-heap of 24-byte entries
// {time_key, seq, id}. time_key(t) maps the IEEE-754 bits of `t + 0.0` to
// an unsigned integer with the same order as the doubles, so an entry's
// priority is the one 128-bit integer `time_key << 64 | seq` and every
// comparison is a single integer compare, with no branch on equal times.
// The key is kept as two 64-bit words, not an __int128 member, whose 16-byte
// alignment would pad the entry to 32 bytes. The `+ 0.0` folds -0.0 into
// +0.0: the two times compare equal as doubles, so events at either tie on
// seq, and an event scheduled at -0.0 reports its time as +0.0.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/small_fn.hpp"

namespace crusader::sim {

/// Generation-tagged event handle: low 32 bits slot index, high 32 bits the
/// slot's generation at schedule time. Treat as opaque outside EventQueue.
using EventId = std::uint64_t;
/// Move-only with a 48-byte inline buffer: delivery closures (engine pointer
/// + receiver range + arena handle) fit without touching the heap, which
/// std::function's 16-byte SBO cannot manage.
using EventFn = util::SmallFn<void()>;

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `t`. Returns an id usable with cancel().
  /// `t` must be finite (a NaN would silently corrupt the heap ordering).
  EventId schedule(double t, EventFn fn);

  /// Cancel a pending event in O(1). Cancelling an already-fired, cancelled,
  /// or unknown id is a no-op (returns false).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const;
  /// Time of the earliest pending event; requires !empty().
  [[nodiscard]] double next_time() const;
  /// empty() and next_time() in one stale check: false when nothing is
  /// pending, else true with the earliest pending event's time in `t`.
  [[nodiscard]] bool peek(double& t) const {
    drop_stale();
    if (heap_.empty()) return false;
    t = key_time(heap_.front().time_key);
    return true;
  }

  /// Pops and runs the earliest event; returns its time. Requires !empty().
  /// If the callback called repeat_at(t), it is re-inserted at `t` once it
  /// returns; a callback that throws is dropped and the queue stays usable.
  double pop_and_run();

  /// Re-arm the running event at `t`, keeping its original sequence number
  /// (its FIFO place among equal-time events). Only callable from inside a
  /// running callback, at most once per run, with `t` finite and no earlier
  /// than the event's own time. The re-armed event gets a fresh id: the id
  /// schedule() returned is stale after the first run, like any fired id.
  void repeat_at(double t);

  /// Lifetime count of successful schedule() calls (monotone; NOT an id —
  /// ids are generation-tagged slot handles and are reused).
  [[nodiscard]] std::uint64_t scheduled_count() const noexcept {
    return scheduled_;
  }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Diagnostics (tests assert memory stays O(pending)): number of callback
  /// slots ever allocated — tracks the high-water pending count, not the
  /// lifetime schedule count.
  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return slots_.size();
  }
  /// Heap entries currently held, including not-yet-dropped cancelled ones.
  [[nodiscard]] std::size_t heap_size() const noexcept { return heap_.size(); }
  /// Largest heap_size() ever reached (deterministic: a function of the
  /// schedule/cancel/pop sequence only).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  /// The heap's time key: for finite a and b, a < b iff time_key(a) <
  /// time_key(b), and -0.0 maps to +0.0's key. Negative times flip every
  /// bit (a larger magnitude sorts first); the rest set the sign bit.
  [[nodiscard]] static constexpr std::uint64_t time_key(double t) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
    return bits ^ (sign_mask(bits) | kSignBit);
  }
  /// Inverse of time_key: the exact time, with -0.0 read back as +0.0.
  [[nodiscard]] static constexpr double key_time(std::uint64_t key) noexcept {
    return std::bit_cast<double>(key ^ (sign_mask(~key) | kSignBit));
  }

 private:
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  /// All ones when the top bit of `bits` is set, else zero.
  static constexpr std::uint64_t sign_mask(std::uint64_t bits) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  }

  struct Slot {
    EventFn fn;               // empty == slot free / event retired
    std::uint32_t gen = 0;    // bumped on fire/cancel; stale ids mismatch
  };
  struct Entry {
    std::uint64_t time_key;  // time_key(t)
    std::uint64_t seq;  // insertion order: FIFO tie-break for equal times
    EventId id;
  };
  static_assert(sizeof(Entry) == 24);
  __extension__ using Priority = unsigned __int128;
  /// Smaller fires first. No two entries share a priority: a seq is in the
  /// heap at most once (repeat_at re-inserts it only after its pop).
  static Priority priority(const Entry& e) noexcept {
    return (static_cast<Priority>(e.time_key) << 64) | e.seq;
  }

  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// State of the callback pop_and_run is running (saved and restored
  /// around each run, so nested runs and throwing callbacks are safe).
  struct Run {
    bool active = false;
    bool repeat = false;  // repeat_at() was called during this run
    double t = 0.0;       // the running event's time
    double repeat_t = 0.0;
  };

  /// Store `fn` in a free slot and push its heap entry.
  EventId push(double t, std::uint64_t seq, EventFn&& fn);
  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    return slots_[slot_of(e.id)].gen != gen_of(e.id);
  }
  /// Retire a live slot: clear the callback, invalidate outstanding ids,
  /// recycle the index.
  void retire(std::uint32_t slot);
  /// Pop stale (cancelled) entries off the heap top.
  void drop_stale() const {
    if (!heap_.empty() && stale(heap_.front())) drop_stale_slow();
  }
  void drop_stale_slow() const;
  /// Rebuild the heap without stale entries once they dominate, bounding heap
  /// memory by O(pending) even under heavy schedule/cancel churn.
  void compact();

  /// Fill the heap's hole at `hole` with `e`, moving `e` toward the root.
  void sift_up(std::size_t hole, Entry e) noexcept;
  /// Fill the heap's hole at `hole` with `e`, moving `e` toward the leaves.
  void sift_down(std::size_t hole, Entry e) const noexcept;
  /// Remove the top entry: the last entry fills the root's hole and sinks.
  void pop_top() const noexcept;

  mutable std::vector<Entry> heap_;  // binary min-heap on priority()
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t scheduled_ = 0;  // lifetime schedules; doubles as seq source
  std::size_t live_ = 0;
  mutable std::size_t stale_in_heap_ = 0;
  std::size_t high_water_ = 0;
  Run run_;
};

}  // namespace crusader::sim
