#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EqualTimesFifoAcrossSlotReuse) {
  // Slot recycling must not affect equal-time ordering: the tie-break is the
  // schedule sequence, not the (reused) slot index.
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(5.0, [&] { order.push_back(0); });
  q.cancel(a);
  // Reuses a's slot, but was scheduled after b below would have been...
  q.schedule(5.0, [&] { order.push_back(1); });
  q.schedule(5.0, [&] { order.push_back(2); });
  const EventId c = q.schedule(4.0, [&] { order.push_back(3); });
  q.cancel(c);
  q.schedule(5.0, [&] { order.push_back(4); });  // reuses c's slot
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, StaleIdCannotCancelSlotReuser) {
  // Generation tags: after a slot is retired and reused, the old id must be
  // dead — cancelling it is a no-op and must not kill the new occupant.
  EventQueue q;
  bool ran = false;
  const EventId old_id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(old_id));
  const EventId new_id = q.schedule(2.0, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.pending(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, FiredIdIsStale) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
  // The slot is recycled for the next event; the old id stays dead.
  bool ran = false;
  q.schedule(2.0, [&] { ran = true; });
  EXPECT_FALSE(q.cancel(id));
  q.pop_and_run();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  q.schedule(7.0, [] {});
  const EventId early = q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(1);
    q.schedule(2.0, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PendingCount) {
  EventQueue q;
  EXPECT_EQ(q.pending(), 0u);
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ScheduledCountIsLifetimeNotIds) {
  // scheduled_count() counts schedule() calls over the queue's lifetime; it
  // is monotone even though ids (slots) are recycled.
  EventQueue q;
  EXPECT_EQ(q.scheduled_count(), 0u);
  const EventId a = q.schedule(1.0, [] {});
  q.cancel(a);
  q.schedule(1.0, [] {});  // reuses a's slot
  EXPECT_EQ(q.scheduled_count(), 2u);
  q.pop_and_run();
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.scheduled_count(), 3u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EmptyPopThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop_and_run(), util::CheckFailure);
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, EventFn{}), util::CheckFailure);
}

TEST(EventQueue, NonFiniteTimeRejected) {
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.schedule(nan, [] {}), util::CheckFailure);
  EXPECT_THROW(q.schedule(inf, [] {}), util::CheckFailure);
  EXPECT_THROW(q.schedule(-inf, [] {}), util::CheckFailure);
  // A rejected schedule must not leak a slot or count as scheduled.
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.scheduled_count(), 0u);
  EXPECT_EQ(q.slab_capacity(), 0u);
}

TEST(EventQueue, RepeatKeepsOriginalFifoPlace) {
  // The repeated event keeps its first sequence number: at t = 2 it fires
  // after the equal-time event scheduled before it and ahead of the ones
  // scheduled after it, including one scheduled from its own callback.
  EventQueue q;
  std::vector<std::string> order;
  q.schedule(2.0, [&] { order.push_back("before"); });
  int runs = 0;
  q.schedule(1.0, [&] {
    order.push_back("repeat@" + std::to_string(runs++));
    if (runs == 1) {
      q.schedule(2.0, [&] { order.push_back("inner"); });
      q.repeat_at(2.0);
    }
  });
  q.schedule(2.0, [&] { order.push_back("after"); });
  std::vector<double> times;
  while (!q.empty()) times.push_back(q.pop_and_run());
  EXPECT_EQ(order, (std::vector<std::string>{"repeat@0", "before", "repeat@1",
                                             "after", "inner"}));
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 2.0, 2.0, 2.0}));
  EXPECT_EQ(q.scheduled_count(), 4u);  // a repeat is not a schedule()
}

TEST(EventQueue, RepeatWalksLaterTimesThenRetires) {
  EventQueue q;
  const std::vector<double> due = {1.0, 1.0, 1.5, 4.0};
  std::size_t next = 0;
  std::vector<double> fired;
  const EventId id = q.schedule(due[0], [&] {
    fired.push_back(due[next]);
    if (++next < due.size()) q.repeat_at(due[next]);
  });
  while (!q.empty()) {
    const double t = q.pop_and_run();
    EXPECT_EQ(t, fired.back());
  }
  EXPECT_EQ(fired, due);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.high_water(), 1u);
  EXPECT_FALSE(q.cancel(id));  // the first id went stale at the first run
}

TEST(EventQueue, RepeatMisuseRejected) {
  EventQueue q;
  // Outside any callback.
  EXPECT_THROW(q.repeat_at(1.0), util::CheckFailure);
  // Twice in one callback.
  q.schedule(1.0, [&] {
    q.repeat_at(2.0);
    q.repeat_at(3.0);
  });
  EXPECT_THROW(q.pop_and_run(), util::CheckFailure);
  // Into the past, or to a non-finite time.
  for (const double t : {0.5, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    q.schedule(1.0, [&q, t] { q.repeat_at(t); });
    EXPECT_THROW(q.pop_and_run(), util::CheckFailure) << t;
  }
  // Each failed run dropped its event; nothing is left half-run.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_THROW(q.repeat_at(1.0), util::CheckFailure);
}

TEST(EventQueue, ThrowingCallbackLeavesQueueUsable) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    q.repeat_at(2.0);  // requested, but the throw drops the event
    throw std::runtime_error("handler failed");
  });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_THROW(q.pop_and_run(), std::runtime_error);
  // The running state was reset: repeat_at is rejected outside a callback,
  // and later callbacks may repeat again.
  EXPECT_THROW(q.repeat_at(3.0), util::CheckFailure);
  EXPECT_EQ(q.pending(), 1u);
  bool repeated = false;
  q.schedule(2.0, [&] {
    order.push_back(repeated ? 4 : 3);
    if (!repeated) {
      repeated = true;
      q.repeat_at(4.0);
    }
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST(EventQueue, NestedRunRestoresOuterRepeatState) {
  // A callback that drives the queue itself (like a nested Engine::step)
  // must get its own repeat state back once the inner run returns.
  EventQueue q;
  std::vector<std::string> order;
  q.schedule(1.0, [&] { order.push_back("inner"); });
  bool outer_done = false;
  q.schedule(1.0, [&] {
    if (outer_done) {
      order.push_back("outer again");
      return;
    }
    q.schedule(1.5, [&, first = true]() mutable {
      order.push_back("nested");
      if (std::exchange(first, false)) q.repeat_at(1.75);
    });
    q.pop_and_run();  // runs "nested", which re-arms itself at 1.75
    outer_done = true;
    q.repeat_at(1.5);  // the outer run may still repeat once
  });
  q.pop_and_run();  // "inner"
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<std::string>{"inner", "nested", "outer again",
                                             "nested"}));
}

TEST(EventQueue, RepeatChurnKeepsSlabBounded) {
  // 64 self-repeating events plus one-shot traffic, a million runs in all:
  // repeats recycle slots, so storage stays O(pending).
  EventQueue q;
  util::Rng rng(99);
  double now = 0.0;
  std::uint64_t runs = 0;
  std::size_t high_water = 0;
  for (int i = 0; i < 64; ++i) {
    q.schedule(rng.uniform(0.0, 1.0), [&] {
      ++runs;
      if (rng.chance(0.5)) q.schedule(now + 1.0, [] {});
      if (runs < 1'000'000) q.repeat_at(now + rng.uniform(0.0, 1.0));
    });
  }
  while (!q.empty()) {
    high_water = std::max(high_water, q.pending());
    now = q.next_time();
    q.pop_and_run();
  }
  EXPECT_GE(runs, 1'000'000u);
  EXPECT_LE(q.slab_capacity(), high_water + 8);
  EXPECT_EQ(q.high_water(), q.slab_capacity());
}

// The memory-leak regression: a million schedule/cancel/pop cycles with at
// most ~1e3 events pending must keep storage O(pending), not O(scheduled).
TEST(EventQueue, StressMemoryBounded) {
  constexpr std::uint64_t kTotal = 1'000'000;
  constexpr std::size_t kMaxPending = 1'000;

  EventQueue q;
  util::Rng rng(0xC0FFEE);
  double now = 0.0;
  std::uint64_t fired = 0;
  std::size_t high_water = 0;
  std::vector<EventId> open;  // candidates for cancellation (may be stale)

  while (q.scheduled_count() < kTotal) {
    const std::size_t burst = 1 + rng.below(8);
    for (std::size_t i = 0; i < burst && q.scheduled_count() < kTotal; ++i) {
      open.push_back(q.schedule(now + rng.uniform(0.0, 10.0), [&] { ++fired; }));
    }
    high_water = std::max(high_water, q.pending());
    while (q.pending() > kMaxPending ||
           (q.pending() > 0 && rng.chance(0.3))) {
      if (!open.empty() && rng.chance(0.5)) {
        const std::size_t pick = rng.below(open.size());
        q.cancel(open[pick]);  // may be stale already; then it's a no-op
        open[pick] = open.back();
        open.pop_back();
      } else {
        now = q.pop_and_run();
      }
    }
    if (open.size() > 4 * kMaxPending) {
      open.erase(open.begin(), open.end() - 2 * kMaxPending);
    }
  }
  while (!q.empty()) now = q.pop_and_run();

  EXPECT_EQ(q.scheduled_count(), kTotal);
  EXPECT_LE(high_water, kMaxPending + 8);
  // The headline assertion: slab capacity tracks the high-water pending
  // count, within a small constant — NOT the 1e6 lifetime schedules.
  EXPECT_LE(q.slab_capacity(), high_water + 8);
  // Heap storage (including lazily-dropped cancelled entries) is bounded by
  // a small multiple of the high-water mark thanks to compaction.
  EXPECT_LE(q.heap_size(), 2 * high_water + 130);
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(q.pending(), 0u);
}

// Pure schedule+cancel churn (nothing ever pops): the pathological case for
// the heap, since cancelled entries only leave via compaction.
TEST(EventQueue, CancelChurnKeepsHeapBounded) {
  EventQueue q;
  util::Rng rng(42);
  std::size_t high_water = 0;
  std::vector<EventId> open;
  for (int i = 0; i < 200'000; ++i) {
    open.push_back(q.schedule(rng.uniform(0.0, 1.0), [] {}));
    high_water = std::max(high_water, q.pending());
    if (open.size() > 64) {
      const std::size_t pick = rng.below(open.size());
      EXPECT_TRUE(q.cancel(open[pick]));
      open[pick] = open.back();
      open.pop_back();
    }
  }
  EXPECT_LE(q.slab_capacity(), high_water + 8);
  EXPECT_LE(q.heap_size(), 2 * high_water + 130);
}

TEST(EventQueue, TimeKeyPreservesOrderAndRoundTrips) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> corpus;
  for (const double x : {-kMax, -1e300, -0x1p60, -1.5, -1.0, -kMin, -kTiny,
                         -0.0, 0.0, kTiny, 2 * kTiny, kMin, 0.25, 1.0,
                         0x1p60, 1e300, kMax}) {
    corpus.push_back(x);
    // Finite nextafter neighbours: each sits one ulp from x.
    for (const double toward : {-kInf, kInf}) {
      const double y = std::nextafter(x, toward);
      if (std::isfinite(y)) corpus.push_back(y);
    }
  }
  for (const double a : corpus) {
    const std::uint64_t ka = EventQueue::time_key(a);
    for (const double b : corpus) {
      const std::uint64_t kb = EventQueue::time_key(b);
      EXPECT_EQ(a < b, ka < kb) << a << " vs " << b;
      EXPECT_EQ(a == b, ka == kb) << a << " vs " << b;
    }
    // Exact round trip, with -0.0 read back as +0.0.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(EventQueue::key_time(ka)),
              std::bit_cast<std::uint64_t>(a + 0.0))
        << a;
  }
  EXPECT_EQ(EventQueue::time_key(-0.0), EventQueue::time_key(0.0));
  EXPECT_FALSE(std::signbit(EventQueue::key_time(EventQueue::time_key(-0.0))));
}

TEST(EventQueue, SignedZeroTimesTieOnScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    q.schedule(i % 2 == 0 ? -0.0 : 0.0, [&order, i] { order.push_back(i); });
  }
  q.schedule(-std::numeric_limits<double>::denorm_min(),
             [&order] { order.push_back(-1); });
  EXPECT_EQ(q.next_time(), -std::numeric_limits<double>::denorm_min());
  q.pop_and_run();
  while (!q.empty()) {
    EXPECT_FALSE(std::signbit(q.next_time()));
    const double t = q.pop_and_run();
    EXPECT_EQ(t, 0.0);
    EXPECT_FALSE(std::signbit(t));
  }
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
}

// A std::map keyed by (time, schedule order) is the reference queue: every
// pop and every next_time() of a long random run must match it. Times sit on
// a coarse grid, so equal-time ties are dense, plus edge values: ±0.0 (equal,
// so they tie on schedule order), negatives, subnormals, times near 2^60 and
// ±DBL_MAX. The driver cancels live and stale ids; callbacks schedule,
// cancel and re-arm with repeat_at. Periodic cancel storms force compaction.
class ReferenceHarness {
 public:
  void run(std::uint64_t total_ops) {
    while (ops_ < total_ops) {
      ++ops_;
      const std::uint64_t r = rng_.below(16);
      if (r < 7 && model_.size() < 2'000) {
        schedule(pick_time());
      } else if (r < 10) {
        cancel_recent();
      } else if (!model_.empty()) {
        pop_and_check();
      } else {
        ASSERT_TRUE(q_.empty());
      }
      if (ops_ % 25'000 == 0) {
        for (std::size_t i = 0; i < evs_.size(); ++i) cancel(i);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!model_.empty() && !::testing::Test::HasFatalFailure()) {
      pop_and_check();
    }
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(cancel_mismatches_, 0u);
    EXPECT_GT(pops_, total_ops / 4);
    EXPECT_GT(repeats_, pops_ / 8);
  }

 private:
  struct Ev {
    EventId id = 0;
    double t = 0.0;
    std::uint64_t seq = 0;
    bool pending = false;
    bool cancellable = false;  // false once fired: a re-armed event's new id
                               // is not exposed, and a fired id is stale
  };

  double pick_time() {
    static constexpr double kMin = std::numeric_limits<double>::min();
    static constexpr double kTiny = std::numeric_limits<double>::denorm_min();
    static constexpr double kMax = std::numeric_limits<double>::max();
    static const double kEdge[] = {
        -0.0,  0.0,     -1.5,          -kMin,
        -kTiny, kTiny,  2 * kTiny,     kMin,
        0x1p60, 0x1p60 + 256.0, std::nextafter(0x1p60, 0.0),
        -kMax, kMax};
    if (rng_.chance(0.9)) return 0.25 * static_cast<double>(rng_.below(48));
    return kEdge[rng_.below(std::size(kEdge))];
  }

  void schedule(double t) {
    const std::size_t tag = evs_.size();
    const std::uint64_t seq = q_.scheduled_count();
    const EventId id = q_.schedule(t, [this, tag] { on_run(tag); });
    evs_.push_back(Ev{id, t, seq, true, true});
    model_.emplace(std::pair{t, seq}, tag);
  }

  void cancel(std::size_t tag) {
    Ev& e = evs_[tag];
    const bool live = e.pending && e.cancellable;
    if (q_.cancel(e.id) != live) ++cancel_mismatches_;
    if (live) {
      model_.erase(std::pair{e.t, e.seq});
      e.pending = false;
    }
  }

  /// Cancel one of the most recent ids, live or already stale.
  void cancel_recent() {
    if (evs_.empty()) return;
    const std::size_t window = std::min<std::size_t>(evs_.size(), 4'096);
    cancel(evs_.size() - 1 - rng_.below(window));
  }

  void on_run(std::size_t tag) {
    ran_ = tag;
    if (rng_.chance(0.3)) schedule(pick_time());
    if (rng_.chance(0.2)) cancel_recent();
    if (rng_.chance(0.25)) {
      repeat_ = true;
      repeat_t_ = evs_[tag].t + 0.25 * static_cast<double>(rng_.below(3));
      q_.repeat_at(repeat_t_);
    }
  }

  void pop_and_check() {
    const auto [key, tag] = *model_.begin();
    ASSERT_FALSE(q_.empty());
    ASSERT_EQ(q_.pending(), model_.size());
    ASSERT_EQ(q_.next_time(), key.first) << "pop " << pops_;
    model_.erase(model_.begin());
    evs_[tag].pending = false;
    evs_[tag].cancellable = false;
    ran_ = evs_.size();
    repeat_ = false;
    const double t = q_.pop_and_run();
    ++pops_;
    ASSERT_EQ(ran_, tag) << "pop " << pops_ << " at t = " << key.first;
    ASSERT_EQ(t, key.first);
    if (repeat_) {
      ++repeats_;
      evs_[tag].t = repeat_t_;
      evs_[tag].pending = true;
      model_.emplace(std::pair{repeat_t_, evs_[tag].seq}, tag);
    }
  }

  EventQueue q_;
  util::Rng rng_{0x0DE5EED};
  std::vector<Ev> evs_;
  std::map<std::pair<double, std::uint64_t>, std::size_t> model_;
  std::size_t ran_ = 0;
  bool repeat_ = false;
  double repeat_t_ = 0.0;
  std::uint64_t ops_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t repeats_ = 0;
  std::size_t cancel_mismatches_ = 0;
};

TEST(EventQueue, MatchesReferenceOrderUnderRandomOps) {
  ReferenceHarness h;
  h.run(200'000);
}

}  // namespace
}  // namespace crusader::sim
