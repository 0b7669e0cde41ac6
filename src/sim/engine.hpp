#pragma once
// The simulation engine: owns the event queue and the notion of "now".

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"

namespace crusader::sim {

/// Thrown out of Engine::run_until / Engine::step when the calling thread's
/// WallBudget is exhausted mid-run. Sweep runners catch it and report the
/// scenario as timed out instead of letting one pathological cell hang a
/// 10k-scenario campaign.
struct BudgetExceeded : std::runtime_error {
  BudgetExceeded() : std::runtime_error("scenario wall-clock budget exceeded") {}
};

/// RAII per-thread wall-clock budget. While an instance is alive, every
/// Engine run loop on the constructing thread periodically compares
/// steady_clock against the deadline and throws BudgetExceeded once it has
/// passed. Thread-local by design: worker threads of a sweep pool each arm
/// their own budget without any shared state, and worlds that build several
/// engines internally (e.g. the Theorem-5 triple execution) are covered
/// without plumbing a deadline through every config. Nesting restores the
/// outer budget on destruction.
class WallBudget {
 public:
  explicit WallBudget(double budget_ms);
  ~WallBudget();

  WallBudget(const WallBudget&) = delete;
  WallBudget& operator=(const WallBudget&) = delete;

  /// True when the calling thread has an armed budget whose deadline has
  /// passed. Cheap when no budget is armed (one thread-local bool read).
  [[nodiscard]] static bool expired();

 private:
  // Sanctioned real-clock use: the budget decides WHEN to abort, never what
  // a row contains (aborted cells export NaN metrics and retry on resume).
  std::chrono::steady_clock::time_point prev_deadline_;  // lint:allow(banned-time)
  bool prev_armed_;
};

class Engine {
 public:
  /// Absolute current real time. Starts at 0.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule `fn` at absolute real time `t >= now()` (events in the past are
  /// clamped to now — callers assert separately when that matters).
  EventId at(double t, EventFn fn);

  /// Schedule `fn` after a relative delay `dt >= 0`.
  EventId after(double dt, EventFn fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Re-arm the running event at absolute time `t` under its original FIFO
  /// place (EventQueue::repeat_at): only from inside an event callback, at
  /// most once per run, with `t` no earlier than now().
  void repeat_at(double t) { queue_.repeat_at(t); }

  /// Run until the queue is empty or the next event is beyond `horizon`.
  void run_until(double horizon);

  /// Process a single event if one exists; returns false when idle. Checks
  /// the wall budget on the engine's first event and every 256th after,
  /// like run_until.
  bool step();

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  /// Credit `k` extra logical events to the processed counter. Aggregate
  /// events (one scheduled callback expanding to k identical deliveries)
  /// call this with k-1 so events_processed() reports the same logical
  /// count the unbatched path would.
  void credit_events(std::uint64_t k) noexcept { processed_ += k; }

  /// Most queue entries ever held at once (EventQueue::high_water).
  [[nodiscard]] std::size_t queue_high_water() const noexcept {
    return queue_.high_water();
  }

 private:
  /// Run the earliest pending event if it is due by `horizon`; false when
  /// none is. The one event path of run_until and step.
  bool run_next(double horizon);

  EventQueue queue_;
  double now_ = 0.0;
  std::uint64_t processed_ = 0;
  std::uint32_t budget_tick_ = 0;  // counts events between budget checks
};

}  // namespace crusader::sim
