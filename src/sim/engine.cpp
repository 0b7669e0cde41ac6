#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace crusader::sim {

namespace {

// Armed/deadline pair for the calling thread (see WallBudget). Split into
// two variables so the hot-path expired() check is one bool read when no
// budget is armed.
// The wall budget is the one sanctioned real-clock consumer in src/: it
// only decides WHEN to abort, never what a row contains — an aborted cell
// discards every measurement (timed_out=1, metrics NaN) and is retried on
// campaign resume, so no exported byte depends on these clock reads.
thread_local bool t_budget_armed = false;
thread_local std::chrono::steady_clock::time_point  // lint:allow(banned-time)
    t_budget_deadline{};

/// Clock-read stride: checking steady_clock every event would dominate the
/// per-event cost; every 256th event bounds the overrun to microseconds.
constexpr std::uint32_t kBudgetStride = 256;

}  // namespace

WallBudget::WallBudget(double budget_ms)
    : prev_deadline_(t_budget_deadline), prev_armed_(t_budget_armed) {
  CS_CHECK_MSG(budget_ms > 0.0, "wall budget must be positive, got "
                                    << budget_ms << " ms");
  t_budget_armed = true;
  t_budget_deadline =
      std::chrono::steady_clock::now() +  // lint:allow(banned-time)
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          // lint:allow(banned-time) — content-free deadline, see above
          std::chrono::duration<double, std::milli>(budget_ms));
}

WallBudget::~WallBudget() {
  t_budget_deadline = prev_deadline_;
  t_budget_armed = prev_armed_;
}

bool WallBudget::expired() {
  return t_budget_armed &&
         std::chrono::steady_clock::now() >=  // lint:allow(banned-time)
             t_budget_deadline;
}

EventId Engine::at(double t, EventFn fn) {
  return queue_.schedule(std::max(t, now_), std::move(fn));
}

EventId Engine::after(double dt, EventFn fn) {
  CS_CHECK_MSG(dt >= 0.0, "negative delay " << dt);
  return queue_.schedule(now_ + dt, std::move(fn));
}

bool Engine::run_next(double horizon) {
  double t;
  if (!queue_.peek(t) || t > horizon) return false;
  if ((budget_tick_++ % kBudgetStride) == 0 && WallBudget::expired())
    throw BudgetExceeded{};
  CS_CHECK_MSG(t >= now_, "time went backwards: " << t << " < " << now_);
  now_ = t;
  queue_.pop_and_run();
  ++processed_;
  return true;
}

void Engine::run_until(double horizon) {
  // Check the budget on this run's first event, so a tiny budget trips even
  // a short run, and every kBudgetStride events after.
  budget_tick_ = 0;
  while (run_next(horizon)) {
  }
  now_ = std::max(now_, horizon);
}

bool Engine::step() {
  return run_next(std::numeric_limits<double>::infinity());
}

}  // namespace crusader::sim
