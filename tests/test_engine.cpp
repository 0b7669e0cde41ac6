#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {
namespace {

TEST(Engine, NowAdvancesWithEvents) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  double seen = -1.0;
  engine.at(2.5, [&] { seen = engine.now(); });
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine engine;
  bool late_ran = false;
  engine.at(5.0, [&] { late_ran = true; });
  engine.run_until(4.0);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
  engine.run_until(6.0);
  EXPECT_TRUE(late_ran);
}

TEST(Engine, PastEventsClampToNow) {
  Engine engine;
  engine.at(3.0, [] {});
  engine.run_until(3.0);
  double seen = -1.0;
  engine.at(1.0, [&] { seen = engine.now(); });  // in the past
  engine.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 3.0);
}

TEST(Engine, AfterSchedulesRelative) {
  Engine engine;
  std::vector<double> times;
  engine.at(1.0, [&] {
    engine.after(0.5, [&] { times.push_back(engine.now()); });
  });
  engine.run_until(10.0);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 1.5);
}

TEST(Engine, NegativeDelayRejected) {
  Engine engine;
  EXPECT_THROW(engine.after(-1.0, [] {}), util::CheckFailure);
}

TEST(Engine, StepProcessesOne) {
  Engine engine;
  int count = 0;
  engine.at(1.0, [&] { ++count; });
  engine.at(2.0, [&] { ++count; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, CancelWorksThroughEngine) {
  Engine engine;
  bool ran = false;
  const EventId id = engine.at(1.0, [&] { ran = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Engine, CountsProcessedEvents) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.at(i, [] {});
  engine.run_until(10.0);
  EXPECT_EQ(engine.events_processed(), 5u);
}

/// Ties on a coarse grid, events that schedule later events, and cancels:
/// each run appends (now, tag) to `trace`. The last event fires at 2.0.
void load_mixed_events(Engine& engine,
                       std::vector<std::pair<double, int>>& trace) {
  std::vector<EventId> ids;
  for (int i = 0; i < 600; ++i) {
    ids.push_back(engine.at(0.25 * (i % 7), [&engine, &trace, i] {
      trace.emplace_back(engine.now(), i);
      if (i % 5 == 0) {
        engine.after(0.5, [&engine, &trace, i] {
          trace.emplace_back(engine.now(), 1000 + i);
        });
      }
    }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 9) engine.cancel(ids[i]);
}

TEST(Engine, StepMatchesRunUntil) {
  Engine stepped;
  Engine ran;
  std::vector<std::pair<double, int>> by_step;
  std::vector<std::pair<double, int>> by_run;
  load_mixed_events(stepped, by_step);
  load_mixed_events(ran, by_run);
  while (stepped.step()) {
  }
  ran.run_until(2.0);
  EXPECT_EQ(by_step, by_run);
  EXPECT_EQ(stepped.now(), ran.now());
  EXPECT_EQ(stepped.now(), 2.0);
  EXPECT_EQ(stepped.events_processed(), ran.events_processed());
  EXPECT_EQ(stepped.events_processed(), by_step.size());
}

TEST(Engine, ExpiredBudgetThrowsFromStepAndRunUntil) {
  Engine stepped;
  Engine ran;
  for (int i = 0; i < 1000; ++i) {
    stepped.at(i, [] {});
    ran.at(i, [] {});
  }
  const WallBudget budget(1e-6);
  while (!WallBudget::expired()) {
  }
  EXPECT_THROW(ran.run_until(2000.0), BudgetExceeded);
  EXPECT_EQ(ran.events_processed(), 0u);
  // step() checks on the engine's first event, then every 256th event, as
  // run_until does.
  EXPECT_THROW(stepped.step(), BudgetExceeded);
  EXPECT_EQ(stepped.events_processed(), 0u);
  EXPECT_THROW(
      {
        while (stepped.step()) {
        }
      },
      BudgetExceeded);
  EXPECT_EQ(stepped.events_processed(), 255u);
}

}  // namespace
}  // namespace crusader::sim
