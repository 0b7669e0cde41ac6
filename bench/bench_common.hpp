#pragma once
// Shared plumbing for the experiment benches (E1–E12; each bench_*.cpp
// header names the claim its table checks). Every bench prints one or more
// paper-style tables to stdout via util::Table. Protocol cells are runner
// specs run through runner::run_complete_world, the builder behind
// run_scenario; only benches of hand-configured nodes build their own world.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "runner/runner.hpp"
#include "sim/world.hpp"
#include "util/table.hpp"

namespace crusader::bench {

/// Canonical bench model: d = 1 time unit.
inline sim::ModelParams bench_model(std::uint32_t n, std::uint32_t f,
                                    double u = 0.05, double vartheta = 1.01,
                                    double d = 1.0) {
  sim::ModelParams m;
  m.n = n;
  m.f = f;
  m.d = d;
  m.u = u;
  m.u_tilde = u;
  m.vartheta = vartheta;
  return m;
}

/// World config for the benches that run hand-configured nodes (E2's TCB
/// probes, E7's Lynch-Welch at f_plain, E12's ablated CPS variants).
inline sim::WorldConfig world_config(const sim::ModelParams& model,
                                     const baselines::ProtocolSetup& setup,
                                     std::size_t rounds, std::uint64_t seed) {
  sim::WorldConfig config;
  config.model = model;
  config.seed = seed;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.horizon(rounds);
  config.clock_kind = sim::ClockKind::kSpread;
  config.delay_kind = sim::DelayKind::kRandom;
  return config;
}

/// Runs `spec` through the runner's complete-world builder at the raw `seed`
/// and with no pulse cap, so a table sees every round the horizon holds.
inline sim::RunResult run_spec(const runner::ScenarioSpec& spec,
                               std::uint64_t seed) {
  return runner::run_complete_world(
      spec, baselines::make_setup(spec.protocol, spec.model(), spec.slack),
      seed);
}

/// Runs `kind` with `f_actual` Byzantine nodes of `strategy`.
inline sim::RunResult run_protocol(
    baselines::ProtocolKind kind, const sim::ModelParams& model,
    std::uint32_t f_actual, core::ByzStrategy strategy, std::uint64_t seed,
    std::size_t rounds, sim::ClockKind clocks = sim::ClockKind::kSpread,
    sim::DelayKind delays = sim::DelayKind::kRandom, double late_shift = 0.0,
    double split_shift = 0.0) {
  runner::ScenarioSpec spec;
  spec.set_model(model);
  spec.protocol = kind;
  spec.f_actual = f_actual;
  spec.strategy = strategy;
  spec.rounds = rounds;
  spec.clocks = clocks;
  spec.delay = delays;
  spec.late_shift = late_shift;
  spec.split_shift = split_shift;
  return run_spec(spec, seed);
}

/// Worst steady-state skew across seeds (skipping `warmup` rounds).
inline double worst_steady_skew(baselines::ProtocolKind kind,
                                const sim::ModelParams& model,
                                std::uint32_t f_actual,
                                core::ByzStrategy strategy, std::size_t rounds,
                                std::size_t warmup,
                                const std::vector<std::uint64_t>& seeds,
                                double split_shift = 0.0) {
  double worst = 0.0;
  for (std::uint64_t seed : seeds) {
    const auto result = run_protocol(kind, model, f_actual, strategy, seed,
                                     rounds, sim::ClockKind::kSpread,
                                     sim::DelayKind::kRandom, 0.0, split_shift);
    worst = std::max(worst, result.trace.max_skew(warmup));
  }
  return worst;
}

inline void print(const util::Table& table) {
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace crusader::bench
