#pragma once
// Shared test plumbing: the canonical model, a world config for tests of
// hand-configured nodes, and run_protocol, a runner spec run through
// runner::run_complete_world, the builder behind run_scenario.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "runner/runner.hpp"
#include "sim/world.hpp"

namespace crusader::testing {

/// The canonical small model used across tests: d=1, u=0.05, ϑ=1.01.
inline sim::ModelParams small_model(std::uint32_t n, std::uint32_t f) {
  sim::ModelParams m;
  m.n = n;
  m.f = f;
  m.d = 1.0;
  m.u = 0.05;
  m.u_tilde = 0.05;
  m.vartheta = 1.01;
  return m;
}

/// Builds a world config for a protocol setup: horizon sized for `rounds`
/// pulse rounds, initial offsets spread over the protocol's assumed bound.
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

/// Runs a protocol with `f_actual` Byzantine nodes of the given strategy to
/// the horizon (no pulse cap). The world keeps the default
/// Enforcement::kThrow, so a model violation throws util::ModelViolation out
/// of the run.
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
  return runner::run_complete_world(spec, baselines::make_setup(kind, model),
                                    seed);
}

}  // namespace crusader::testing
