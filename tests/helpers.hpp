#pragma once
// Shared test plumbing: canonical model parameter sets and world builders.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "core/cps.hpp"
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
  config.horizon =
      setup.initial_offset + static_cast<double>(rounds + 2) * setup.round_length;
  config.clock_kind = sim::ClockKind::kSpread;
  config.delay_kind = sim::DelayKind::kRandom;
  return config;
}

/// Runs a protocol with `f_actual` Byzantine nodes of the given strategy.
/// Returns the run result. The world keeps the default Enforcement::kThrow,
/// so a model violation throws util::ModelViolation out of the run.
inline sim::RunResult run_protocol(
    baselines::ProtocolKind kind, const sim::ModelParams& model,
    std::uint32_t f_actual, core::ByzStrategy strategy, std::uint64_t seed,
    std::size_t rounds, sim::ClockKind clocks = sim::ClockKind::kSpread,
    sim::DelayKind delays = sim::DelayKind::kRandom, double late_shift = 0.0,
    double split_shift = 0.0) {
  const auto setup = baselines::make_setup(kind, model);
  auto honest = baselines::make_protocol_factory(setup);

  sim::WorldConfig config = world_config(model, setup, rounds, seed);
  config.clock_kind = clocks;
  config.delay_kind = delays;
  config.faulty = sim::default_faulty_set(f_actual);

  sim::ByzantineFactory byz;
  if (f_actual > 0) {
    byz = core::make_byzantine_factory(strategy, honest, seed, late_shift,
                                       split_shift);
  }
  sim::World world(config, honest, byz);
  return world.run();
}

}  // namespace crusader::testing
