#pragma once
// World: assembles engine + clocks + network + nodes into one adversarial
// execution and runs it to a horizon.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/signature.hpp"
#include "sim/engine.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"

namespace crusader::sim {

struct WorldConfig {
  ModelParams model;
  std::uint64_t seed = 1;
  double horizon = 120.0;
  /// Bound on initial local-clock offsets: H_v(0) in [0, initial_offset].
  double initial_offset = 0.0;
  crypto::Pki::Kind pki_kind = crypto::Pki::Kind::kSymbolic;
  ClockKind clock_kind = ClockKind::kSpread;
  DelayKind delay_kind = DelayKind::kRandom;
  std::vector<NodeId> faulty;
  std::vector<HardwareClock> custom_clocks;  // used when kCustom
  /// Optional custom delay policy factory (overrides delay_kind).
  DelayFactory custom_delay;
  Enforcement enforcement = Enforcement::kThrow;
  /// Broadcast fast path (aggregate events + shared arena payloads). Off
  /// forces the per-receiver reference path; results are identical either
  /// way (tests/test_engine_fastpath.cpp diffs them).
  bool batch = true;
};

struct RunResult {
  PulseTrace trace;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t signatures_carried = 0;
  std::vector<std::string> violations;
};

/// Factory types: World owns the produced nodes.
using HonestFactory = std::function<std::unique_ptr<PulseNode>(NodeId)>;
using ByzantineFactory = std::function<std::unique_ptr<ByzantineNode>(NodeId)>;

class World {
 public:
  World(WorldConfig config, HonestFactory honest, ByzantineFactory byzantine);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Schedules every node's on_start at t = 0. Idempotent; run() calls it.
  /// Exposed so tests can interleave engine stepping with live probing.
  void start();

  /// Runs to config.horizon and returns the collected results.
  RunResult run();

  /// Access for tests that want to poke at internals mid-run.
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] Network& network() noexcept { return *network_; }
  [[nodiscard]] const HardwareClock& clock(NodeId v) const {
    return clocks_.at(v);
  }
  [[nodiscard]] PulseTrace& trace() noexcept { return *trace_; }
  [[nodiscard]] crypto::Pki& pki() noexcept { return *pki_; }

 private:
  class Host;

  WorldConfig config_;
  std::vector<bool> faulty_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<crypto::Pki> pki_;
  std::unique_ptr<Network> network_;
  std::vector<HardwareClock> clocks_;
  std::unique_ptr<PulseTrace> trace_;
  std::vector<std::unique_ptr<Host>> hosts_;  ///< indexed by node id
  bool started_ = false;
  util::Rng rng_;
};

/// Convenience: mark the first `f` node ids faulty (tests often don't care
/// which ids are faulty; protocols must not either).
[[nodiscard]] std::vector<NodeId> default_faulty_set(std::uint32_t f);

/// The faulty mask of an n-node world: true at each id in `faulty`. Throws
/// util::CheckFailure, naming the id, on an id >= n or a repeated id, and on
/// more than `f` ids.
[[nodiscard]] std::vector<bool> faulty_mask(const std::vector<NodeId>& faulty,
                                            std::uint32_t n, std::uint32_t f);

}  // namespace crusader::sim
