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
#include "util/spelling.hpp"

namespace crusader::sim {

/// Hardware-clock assignment strategies (the adversary's clock choice).
enum class ClockKind {
  kNominal,     // all rates 1, offsets spread evenly in [0, S0]
  kSpread,      // alternating rates 1 / vartheta, extremal offsets — maximum
                // sustained drift divergence
  kRandomWalk,  // per-node random rate walk within [1, vartheta]
  kCustom,      // WorldConfig::custom_clocks
};

/// kCustom keeps its name for printing; the runner's parser refuses it, since
/// a caller-built clock vector cannot come from a flag.
inline constexpr util::Spelling<ClockKind> kClockKindSpellings[] = {
    {ClockKind::kNominal, "nominal"},
    {ClockKind::kSpread, "spread"},
    {ClockKind::kRandomWalk, "random-walk"},
    {ClockKind::kRandomWalk, "walk"},
    {ClockKind::kCustom, "custom"},
};

[[nodiscard]] const char* to_string(ClockKind kind);

struct WorldConfig {
  ModelParams model;
  std::uint64_t seed = 1;
  double horizon = 120.0;
  /// Bound on initial local-clock offsets: H_v(0) in [0, initial_offset].
  double initial_offset = 0.0;
  crypto::Pki::Kind pki_kind = crypto::Pki::Kind::kSymbolic;
  ClockKind clock_kind = ClockKind::kSpread;
  DelayKind delay_kind = DelayKind::kRandom;
  /// Segment length for ClockKind::kRandomWalk.
  double clock_segment = 5.0;
  std::vector<NodeId> faulty;
  std::vector<HardwareClock> custom_clocks;  // used when kCustom
  /// Optional custom delay policy factory (overrides delay_kind).
  std::function<std::unique_ptr<DelayPolicy>()> custom_delay;
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
  class HonestRunner;
  class ByzantineRunner;

  void build_clocks();
  void build_runners(HonestFactory honest, ByzantineFactory byzantine);

  WorldConfig config_;
  std::vector<bool> faulty_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<crypto::Pki> pki_;
  std::unique_ptr<Network> network_;
  std::vector<HardwareClock> clocks_;
  std::unique_ptr<PulseTrace> trace_;
  std::vector<std::unique_ptr<HonestRunner>> honest_runners_;
  std::vector<std::unique_ptr<ByzantineRunner>> byz_runners_;
  // Dispatch table: per node, pointer to runner deliver function.
  std::vector<std::function<void(const Message&)>> deliver_table_;
  std::vector<std::function<void()>> start_table_;
  bool started_ = false;
  util::Rng rng_;
};

/// Convenience: mark the first `f` node ids faulty (tests often don't care
/// which ids are faulty; protocols must not either).
[[nodiscard]] std::vector<NodeId> default_faulty_set(std::uint32_t f);

}  // namespace crusader::sim
