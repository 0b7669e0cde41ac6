#include "sim/world.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "util/check.hpp"

namespace crusader::sim {
namespace {

/// Minimal protocol for world-level tests: pulses every `period` local units
/// and broadcasts one raw message per pulse.
class BeaconNode final : public PulseNode {
 public:
  explicit BeaconNode(double period) : period_(period) {}

  void on_start(Env& env) override {
    env.pulse();
    env.schedule_at_local(env.local_now() + period_, 0);
  }
  void on_message(Env&, const Message&) override { ++received_; }
  void on_timer(Env& env, std::uint64_t) override {
    env.pulse();
    Message m;
    m.kind = MsgKind::kRaw;
    env.broadcast(m);
    env.schedule_at_local(env.local_now() + period_, 0);
  }

  [[nodiscard]] int received() const noexcept { return received_; }

 private:
  double period_;
  int received_ = 0;
};

WorldConfig base_config() {
  WorldConfig config;
  config.model = testing::small_model(4, 1);
  config.horizon = 20.0;
  config.initial_offset = 0.2;
  config.clock_kind = ClockKind::kNominal;
  config.delay_kind = DelayKind::kRandom;
  return config;
}

HonestFactory beacon_factory() {
  return [](NodeId) { return std::make_unique<BeaconNode>(2.0); };
}

TEST(World, RunsAndRecordsPulses) {
  World world(base_config(), beacon_factory(), nullptr);
  const RunResult result = world.run();
  EXPECT_GE(result.trace.complete_rounds(), 8u);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.events, 0u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(World, DeterministicForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    WorldConfig config = base_config();
    config.seed = seed;
    config.clock_kind = ClockKind::kRandomWalk;
    World world(config, beacon_factory(), nullptr);
    return world.run();
  };
  const RunResult a = run_once(5);
  const RunResult b = run_once(5);
  const RunResult c = run_once(6);
  ASSERT_EQ(a.trace.complete_rounds(), b.trace.complete_rounds());
  for (std::size_t r = 0; r < a.trace.complete_rounds(); ++r)
    EXPECT_DOUBLE_EQ(a.trace.skew(r), b.trace.skew(r));
  // Different seed should change at least some pulse time.
  bool any_diff = c.trace.complete_rounds() != a.trace.complete_rounds();
  const std::size_t rounds = std::min(a.trace.complete_rounds(),
                                      c.trace.complete_rounds());
  for (std::size_t r = 0; !any_diff && r < rounds; ++r)
    any_diff = a.trace.skew(r) != c.trace.skew(r);
  EXPECT_TRUE(any_diff);
}

TEST(World, ClockKindsRespectModel) {
  for (ClockKind kind : {ClockKind::kNominal, ClockKind::kSpread,
                         ClockKind::kRandomWalk}) {
    WorldConfig config = base_config();
    config.clock_kind = kind;
    World world(config, beacon_factory(), nullptr);
    for (NodeId v = 0; v < config.model.n; ++v) {
      world.clock(v).check_valid(config.model.vartheta);
      EXPECT_GE(world.clock(v).offset(), 0.0);
      EXPECT_LE(world.clock(v).offset(), config.initial_offset + 1e-12);
    }
  }
}

TEST(World, CustomClocks) {
  WorldConfig config = base_config();
  config.clock_kind = ClockKind::kCustom;
  for (NodeId v = 0; v < config.model.n; ++v)
    config.custom_clocks.push_back(HardwareClock::constant(1.0, 0.05 * v));
  World world(config, beacon_factory(), nullptr);
  EXPECT_DOUBLE_EQ(world.clock(2).offset(), 0.1);
}

TEST(World, CustomClockCountMismatchThrows) {
  WorldConfig config = base_config();
  config.clock_kind = ClockKind::kCustom;
  config.custom_clocks.push_back(HardwareClock::constant(1.0, 0.0));
  EXPECT_THROW(World(config, beacon_factory(), nullptr), util::CheckFailure);
}

TEST(World, FaultyNeedsByzantineFactory) {
  WorldConfig config = base_config();
  config.faulty = {0};
  EXPECT_THROW(World(config, beacon_factory(), nullptr), util::CheckFailure);
}

TEST(World, TooManyFaultyRejected) {
  WorldConfig config = base_config();
  config.faulty = {0, 1};  // model.f == 1
  auto byz = [](NodeId) { return std::make_unique<core::CrashByzantine>(); };
  EXPECT_THROW(World(config, beacon_factory(), byz), util::CheckFailure);
}

TEST(World, DuplicateFaultyIdRejected) {
  WorldConfig config = base_config();
  config.model = testing::small_model(7, 2);
  config.faulty = {1, 1};
  auto byz = [](NodeId) { return std::make_unique<core::CrashByzantine>(); };
  try {
    World world(config, beacon_factory(), byz);
    FAIL() << "duplicate faulty id accepted";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate faulty id 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(World, CrashFaultyNodesDontBlockHonest) {
  WorldConfig config = base_config();
  config.faulty = {3};
  auto byz = [](NodeId) { return std::make_unique<core::CrashByzantine>(); };
  World world(config, beacon_factory(), byz);
  const RunResult result = world.run();
  EXPECT_GE(result.trace.complete_rounds(), 8u);
  EXPECT_TRUE(result.trace.pulses(3).empty());
}

TEST(World, MessagesDelivered) {
  WorldConfig config = base_config();
  // Keep raw pointers to inspect nodes after the run.
  std::vector<BeaconNode*> nodes(config.model.n, nullptr);
  HonestFactory factory = [&nodes](NodeId v) {
    auto node = std::make_unique<BeaconNode>(2.0);
    nodes[v] = node.get();
    return node;
  };
  World world(config, factory, nullptr);
  (void)world.run();
  for (auto* node : nodes) {
    ASSERT_NE(node, nullptr);
    EXPECT_GT(node->received(), 10);
  }
}

// --- Pinned complete-world digests -----------------------------------------

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Order-sensitive digest of a run: every pulse's real and local time plus
/// the engine, message and crypto counters.
std::uint64_t run_digest(const RunResult& run) {
  std::uint64_t h = 0xc10c7ULL;
  const auto fold = [&h](std::uint64_t x) { h = util::mix64(h ^ x); };
  for (NodeId v = 0; v < run.trace.n(); ++v) {
    fold(run.trace.pulse_count(v));
    for (const auto& p : run.trace.pulses(v)) {
      fold(double_bits(p.real_time));
      fold(double_bits(p.local_time));
    }
  }
  fold(run.events);
  fold(run.messages);
  fold(run.sign_ops);
  fold(run.verify_ops);
  fold(run.violations.size());
  return h;
}

/// CPS at n = 7 with two split-delay Byzantine nodes under `kind` clocks;
/// kCustom gives each node a two-phase ramp inside the offset bound.
RunResult run_clock_cell(ClockKind kind, std::uint64_t seed) {
  const ModelParams model = testing::small_model(7, 2);
  const auto setup =
      baselines::make_setup(baselines::ProtocolKind::kCps, model);
  auto honest = baselines::make_protocol_factory(setup);
  WorldConfig config = testing::world_config(model, setup, 6, seed);
  config.clock_kind = kind;
  config.faulty = default_faulty_set(2);
  if (kind == ClockKind::kCustom) {
    for (NodeId v = 0; v < model.n; ++v) {
      config.custom_clocks.push_back(HardwareClock::two_phase(
          model.vartheta, 1.5 * v, 1.0, setup.initial_offset * v / 6.0));
    }
  }
  World world(config, honest,
              core::make_byzantine_factory(core::ByzStrategy::kSplit, honest,
                                           seed));
  return world.run();
}

TEST(WorldDigest, EveryClockKindAtTwoSeedsIsPinned) {
  const ClockKind kinds[] = {ClockKind::kNominal, ClockKind::kSpread,
                             ClockKind::kRandomWalk, ClockKind::kCustom};
  const std::uint64_t seeds[] = {3, 11};
  const std::uint64_t expected[][2] = {
      {0xdef619d598f9544b, 0x65c7c07143ee94e1},
      {0x4a4f7e9debe5c1f3, 0x4bdb5ada0b3406fa},
      {0x88a728e6fa6ddc3a, 0x63d11a9d4fe9d649},
      {0x263db890aea39753, 0x9c5594d3a4e300c0}};
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    for (std::size_t s = 0; s < std::size(seeds); ++s) {
      const RunResult run = run_clock_cell(kinds[k], seeds[s]);
      EXPECT_GE(run.trace.complete_rounds(), 6u);
      EXPECT_EQ(run_digest(run), expected[k][s])
          << to_string(kinds[k]) << " seed=" << seeds[s] << " digest=0x"
          << std::hex << run_digest(run);
    }
  }
}

TEST(DefaultFaultySet, FirstFIds) {
  EXPECT_EQ(default_faulty_set(3), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(default_faulty_set(0).empty());
}

}  // namespace
}  // namespace crusader::sim
