// Differential harness for the engine fast path: the batched
// broadcast/flood delivery (WorldConfig::batch / RelayConfig::batch) and the
// abstract crypto mode must be behavior-preserving — identical traces, skew
// results, sign/verify op counts, and byte-identical CSV rows across every
// world kind, on 1 thread or 4.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "relay/flood_world.hpp"
#include "relay/topology.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "util/check.hpp"

namespace crusader {
namespace {

using runner::CryptoMode;
using runner::ScenarioSpec;
using runner::SweepGrid;
using runner::TopologyKind;
using runner::WorldKind;

/// Every world kind × a spread of protocols, fault loads, and both crypto
/// modes at small n — the cross product the fast path must be invisible on.
SweepGrid differential_grid() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete, WorldKind::kRelay,
                 WorldKind::kTheorem5};
  grid.protocols = {
      baselines::ProtocolKind::kCps, baselines::ProtocolKind::kLynchWelch,
      baselines::ProtocolKind::kSrikanthToueg,
      baselines::ProtocolKind::kFloodProbe};
  grid.ns = {4, 8};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  // kMax: every delay equal → one segment per broadcast (maximal
  // batching). kSplit: exactly two segments. kRandom: one segment per
  // receiver, walked in time order from one queue entry per honest
  // broadcast (and it must burn the same RNG stream).
  grid.delays = {sim::DelayKind::kMax, sim::DelayKind::kRandom,
                 sim::DelayKind::kSplit};
  grid.topologies = {TopologyKind::kHypercube};
  grid.strategies = {core::ByzStrategy::kSplit};
  grid.relay_faults = {relay::RelayFaultKind::kCrash,
                       relay::RelayFaultKind::kMaxDelay};
  grid.cryptos = {CryptoMode::kReal, CryptoMode::kAbstract};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid;
}

std::string sweep_csv(const SweepGrid& grid, bool fast_path,
                      unsigned threads) {
  runner::RunnerOptions options;
  options.base_seed = 7;
  options.threads = threads;
  options.fast_path = fast_path;
  return runner::to_csv(runner::run_sweep(grid.expand(), options));
}

TEST(FastPathDifferential, CsvByteIdenticalAcrossBatchToggle) {
  const auto grid = differential_grid();
  const std::string fast = sweep_csv(grid, /*fast_path=*/true, 1);
  const std::string slow = sweep_csv(grid, /*fast_path=*/false, 1);
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDifferential, CsvByteIdenticalAcrossThreadCounts) {
  const auto grid = differential_grid();
  const std::string one = sweep_csv(grid, /*fast_path=*/true, 1);
  const std::string four = sweep_csv(grid, /*fast_path=*/true, 4);
  EXPECT_EQ(one, four);
}

/// The KLLO additions under the same differential lens: the one-hop
/// gradient/jump-max protocols, churned schedules, and the per-edge-age
/// conformance metrics (kllo_ratio / kllo_violations / edge_age_min CSV
/// columns) must be byte-stable across the batch toggle and thread counts.
SweepGrid kllo_differential_grid() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kGradient,
                    baselines::ProtocolKind::kJumpMax};
  grid.ns = {8, 16};
  grid.fault_loads = {0};
  grid.delays = {sim::DelayKind::kRandom, sim::DelayKind::kSplit};
  grid.topologies = {TopologyKind::kHypercube};
  grid.churn_rates = {0.0, 0.1};
  grid.join_batches = {0, 1};
  grid.reconnects = {relay::ReconnectPolicy::kRandom,
                     relay::ReconnectPolicy::kRingRepair};
  grid.kllo_stabs = {1.0, 4.0};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid;
}

TEST(KlloDifferential, ChurnedCsvByteIdenticalAcrossBatchToggle) {
  const auto grid = kllo_differential_grid();
  EXPECT_EQ(sweep_csv(grid, /*fast_path=*/true, 1),
            sweep_csv(grid, /*fast_path=*/false, 1));
}

TEST(KlloDifferential, ChurnedCsvByteIdenticalAcrossThreadCounts) {
  const auto grid = kllo_differential_grid();
  EXPECT_EQ(sweep_csv(grid, /*fast_path=*/true, 1),
            sweep_csv(grid, /*fast_path=*/true, 4));
}

TEST(KlloDifferential, StabAxisCollapsesOnStaticGrids) {
  // Like the reconnect axis: the stabilization multiplier means nothing
  // without churn, so a churn-free grid with a --kllo-stab axis must expand
  // to the very same cells (and the very same CSV bytes) as one without it.
  auto plain = kllo_differential_grid();
  plain.churn_rates = {0.0};
  plain.join_batches = {0};
  plain.kllo_stabs = {1.0};
  auto stabbed = plain;
  stabbed.kllo_stabs = {1.0, 2.0, 8.0};

  const auto plain_specs = plain.expand();
  const auto stabbed_specs = stabbed.expand();
  ASSERT_EQ(stabbed_specs.size(), plain_specs.size());
  for (std::size_t i = 0; i < plain_specs.size(); ++i)
    EXPECT_EQ(stabbed_specs[i].key(), plain_specs[i].key()) << i;
  EXPECT_EQ(sweep_csv(stabbed, true, 1), sweep_csv(plain, true, 1));

  // With churn the axis is real: it multiplies exactly the dynamic cells.
  auto churned = stabbed;
  churned.churn_rates = {0.0, 0.1};
  std::size_t dynamic_cells = 0;
  std::size_t stretched_cells = 0;
  for (const auto& spec : churned.expand()) {
    if (spec.dynamic()) ++dynamic_cells;
    if (spec.kllo_stab != 1.0) {
      ++stretched_cells;
      EXPECT_TRUE(spec.dynamic()) << spec.name();
    }
  }
  EXPECT_EQ(dynamic_cells % 3, 0u);
  EXPECT_EQ(stretched_cells * 3, dynamic_cells * 2);
}

void expect_traces_identical(const sim::PulseTrace& a,
                             const sim::PulseTrace& b) {
  ASSERT_EQ(a.n(), b.n());
  for (NodeId v = 0; v < a.n(); ++v) {
    ASSERT_EQ(a.pulse_count(v), b.pulse_count(v)) << "node " << v;
    for (std::size_t r = 0; r < a.pulse_count(v); ++r) {
      // Exact, not approximate: the fast path must schedule the very same
      // floating-point times, or seeds stop reproducing across the toggle.
      EXPECT_EQ(a.pulses(v)[r].real_time, b.pulses(v)[r].real_time)
          << "node " << v << " round " << r;
      EXPECT_EQ(a.pulses(v)[r].local_time, b.pulses(v)[r].local_time)
          << "node " << v << " round " << r;
    }
  }
}

void expect_runs_identical(const sim::RunResult& a, const sim::RunResult& b) {
  expect_traces_identical(a.trace, b.trace);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sign_ops, b.sign_ops);
  EXPECT_EQ(a.verify_ops, b.verify_ops);
  EXPECT_EQ(a.signatures_carried, b.signatures_carried);
  EXPECT_EQ(a.violations, b.violations);
}

/// One complete-world run with everything pinned except the knobs under
/// test (by default the split strategy and random delays, WorldConfig's
/// default).
sim::RunResult run_complete(
    baselines::ProtocolKind protocol, crypto::Pki::Kind pki, bool batch,
    std::uint32_t f, std::uint32_t n = 5,
    core::ByzStrategy strategy = core::ByzStrategy::kSplit,
    sim::DelayKind delay = sim::DelayKind::kRandom) {
  sim::ModelParams model;
  model.n = n;
  model.f = f;
  model.d = 1.0;
  model.u = 0.05;
  model.u_tilde = 0.05;
  model.vartheta = 1.02;
  const auto setup = baselines::make_setup(protocol, model);
  EXPECT_TRUE(setup.feasible);
  auto honest = baselines::make_protocol_factory(setup, 6);

  sim::WorldConfig config;
  config.model = model;
  config.seed = 42;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset + 8.0 * setup.round_length;
  config.pki_kind = pki;
  config.delay_kind = delay;
  config.batch = batch;
  config.faulty = sim::default_faulty_set(f);

  sim::ByzantineFactory byz;
  if (f > 0)
    byz = core::make_byzantine_factory(strategy, honest, 42, 0.0, 0.0);
  sim::World world(config, std::move(honest), std::move(byz));
  return world.run();
}

TEST(FastPathDifferential, CompleteWorldIdenticalAcrossBatchToggle) {
  for (const auto protocol :
       {baselines::ProtocolKind::kCps, baselines::ProtocolKind::kSrikanthToueg,
        baselines::ProtocolKind::kFloodProbe}) {
    for (const std::uint32_t f : {0u, 1u}) {
      const auto fast = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                     /*batch=*/true, f);
      const auto slow = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                     /*batch=*/false, f);
      expect_runs_identical(fast, slow);
    }
  }
}

TEST(FastPathDifferential, CompleteWorldIdenticalAcrossBatchToggleAtN31) {
  // Random delays at n = 31: nearly every receiver is its own delivery
  // segment, so each honest broadcast walks ~30 segments, interleaved with
  // the faulty nodes' per-receiver sends and the nested broadcasts the
  // deliveries trigger.
  for (const auto protocol :
       {baselines::ProtocolKind::kCps, baselines::ProtocolKind::kLynchWelch,
        baselines::ProtocolKind::kSrikanthToueg}) {
    const auto fast = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                   /*batch=*/true, /*f=*/10, /*n=*/31);
    const auto slow = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                   /*batch=*/false, /*f=*/10, /*n=*/31);
    expect_runs_identical(fast, slow);
    EXPECT_GT(fast.messages, 0u);
  }
}

TEST(FastPathDifferential, ByzantineWorldsIdenticalAcrossBatchToggle) {
  // A faulty sender's broadcast rides the segment walk whenever the
  // Dolev–Yao check passes. Every strategy at max faults — the paper's
  // n/3 <= f < n/2 regime for CPS and ST — must still reproduce the
  // per-receiver reference path: one segment per broadcast (max), two
  // (split) or one per receiver (random). Enforcement stays kThrow, so a
  // model violation on either path fails the run.
  for (const auto protocol :
       {baselines::ProtocolKind::kCps, baselines::ProtocolKind::kLynchWelch,
        baselines::ProtocolKind::kSrikanthToueg}) {
    for (const std::uint32_t n : {7u, 16u}) {
      const std::uint32_t f = runner::max_resilience(protocol, n);
      for (const auto delay : {sim::DelayKind::kRandom, sim::DelayKind::kSplit,
                               sim::DelayKind::kMax}) {
        for (const auto& row : core::kByzStrategySpellings) {
          SCOPED_TRACE(std::string(baselines::to_string(protocol)) +
                       " n=" + std::to_string(n) + " f=" + std::to_string(f) +
                       " " + sim::to_string(delay) + " " + row.text);
          const auto fast = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                         /*batch=*/true, f, n, row.value,
                                         delay);
          const auto slow = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                         /*batch=*/false, f, n, row.value,
                                         delay);
          expect_runs_identical(fast, slow);
          EXPECT_GT(fast.messages, 0u);
        }
      }
    }
  }
}

TEST(FastPathDifferential, CompleteWorldIdenticalAbstractVsRealCrypto) {
  // Same config seed, only the Pki kind varies: the abstract scheme must
  // reproduce the symbolic scheme's behavior (op counts included) exactly —
  // it only swaps the hash under the signatures.
  for (const auto protocol :
       {baselines::ProtocolKind::kCps, baselines::ProtocolKind::kSrikanthToueg,
        baselines::ProtocolKind::kFloodProbe}) {
    const auto real = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                   /*batch=*/true, 1);
    const auto abstracted = run_complete(
        protocol, crypto::Pki::Kind::kAbstract, /*batch=*/true, 1);
    expect_runs_identical(real, abstracted);
    EXPECT_GT(real.sign_ops, 0u);
    EXPECT_GT(real.verify_ops, 0u);
  }
}

void expect_relay_runs_identical(const relay::RelayRunResult& a,
                                 const relay::RelayRunResult& b) {
  expect_traces_identical(a.trace, b.trace);
  EXPECT_EQ(a.worst_hops, b.worst_hops);
  EXPECT_EQ(a.physical_messages, b.physical_messages);
  EXPECT_EQ(a.floods, b.floods);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sign_ops, b.sign_ops);
  EXPECT_EQ(a.verify_ops, b.verify_ops);
}

relay::RelayRunResult run_relay(crypto::Pki::Kind pki, bool batch,
                                relay::RelayFaultKind fault_kind,
                                std::uint32_t f) {
  relay::RelayConfig config;
  config.topology = relay::Topology::hypercube(3);
  config.hop_model.n = 8;
  config.hop_model.f = f;
  config.hop_model.d = 1.0;
  config.hop_model.u = 0.05;
  config.hop_model.u_tilde = 0.05;
  config.hop_model.vartheta = 1.01;
  config.seed = 42;
  config.faulty = sim::default_faulty_set(f);
  config.fault_kind = fault_kind;
  config.pki_kind = pki;
  config.batch = batch;

  const auto effective = relay::compute_effective(config);
  const auto setup = baselines::make_setup(baselines::ProtocolKind::kCps,
                                           effective.model);
  EXPECT_TRUE(setup.feasible);
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset + 8.0 * setup.round_length;
  relay::RelayWorld world(config, baselines::make_protocol_factory(setup, 6),
                          effective);
  return world.run();
}

TEST(FastPathDifferential, RelayWorldIdenticalAcrossBatchToggle) {
  for (const auto fault : {relay::RelayFaultKind::kCrash,
                           relay::RelayFaultKind::kMaxDelay,
                           relay::RelayFaultKind::kReorder,
                           relay::RelayFaultKind::kSelectiveDrop}) {
    for (const std::uint32_t f : {0u, 1u}) {
      const auto fast = run_relay(crypto::Pki::Kind::kSymbolic,
                                  /*batch=*/true, fault, f);
      const auto slow = run_relay(crypto::Pki::Kind::kSymbolic,
                                  /*batch=*/false, fault, f);
      expect_relay_runs_identical(fast, slow);
    }
  }
}

TEST(FastPathDifferential, RelayWorldIdenticalAbstractVsRealCrypto) {
  const auto real = run_relay(crypto::Pki::Kind::kSymbolic, /*batch=*/true,
                              relay::RelayFaultKind::kCrash, 1);
  const auto abstracted = run_relay(crypto::Pki::Kind::kAbstract,
                                    /*batch=*/true,
                                    relay::RelayFaultKind::kCrash, 1);
  expect_relay_runs_identical(real, abstracted);
  EXPECT_GT(real.sign_ops, 0u);
  EXPECT_GT(real.verify_ops, 0u);
}

// --- Network-level delivery-order property -------------------------------

using PolicyFactory = std::function<std::unique_ptr<sim::DelayPolicy>()>;

struct Delivery {
  NodeId to;
  NodeId from;
  double at;
  friend bool operator==(const Delivery&, const Delivery&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Delivery& d) {
    return os << d.from << "->" << d.to << "@" << d.at;
  }
};

struct NetFixture {
  sim::Engine engine;
  std::vector<Delivery> order;
  std::unique_ptr<sim::Network> net;
  /// When set, every receiver of a broadcast from node 0 re-broadcasts from
  /// inside the delivery, so nested broadcasts interleave with the walk.
  bool echo = false;

  NetFixture(std::uint32_t n, std::unique_ptr<sim::DelayPolicy> policy,
             bool batch, std::vector<bool> faulty = {},
             double u_tilde = 0.3,
             sim::Enforcement enforcement = sim::Enforcement::kThrow) {
    sim::ModelParams m;
    m.n = n;
    if (faulty.empty()) faulty.assign(n, false);
    m.f = static_cast<std::uint32_t>(
        std::count(faulty.begin(), faulty.end(), true));
    m.d = 1.0;
    m.u = 0.2;
    m.u_tilde = u_tilde;
    m.vartheta = 1.01;
    net = std::make_unique<sim::Network>(engine, m, std::move(faulty),
                                         std::move(policy), util::Rng(7),
                                         enforcement);
    net->set_batch(batch);
    net->set_deliver([this](NodeId to, const sim::Message& msg) {
      order.push_back(Delivery{to, msg.sender, engine.now()});
      if (echo && msg.sender == 0) net->broadcast(to, sim::Message{});
    });
  }

  NetFixture(sim::DelayKind kind, bool batch)
      : NetFixture(6, sim::make_delay_policy(kind, 6), batch) {}
};

/// Runs the same broadcasts with the batch toggle on and off and expects the
/// very same (receiver, sender, time) sequence, logical event count and
/// message count. Returns the reference path's deliveries.
std::vector<Delivery> expect_same_delivery_order(
    std::uint32_t n, const PolicyFactory& policy,
    const std::vector<NodeId>& senders, const std::string& label,
    double start = 0.0, bool echo = false) {
  std::vector<bool> faulty(n, false);
  faulty[n - 1] = true;  // one faulty endpoint: wider lower delay bound
  NetFixture fast(n, policy(), /*batch=*/true, faulty);
  NetFixture slow(n, policy(), /*batch=*/false, faulty);
  for (auto* fx : {&fast, &slow}) {
    fx->echo = echo;
    fx->engine.run_until(start);
    for (const NodeId s : senders) fx->net->broadcast(s, sim::Message{});
    fx->engine.run_until(start + 3.0);
  }
  EXPECT_EQ(fast.order, slow.order) << label;
  EXPECT_EQ(fast.engine.events_processed(), slow.engine.events_processed())
      << label;
  EXPECT_EQ(fast.net->stats().messages, slow.net->stats().messages) << label;
  EXPECT_EQ(fast.order.size(), slow.net->stats().messages) << label;
  return slow.order;
}

TEST(FastPathDifferential, BatchedBroadcastPreservesDeliveryOrder) {
  // Two broadcasts scheduled back-to-back: the batched path must deliver in
  // the exact per-receiver order of the reference path — within a run by
  // receiver order, across equal-time runs by scheduling order (the queue's
  // FIFO tie-break).
  for (const auto kind : {sim::DelayKind::kMax, sim::DelayKind::kMin,
                          sim::DelayKind::kRandom, sim::DelayKind::kSplit}) {
    NetFixture fast(kind, /*batch=*/true);
    NetFixture slow(kind, /*batch=*/false);
    for (auto* fx : {&fast, &slow}) {
      fx->net->broadcast(0, sim::Message{});
      fx->net->broadcast(1, sim::Message{});
      fx->engine.run_until(2.0);
    }
    EXPECT_EQ(fast.order, slow.order) << sim::to_string(kind);
    EXPECT_EQ(fast.engine.events_processed(), slow.engine.events_processed())
        << sim::to_string(kind);
    EXPECT_EQ(fast.net->stats().messages, slow.net->stats().messages)
        << sim::to_string(kind);
  }

  // n = 31, three senders broadcasting at the same instant, with and without
  // every receiver echoing from inside its delivery.
  constexpr std::uint32_t kN = 31;
  const std::vector<NodeId> three = {0, 1, 2};
  for (const bool echo : {false, true}) {
    for (const auto kind : {sim::DelayKind::kRandom, sim::DelayKind::kSplit,
                            sim::DelayKind::kMax, sim::DelayKind::kMin}) {
      expect_same_delivery_order(
          kN, [kind] { return sim::make_delay_policy(kind, kN); }, three,
          std::string(sim::to_string(kind)) + (echo ? " echo" : ""), 0.0,
          echo);
    }
    // Custom policies: equal delays on non-consecutive receivers, so one
    // broadcast has several segments due at the same time.
    const std::vector<std::pair<std::string, PolicyFactory>> custom = {
        {"custom:target",
         [] { return std::make_unique<sim::TargetedDelayPolicy>(5); }},
        {"custom:alternate",
         [] { return std::make_unique<sim::AlternatingDelayPolicy>(); }},
        {"custom:fixed",
         [] { return std::make_unique<sim::FixedFractionDelayPolicy>(0.25); }},
    };
    for (const auto& [name, factory] : custom)
      expect_same_delivery_order(kN, factory, three,
                                 name + (echo ? " echo" : ""), 0.0, echo);
  }

  // At now = 2^45 one ulp is 2^-7, so distinct random delays in [0.8, 1]
  // collapse onto ~26 absolute times: segments with different delays fall
  // due at the same instant and must still fire in receiver order.
  const double late = std::ldexp(1.0, 45);
  const auto deliveries = expect_same_delivery_order(
      kN, [] { return sim::make_delay_policy(sim::DelayKind::kRandom, kN); },
      three, "random at 2^45", late);
  std::vector<double> times;
  for (const auto& d : deliveries)
    if (d.from == 0) times.push_back(d.at);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  EXPECT_LT(times.size(), kN - 1) << "no two delays rounded together";
}

/// Per-receiver delays from a fixed table.
class TableDelayPolicy final : public sim::DelayPolicy {
 public:
  explicit TableDelayPolicy(std::vector<double> delays)
      : delays_(std::move(delays)) {}
  double delay(NodeId, NodeId to, double, const sim::Message&, double,
               double, util::Rng&) override {
    return delays_.at(to);
  }
  [[nodiscard]] std::string name() const override { return "table"; }

 private:
  std::vector<double> delays_;
};

TEST(FastPathDifferential, BatchedBroadcastClampsDueTimesLikeEngineAt) {
  // With u_tilde = d a faulty receiver's lower bound is 0, and a delay just
  // below it is within tolerance, so it is neither flagged nor clamped by
  // the network. Engine::at clamps the due time to now(), where the
  // per-receiver path fires receivers 2 and 3 in id order; the segment walk
  // must clamp before ordering by time, or it would deliver 3 first.
  const std::vector<double> delays = {0.0, 0.95, 0.0, -5e-10};
  const std::vector<bool> faulty = {false, false, true, true};
  NetFixture fast(4, std::make_unique<TableDelayPolicy>(delays),
                  /*batch=*/true, faulty, /*u_tilde=*/1.0);
  NetFixture slow(4, std::make_unique<TableDelayPolicy>(delays),
                  /*batch=*/false, faulty, /*u_tilde=*/1.0);
  for (auto* fx : {&fast, &slow}) {
    fx->engine.run_until(1.0);
    fx->net->broadcast(0, sim::Message{});
    fx->engine.run_until(3.0);
  }
  EXPECT_EQ(fast.order, slow.order);
  ASSERT_EQ(slow.order.size(), 3u);
  EXPECT_EQ(slow.order[0], (Delivery{2, 0, 1.0}));
  EXPECT_EQ(slow.order[1], (Delivery{3, 0, 1.0}));
  EXPECT_TRUE(fast.net->violations().empty());
}

/// A signed message whose one signature is `signer`'s over `payload_hash`.
sim::Message signed_message(NodeId signer, std::uint64_t payload_hash) {
  sim::Message m;
  m.kind = sim::MsgKind::kTcbSig;
  m.dealer = signer;
  m.sig.signer = signer;
  m.sig.payload_hash = payload_hash;
  return m;
}

TEST(FastPathDifferential, BatchedBroadcastHoldsOneQueueEntry) {
  // k broadcasts in flight hold exactly k queue entries however many
  // delivery segments they have; the reference path holds one per receiver.
  // That holds for faulty senders too once the Dolev–Yao check passes: here
  // each carries its own signature, which the adversary always knows.
  constexpr std::uint32_t kN = 31;
  for (const bool faulty_senders : {false, true}) {
    for (const auto kind : {sim::DelayKind::kMax, sim::DelayKind::kMin,
                            sim::DelayKind::kRandom, sim::DelayKind::kSplit}) {
      for (const std::size_t k : {1u, 3u}) {
        const std::string label = std::string(sim::to_string(kind)) +
                                  (faulty_senders ? " faulty" : " honest") +
                                  " k=" + std::to_string(k);
        std::vector<bool> faulty(kN, false);
        if (faulty_senders) std::fill_n(faulty.begin(), k, true);
        NetFixture fast(kN, sim::make_delay_policy(kind, kN), /*batch=*/true,
                        faulty);
        NetFixture slow(kN, sim::make_delay_policy(kind, kN), /*batch=*/false,
                        faulty);
        for (auto* fx : {&fast, &slow}) {
          for (NodeId s = 0; s < k; ++s)
            fx->net->broadcast(s, faulty_senders ? signed_message(s, 1 + s)
                                                 : sim::Message{});
          fx->engine.run_until(2.0);
        }
        EXPECT_EQ(fast.engine.queue_high_water(), k) << label;
        EXPECT_EQ(slow.engine.queue_high_water(), k * (kN - 1)) << label;
        EXPECT_EQ(fast.order, slow.order) << label;
        EXPECT_EQ(fast.net->stats().signatures_carried,
                  slow.net->stats().signatures_carried)
            << label;
        EXPECT_TRUE(fast.net->violations().empty()) << label;
      }
    }
  }
}

TEST(FastPathDifferential, FaultyBroadcastOfUnreceivedSignatureIsFlaggedAlike) {
  // Faulty node 3 broadcasts honest node 0's signature before any faulty
  // node received it. The batched path must not skip the Dolev–Yao check:
  // under kRecord both paths record the same n - 1 violations in the same
  // order and still deliver alike; under kThrow both throw the same text.
  constexpr std::uint32_t kN = 6;
  constexpr NodeId kFaulty = 3;
  const std::vector<bool> faulty = {false, false, false, true, false, false};
  const std::string want =
      "faulty node 3 sent signature of honest node 0 (payload 99) before "
      "receiving it";
  for (const auto kind : {sim::DelayKind::kMax, sim::DelayKind::kRandom,
                          sim::DelayKind::kSplit}) {
    const std::string label = sim::to_string(kind);
    NetFixture fast(kN, sim::make_delay_policy(kind, kN), /*batch=*/true,
                    faulty, 0.3, sim::Enforcement::kRecord);
    NetFixture slow(kN, sim::make_delay_policy(kind, kN), /*batch=*/false,
                    faulty, 0.3, sim::Enforcement::kRecord);
    for (auto* fx : {&fast, &slow}) {
      fx->net->broadcast(kFaulty, signed_message(0, 99));
      fx->engine.run_until(2.0);
    }
    EXPECT_EQ(slow.net->violations(),
              std::vector<std::string>(kN - 1, want))
        << label;
    EXPECT_EQ(fast.net->violations(), slow.net->violations()) << label;
    EXPECT_EQ(fast.order, slow.order) << label;
    EXPECT_EQ(fast.order.size(), kN - 1) << label;
    EXPECT_EQ(fast.engine.events_processed(), slow.engine.events_processed())
        << label;

    for (const bool batch : {true, false}) {
      NetFixture strict(kN, sim::make_delay_policy(kind, kN), batch, faulty);
      try {
        strict.net->broadcast(kFaulty, signed_message(0, 99));
        ADD_FAILURE() << label << " batch=" << batch << ": no throw";
      } catch (const util::ModelViolation& e) {
        EXPECT_EQ(std::string(e.what()), want)
            << label << " batch=" << batch;
      }
    }
  }
}

TEST(FastPathDifferential, FaultyRelayOfReceivedSignatureIsBatched) {
  // Once a faulty node has received honest node 0's signature, any faulty
  // node may relay it: the check passes and the relay is one queue entry.
  constexpr std::uint32_t kN = 8;
  const std::vector<bool> faulty = {false, false, false, false,
                                    false, false, true, true};
  NetFixture fast(kN, sim::make_delay_policy(sim::DelayKind::kMax, kN),
                  /*batch=*/true, faulty);
  NetFixture slow(kN, sim::make_delay_policy(sim::DelayKind::kMax, kN),
                  /*batch=*/false, faulty);
  for (auto* fx : {&fast, &slow}) {
    fx->net->broadcast(0, signed_message(0, 5));
    fx->engine.run_until(2.0);  // nodes 6 and 7 learn the signature
    fx->net->broadcast(7, signed_message(0, 5));
    fx->engine.run_until(4.0);
  }
  EXPECT_EQ(fast.order, slow.order);
  EXPECT_EQ(fast.order.size(), 2 * (kN - 1));
  EXPECT_TRUE(fast.net->violations().empty());
  EXPECT_EQ(fast.engine.queue_high_water(), 1u);
  EXPECT_EQ(slow.engine.queue_high_water(), kN - 1);
}

TEST(FastPathDifferential, BatchedBroadcastSharesOneArenaPayload) {
  // With all-equal delays a 5-receiver broadcast is one aggregate event over
  // one arena payload; the reference path acquires one payload per receiver.
  NetFixture fast(sim::DelayKind::kMax, /*batch=*/true);
  NetFixture slow(sim::DelayKind::kMax, /*batch=*/false);
  fast.net->broadcast(0, sim::Message{});
  slow.net->broadcast(0, sim::Message{});
  EXPECT_EQ(fast.net->arena().acquired(), 1u);
  EXPECT_EQ(slow.net->arena().acquired(), 5u);
  fast.engine.run_until(2.0);
  slow.engine.run_until(2.0);
  EXPECT_EQ(fast.order, slow.order);
  // All payloads released after delivery; slots stand by for reuse.
  EXPECT_EQ(fast.net->arena().live(), 0u);
  EXPECT_EQ(slow.net->arena().live(), 0u);
}

}  // namespace
}  // namespace crusader
