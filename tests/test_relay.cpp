// Sparse-network translation (paper Appendix A): (f+1)-connectivity
// simulates full connectivity; CPS runs unchanged with effective
// (d_eff, u_eff) = (D_f·d_hop, D_f·u_hop + drift).

#include "relay/flood_world.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.hpp"
#include "core/cps.hpp"
#include "core/params.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::relay {
namespace {

TEST(Topology, CompleteGraphProperties) {
  const auto topo = Topology::complete(5);
  EXPECT_EQ(topo.edge_count(), 10u);
  EXPECT_TRUE(topo.survives_faults(2));
  EXPECT_EQ(topo.worst_case_distance(2), 1u);
}

TEST(Topology, RingConnectivity) {
  const auto topo = Topology::ring(6);
  EXPECT_EQ(topo.edge_count(), 6u);
  EXPECT_TRUE(topo.survives_faults(1));   // 2-connected
  EXPECT_FALSE(topo.survives_faults(2));  // two cuts disconnect a ring
  // Removing one node forces the long way around: 6-2 = 4 hops.
  EXPECT_EQ(topo.worst_case_distance(1), 4u);
}

TEST(Topology, ChordalRingBeatsPlainRing) {
  const auto plain = Topology::ring(8);
  const auto chordal = Topology::chordal_ring(8, 2);
  EXPECT_TRUE(chordal.survives_faults(2));
  EXPECT_FALSE(plain.survives_faults(2));
  EXPECT_LT(chordal.worst_case_distance(1), plain.worst_case_distance(1));
}

TEST(Topology, RingOfCliques) {
  const auto topo = Topology::ring_of_cliques(3, 4, 2);
  EXPECT_EQ(topo.n(), 12u);
  EXPECT_TRUE(topo.survives_faults(2));
  EXPECT_GE(topo.worst_case_distance(2), 2u);
}

TEST(Topology, DistanceRespectsExclusions) {
  auto topo = Topology::ring(5);
  std::vector<bool> nobody(5, false);
  EXPECT_EQ(topo.distance(0, 2, nobody), 2u);
  std::vector<bool> cut(5, false);
  cut[1] = true;
  EXPECT_EQ(topo.distance(0, 2, cut), 3u);  // the long way
  cut[3] = true;
  cut[4] = true;
  EXPECT_EQ(topo.distance(0, 2, cut),
            std::numeric_limits<std::uint32_t>::max());
}

TEST(Topology, DuplicateEdgesIgnored) {
  Topology topo(3);
  topo.add_edge(0, 1);
  topo.add_edge(1, 0);
  EXPECT_EQ(topo.edge_count(), 1u);
}

// --- Property tests for the wired sparse families ---------------------------

/// Reference implementation of worst_case_distance: the original brute-force
/// per-pair walk over every size-f subset. Only viable for n ≤ 12 — which is
/// exactly the regime where the production BFS must agree with it exactly.
std::uint32_t brute_force_worst_distance(const Topology& topo,
                                         std::uint32_t f) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t n = topo.n();
  std::uint32_t worst = 0;
  std::vector<bool> excluded(n, false);
  std::vector<NodeId> subset;
  std::function<void(NodeId)> rec = [&](NodeId start) {
    if (subset.size() == f) {
      for (NodeId s = 0; s < n; ++s) {
        if (excluded[s]) continue;
        for (NodeId t = s + 1; t < n; ++t) {
          if (excluded[t]) continue;
          const std::uint32_t dist = topo.distance(s, t, excluded);
          CS_CHECK(dist != kInf);
          worst = std::max(worst, dist);
        }
      }
      return;
    }
    for (NodeId v = start; v < n; ++v) {
      excluded[v] = true;
      subset.push_back(v);
      rec(v + 1);
      subset.pop_back();
      excluded[v] = false;
    }
  };
  rec(0);
  return worst;
}

TEST(Topology, ChordalRingConnectivityFormula) {
  // C_n(1, 2) is 4-connected for n ≥ 6 (consecutive-stride circulants are
  // maximally connected): survives min(3, n − 2) faults and no more.
  for (std::uint32_t n = 5; n <= 12; ++n) {
    SCOPED_TRACE(n);
    const auto topo = Topology::chordal_ring(n, 2);
    const std::uint32_t f = std::min(3u, n - 2);
    EXPECT_TRUE(topo.survives_faults(f));
    if (f + 3 <= n) {
      EXPECT_FALSE(topo.survives_faults(f + 1));
    }
  }
}

TEST(Topology, RingOfCliquesConnectivityFormula) {
  // Size-4 cliques with 2 bridges per junction: cutting the clique ring
  // takes both junctions (4 nodes) and isolating a node takes its degree-4
  // neighborhood, so the family survives 2·bridges − 1 = 3 faults exactly.
  for (std::uint32_t cliques = 2; cliques <= 3; ++cliques) {
    SCOPED_TRACE(cliques);
    const auto topo = Topology::ring_of_cliques(cliques, 4, 2);
    EXPECT_TRUE(topo.survives_faults(3));
    EXPECT_FALSE(topo.survives_faults(4));
  }
}

TEST(Topology, WorstCaseDistanceMonotoneInFaults) {
  const Topology topos[] = {Topology::chordal_ring(10, 2),
                            Topology::ring_of_cliques(3, 4, 2),
                            Topology::hypercube(3)};
  const std::uint32_t max_f[] = {3, 3, 2};
  for (std::size_t i = 0; i < std::size(topos); ++i) {
    std::uint32_t prev = topos[i].worst_case_distance(0);
    for (std::uint32_t f = 1; f <= max_f[i]; ++f) {
      SCOPED_TRACE(testing::Message() << "topology " << i << " f=" << f);
      const std::uint32_t d = topos[i].worst_case_distance(f);
      EXPECT_GE(d, prev);  // deleting more nodes never shortens worst paths
      prev = d;
    }
  }
}

TEST(Topology, BfsWalkAgreesWithBruteForceUpToTwelveNodes) {
  // n ≤ 12 keeps every family inside the exhaustive-subset budget, where
  // the per-source BFS must reproduce the brute-force walk bit for bit.
  for (std::uint32_t n = 4; n <= 12; ++n) {
    SCOPED_TRACE(testing::Message() << "ring n=" << n);
    const auto ring = Topology::ring(n);
    for (std::uint32_t f = 0; f <= (n >= 5 ? 1u : 0u); ++f)
      EXPECT_EQ(ring.worst_case_distance(f),
                brute_force_worst_distance(ring, f));
  }
  for (std::uint32_t n = 6; n <= 12; ++n) {
    SCOPED_TRACE(testing::Message() << "chordal n=" << n);
    const auto chordal = Topology::chordal_ring(n, 2);
    for (std::uint32_t f = 0; f <= 3; ++f)
      EXPECT_EQ(chordal.worst_case_distance(f),
                brute_force_worst_distance(chordal, f));
  }
  for (std::uint32_t cliques = 2; cliques <= 3; ++cliques) {
    SCOPED_TRACE(testing::Message() << "cliques=" << cliques);
    const auto roc = Topology::ring_of_cliques(cliques, 4, 2);
    for (std::uint32_t f = 0; f <= 3; ++f)
      EXPECT_EQ(roc.worst_case_distance(f),
                brute_force_worst_distance(roc, f));
  }
  const auto cube = Topology::hypercube(3);
  for (std::uint32_t f = 0; f <= 2; ++f)
    EXPECT_EQ(cube.worst_case_distance(f),
              brute_force_worst_distance(cube, f));
  const auto complete = Topology::complete(7);
  for (std::uint32_t f = 0; f <= 3; ++f)
    EXPECT_EQ(complete.worst_case_distance(f),
              brute_force_worst_distance(complete, f));
}

TEST(Topology, SampledWalkIsDeterministicAndCoversLargeN) {
  // n = 64 ring of cliques: C(64, 3) blows the exhaustive budget, so the
  // sampled path runs. It must be a pure function of (graph, f), at least
  // as large as the fault-free diameter, and fast enough to call twice.
  const auto topo = Topology::ring_of_cliques(16, 4, 2);
  ASSERT_EQ(topo.n(), 64u);
  EXPECT_TRUE(topo.worst_case_distance_is_exact(0));
  EXPECT_FALSE(topo.worst_case_distance_is_exact(3));  // C(64,3) > budget
  const std::uint32_t d0 = topo.worst_case_distance(0);
  const std::uint32_t d3 = topo.worst_case_distance(3);
  EXPECT_GE(d3, d0);
  EXPECT_EQ(d3, topo.worst_case_distance(3));
  EXPECT_TRUE(topo.survives_faults(3));  // exact even at n = 64
}

/// Pairwise reference for worst_distance_with_faults: the same strided
/// source sample, then one Topology::distance per (source, survivor) pair.
/// nullopt when some source misses some survivor (the kernel must throw).
std::optional<std::uint32_t> pairwise_worst_distance(
    const Topology& topo, const std::vector<bool>& excluded,
    std::uint32_t source_budget) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < topo.n(); ++v)
    if (!excluded[v]) survivors.push_back(v);
  std::vector<NodeId> sources = survivors;
  if (source_budget > 0 && sources.size() > source_budget) {
    sources.clear();
    for (std::uint32_t i = 0; i < source_budget; ++i)
      sources.push_back(
          survivors[std::size_t{i} * survivors.size() / source_budget]);
  }
  std::uint32_t worst = 0;
  for (const NodeId s : sources) {
    for (const NodeId t : survivors) {
      if (t == s) continue;
      const std::uint32_t d = topo.distance(s, t, excluded);
      if (d == kInf) return std::nullopt;
      worst = std::max(worst, d);
    }
  }
  return worst;
}

TEST(Topology, BitParallelKernelMatchesPairwiseDistances) {
  // Every factory family, the empty mask plus seeded random masks, and
  // source budgets on both sides of every word (64) and batch (256)
  // boundary. ring(300) at budget 0 runs 300 sources: two batches.
  const Topology families[] = {
      Topology::complete(40),        Topology::ring(300),
      Topology::chordal_ring(150, 3), Topology::ring_of_cliques(10, 8, 2),
      Topology::hypercube(7),         Topology::random_connected(70, 2, 11)};
  const std::uint32_t budgets[] = {0, 1, 63, 64, 65, 128, 256};
  util::Rng rng(0xb17b0f5ULL);
  std::size_t connected_cases = 0;
  std::size_t disconnected_cases = 0;
  for (const Topology& topo : families) {
    for (int m = 0; m < 4; ++m) {
      std::vector<bool> excluded(topo.n(), false);
      // Mask 0 is empty; the others exclude about 3 % of the nodes.
      if (m > 0)
        for (NodeId v = 0; v < topo.n(); ++v)
          excluded[v] = rng.below(32) == 0;
      for (const std::uint32_t budget : budgets) {
        SCOPED_TRACE(testing::Message() << "n=" << topo.n() << " mask=" << m
                                        << " budget=" << budget);
        const auto expected = pairwise_worst_distance(topo, excluded, budget);
        if (expected) {
          ++connected_cases;
          EXPECT_EQ(topo.worst_distance_with_faults(excluded, budget),
                    *expected);
        } else {
          ++disconnected_cases;
          EXPECT_THROW((void)topo.worst_distance_with_faults(excluded, budget),
                       util::CheckFailure);
        }
      }
    }
  }
  EXPECT_GE(connected_cases, 140u);
  EXPECT_GE(disconnected_cases, 14u);
}

TEST(Topology, BitParallelKernelRejectsDisconnectingMask) {
  const auto topo = Topology::ring(8);
  std::vector<bool> cut(8, false);
  cut[2] = true;
  cut[6] = true;  // {0, 1, 7} and {3, 4, 5} no longer meet
  try {
    (void)topo.worst_distance_with_faults(cut);
    FAIL() << "disconnecting mask accepted";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "faulty set disconnects the topology (not "
                  "(f+1)-connected?)"),
              std::string::npos)
        << e.what();
  }
}

sim::ModelParams hop_model(std::uint32_t n, std::uint32_t f) {
  sim::ModelParams hop;
  hop.n = n;
  hop.f = f;
  hop.d = 1.0;
  hop.u = 0.02;
  hop.u_tilde = 0.02;
  hop.vartheta = 1.002;
  return hop;
}

TEST(EffectiveModel, CompleteTopologyIsNearFlat) {
  RelayConfig config;
  config.topology = Topology::complete(5);
  config.hop_model = hop_model(5, 2);
  const auto eff = effective_model(config);
  EXPECT_DOUBLE_EQ(eff.d, 1.0);
  EXPECT_NEAR(eff.u, 0.02 + 0.002, 1e-12);  // + hold drift term
}

TEST(EffectiveModel, ScalesWithWorstCaseDistance) {
  RelayConfig config;
  config.topology = Topology::ring(6);
  config.hop_model = hop_model(6, 1);
  const auto eff = effective_model(config);
  EXPECT_DOUBLE_EQ(eff.d, 4.0);  // D_1 = 4 hops
  EXPECT_NEAR(eff.u, 4.0 * 0.02 + 0.002 * 4.0, 1e-12);
}

TEST(EffectiveModel, RejectsUnderConnectedTopology) {
  RelayConfig config;
  config.topology = Topology::ring(6);
  config.hop_model = hop_model(6, 2);  // ring is not 3-connected
  EXPECT_THROW((void)effective_model(config), util::CheckFailure);
}

TEST(EffectiveModel, SampledWalkStaysSoundForConfiguredFaultySet) {
  // n = 64: worst_case_distance samples, so compute_effective must fold in
  // the configured faulty set's exact distances — the exported worst_hops
  // can never undercount the paths the instantiated adversary forces.
  RelayConfig config;
  config.topology = Topology::ring_of_cliques(16, 4, 2);
  config.hop_model = hop_model(64, 3);
  config.hop_model.vartheta = 1.0005;
  config.hop_model.u = 0.005;
  config.hop_model.u_tilde = 0.005;
  config.faulty = {0, 1, 2};
  ASSERT_FALSE(config.topology.worst_case_distance_is_exact(3));
  const auto eff = compute_effective(config);

  std::vector<bool> excluded(64, false);
  for (const NodeId v : config.faulty) excluded[v] = true;
  std::uint32_t realized = 0;
  for (NodeId s = 0; s < 64; ++s) {
    if (excluded[s]) continue;
    for (NodeId t = s + 1; t < 64; ++t) {
      if (excluded[t]) continue;
      realized = std::max(realized, config.topology.distance(s, t, excluded));
    }
  }
  EXPECT_GE(eff.worst_hops, realized);
  EXPECT_DOUBLE_EQ(eff.model.d, eff.worst_hops * config.hop_model.d);
}

RelayRunResult run_cps_on(const Topology& topo, std::uint32_t f,
                          std::vector<NodeId> faulty, std::size_t rounds,
                          core::CpsParams* params_out = nullptr) {
  RelayConfig config;
  config.topology = topo;
  config.hop_model = hop_model(topo.n(), f);
  config.faulty = std::move(faulty);
  config.seed = 5;

  const auto eff = effective_model(config);
  const auto params = core::derive_cps_params(eff);
  CS_CHECK(params.feasible);
  if (params_out != nullptr) *params_out = params;
  config.initial_offset = params.S;
  config.horizon = params.S + (rounds + 2) * params.p_max;

  core::CpsConfig cps;
  cps.params = params;
  RelayWorld world(config, [cps](NodeId) {
    return std::make_unique<core::CpsNode>(cps);
  });
  return world.run();
}

/// CPS nodes configured for `config`'s effective model.
sim::HonestFactory cps_factory(const RelayConfig& config) {
  core::CpsConfig cps;
  cps.params = core::derive_cps_params(effective_model(config));
  return [cps](NodeId) { return std::make_unique<core::CpsNode>(cps); };
}

TEST(RelayWorld, CustomClockKindRejected) {
  // RelayConfig carries no clock vector, so kCustom has nothing to run.
  RelayConfig config;
  config.topology = Topology::complete(5);
  config.hop_model = hop_model(5, 2);
  config.clock_kind = sim::ClockKind::kCustom;
  EXPECT_THROW(RelayWorld world(config, cps_factory(config)),
               util::CheckFailure);
}

TEST(RelayWorld, DuplicateFaultyIdRejected) {
  RelayConfig config;
  config.topology = Topology::complete(5);
  config.hop_model = hop_model(5, 2);
  config.faulty = {1, 1};
  try {
    RelayWorld world(config, cps_factory(config));
    FAIL() << "duplicate faulty id accepted";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate faulty id 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(RelayWorld, CpsOnCompleteTopologyMatchesFlatGuarantees) {
  core::CpsParams params;
  const auto result =
      run_cps_on(Topology::complete(5), 2, {}, 15, &params);
  EXPECT_TRUE(result.trace.live(15));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
  EXPECT_EQ(result.worst_hops, 1u);
}

TEST(RelayWorld, CpsOnRingFaultFree) {
  core::CpsParams params;
  const auto result = run_cps_on(Topology::ring(6), 1, {}, 10, &params);
  EXPECT_TRUE(result.trace.live(10));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
  EXPECT_EQ(result.worst_hops, 4u);
}

TEST(RelayWorld, CpsSurvivesCrashedRelay) {
  // One crashed node on the ring: the flood routes around it and the
  // remaining nodes stay synchronized within the effective bound.
  core::CpsParams params;
  const auto result = run_cps_on(Topology::ring(6), 1, {3}, 10, &params);
  EXPECT_TRUE(result.trace.live(10));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
  EXPECT_TRUE(result.trace.pulses(3).empty());
}

TEST(RelayWorld, CpsOnRingOfCliquesWithFaults) {
  core::CpsParams params;
  const auto result = run_cps_on(Topology::ring_of_cliques(3, 4, 2), 2,
                                 {0, 4}, 8, &params);
  EXPECT_TRUE(result.trace.live(8));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
}

TEST(RelayWorld, SkewGrowsWithPathLength) {
  // The [4]-style intuition: effective skew budget scales with the
  // worst-case relay distance.
  core::CpsParams ring6, ring10;
  (void)run_cps_on(Topology::ring(6), 1, {}, 3, &ring6);
  (void)run_cps_on(Topology::ring(10), 1, {}, 3, &ring10);
  EXPECT_GT(ring10.S, ring6.S);
}

TEST(RelayWorld, OutOfRangeHopDelayIsAModelViolation) {
  // A custom policy is trusted for nothing: every scheduled hop must fall in
  // [d_hop − u_hop, d_hop] = [0.98, 1], exactly as the complete world's
  // Network::choose_delay demands.
  const auto run_with_fraction = [](double fraction) {
    RelayConfig config;
    config.topology = Topology::ring(6);
    config.hop_model = hop_model(6, 1);
    config.custom_delay = [fraction] {
      return std::make_unique<sim::FixedFractionDelayPolicy>(fraction);
    };
    const auto params = core::derive_cps_params(effective_model(config));
    CS_CHECK(params.feasible);
    config.initial_offset = params.S;
    config.horizon = params.S + 4 * params.p_max;
    core::CpsConfig cps;
    cps.params = params;
    RelayWorld world(config, [cps](NodeId) {
      return std::make_unique<core::CpsNode>(cps);
    });
    return world.run();
  };
  EXPECT_GT(run_with_fraction(1.0).physical_messages, 0u);  // d_hop itself
  try {
    (void)run_with_fraction(1.5);
    FAIL() << "a 1.01 hop delay was scheduled silently";
  } catch (const util::ModelViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("relay hop "), std::string::npos) << what;
    EXPECT_NE(what.find("delay 1.01 outside [0.98, 1]"), std::string::npos)
        << what;
  }
}

TEST(RelayWorld, PhysicalMessageAccounting) {
  const auto result = run_cps_on(Topology::ring(6), 1, {}, 5);
  EXPECT_GT(result.floods, 0u);
  // Flooding a 6-ring costs 2 physical messages per node per flood.
  EXPECT_GE(result.physical_messages, result.floods * 6);
}

// --- Pinned relay-world digests ---------------------------------------------
//
// Byte identity is the contract for every change to the flood machinery
// (delivery state, holds, batching, retention replay): these digests were
// recorded from the per-host hash-table implementation and must never move.

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Order-sensitive digest of a run: every pulse's real and local time, the
/// engine event count, physical messages, and floods.
std::uint64_t run_digest(const RelayRunResult& run) {
  std::uint64_t h = 0x9e1a7ULL;
  const auto fold = [&h](std::uint64_t x) { h = util::mix64(h ^ x); };
  for (NodeId v = 0; v < run.trace.n(); ++v) {
    fold(run.trace.pulse_count(v));
    for (const auto& p : run.trace.pulses(v)) {
      fold(double_bits(p.real_time));
      fold(double_bits(p.local_time));
    }
  }
  fold(run.events);
  fold(run.physical_messages);
  fold(run.floods);
  return h;
}

struct PinnedCell {
  Topology topology = Topology::ring(8);
  baselines::ProtocolKind protocol = baselines::ProtocolKind::kSrikanthToueg;
  std::uint32_t f = 0;
  RelayFaultKind fault = RelayFaultKind::kCrash;
  sim::DelayKind delay = sim::DelayKind::kRandom;
  sim::ClockKind clocks = sim::ClockKind::kSpread;
  ChurnPolicy churn;
  std::size_t rounds = 6;
};

/// One direct world run configured the way the sweep runner configures a
/// relay cell (schedule, effective model, epoch alignment, horizon).
RelayRunResult run_pinned(const PinnedCell& cell, bool batch) {
  const std::uint32_t n = cell.topology.n();
  RelayConfig config;
  config.topology = cell.topology;
  config.hop_model = hop_model(n, cell.f);
  config.seed = 17;
  config.delay_kind = cell.delay;
  config.clock_kind = cell.clocks;
  config.faulty = sim::default_faulty_set(cell.f);
  config.fault_kind = cell.fault;
  config.attack_seed = cell.fault == RelayFaultKind::kSearch ? 7 : 0;
  config.batch = batch;
  config.neighbor_cast = baselines::neighbor_cast(cell.protocol);

  std::shared_ptr<const TopologySchedule> schedule;
  if (cell.churn.dynamic()) {
    schedule = std::make_shared<TopologySchedule>(TopologySchedule::generate(
        config.topology, cell.churn,
        static_cast<std::uint32_t>(cell.rounds + 2), 29));
  }
  const RelayEffective effective =
      config.neighbor_cast ? RelayEffective{config.hop_model, 1, true}
      : schedule != nullptr
          ? effective_from_hops(config.hop_model,
                                analyze_schedule_worst_hops(*schedule, 0))
          : compute_effective(config);
  const auto setup = baselines::make_setup(cell.protocol, effective.model);
  CS_CHECK(setup.feasible);
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.horizon(cell.rounds);
  if (schedule != nullptr) {
    config.schedule = schedule;
    config.epoch_start = setup.initial_offset + setup.round_length;
    config.epoch_length = setup.round_length;
  }
  RelayWorld world(config,
                   baselines::make_protocol_factory(
                       setup, static_cast<Round>(cell.rounds)),
                   effective);
  return world.run();
}

/// Runs `cell` with batching on and off; both must land on `expected`.
void expect_pinned(const PinnedCell& cell, std::uint64_t expected,
                   const std::string& label) {
  for (const bool batch : {true, false}) {
    const RelayRunResult run = run_pinned(cell, batch);
    EXPECT_GT(run.floods, 0u) << label;
    EXPECT_GT(run.trace.complete_rounds(), 0u) << label;
    EXPECT_EQ(run_digest(run), expected)
        << label << " batch=" << batch << " digest=0x" << std::hex
        << run_digest(run);
  }
}

constexpr RelayFaultKind kAllRelayFaults[] = {
    RelayFaultKind::kCrash,         RelayFaultKind::kMaxDelay,
    RelayFaultKind::kReorder,       RelayFaultKind::kSelectiveDrop,
    RelayFaultKind::kGreedySkew,    RelayFaultKind::kSearch};

TEST(RelayDigest, EveryFaultKindOnRingAndHypercubeIsPinned) {
  // Srikanth–Toueg: every node floods every round, so copies race along
  // both ring directions and re-arm holds. One faulty relay per cell.
  const std::uint64_t ring[] = {0x73eff5cb3605e7d3, 0xd00aee7c6250f223,
                                0x0805f21892aed969, 0x20f39626d362f228,
                                0xd97ab7cc9886007a, 0x84312f8a40d5ad52};
  const std::uint64_t cube[] = {0xa752234617c1c18a, 0xc041d0b515fc4c41,
                                0x699163b82fc21323, 0xb2bd4e675fb53b10,
                                0xe8d9102b80f126a1, 0xe8b75ee0364d8517};
  for (std::size_t k = 0; k < std::size(kAllRelayFaults); ++k) {
    PinnedCell cell;
    cell.f = 1;
    cell.fault = kAllRelayFaults[k];
    expect_pinned(cell, ring[k],
                  std::string("ring/") + to_string(kAllRelayFaults[k]));
    cell.topology = Topology::hypercube(3);
    cell.delay = sim::DelayKind::kSplit;
    expect_pinned(cell, cube[k],
                  std::string("hypercube/") + to_string(kAllRelayFaults[k]));
  }
}

TEST(RelayDigest, ChurnedCellsWithLeavesAndRejoinsArePinned) {
  // join_batch > 0: hosts leave with holds armed and rejoin to retained
  // replays, so dropped and re-created delivery state shows in the bytes.
  PinnedCell cell;
  cell.topology = Topology::hypercube(4);
  cell.churn.churn_rate = 0.1;
  cell.churn.join_batch = 2;
  cell.rounds = 8;
  expect_pinned(cell, 0xfc743fb32fab37b7, "churned/st");
  cell.protocol = baselines::ProtocolKind::kFloodProbe;
  cell.churn.reconnect = ReconnectPolicy::kRingRepair;
  cell.delay = sim::DelayKind::kSplit;
  expect_pinned(cell, 0x88c759947c6039fc, "churned/probe");
  // A participating faulty relay (pinned against churn) on top.
  cell.protocol = baselines::ProtocolKind::kCps;
  cell.f = 1;
  cell.fault = RelayFaultKind::kGreedySkew;
  cell.churn.pinned.assign(16, false);
  cell.churn.pinned[0] = true;
  expect_pinned(cell, 0x4e0eaa1b2c4170a6, "churned/cps/greedy");
}

TEST(RelayDigest, NominalAndRandomWalkClockCellsArePinned) {
  // Every other pinned cell runs the default spread clocks; these pin the
  // relay world's other two clock kinds, a random walk on a churned cell
  // included (its walk is drawn up to horizon + d_eff).
  const sim::ClockKind kinds[] = {sim::ClockKind::kNominal,
                                  sim::ClockKind::kRandomWalk};
  const std::uint64_t ring[] = {0xb8cd7cd56c0b98f0, 0x50f3ce0b009724c9};
  const std::uint64_t cube[] = {0x99c3aa0eb5b18d89, 0x82a8d159e64343dd};
  const std::uint64_t churned[] = {0x76fb0efbdd8bbb36, 0x22551a5092f72bad};
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    const std::string kind = sim::to_string(kinds[k]);
    PinnedCell cell;
    cell.clocks = kinds[k];
    cell.f = 1;
    cell.fault = RelayFaultKind::kMaxDelay;
    expect_pinned(cell, ring[k], "ring/" + kind);
    cell.topology = Topology::hypercube(3);
    cell.protocol = baselines::ProtocolKind::kCps;
    cell.delay = sim::DelayKind::kSplit;
    expect_pinned(cell, cube[k], "hypercube/cps/" + kind);
    cell.topology = Topology::hypercube(4);
    cell.protocol = baselines::ProtocolKind::kFloodProbe;
    cell.f = 0;
    cell.churn.churn_rate = 0.1;
    cell.churn.join_batch = 2;
    cell.rounds = 8;
    expect_pinned(cell, churned[k], "churned/probe/" + kind);
  }
}

TEST(RelayDigest, GradientNeighborCastCellIsPinned) {
  PinnedCell cell;
  cell.topology = Topology::hypercube(4);
  cell.protocol = baselines::ProtocolKind::kGradient;
  cell.churn.churn_rate = 0.1;
  cell.churn.join_batch = 1;
  cell.rounds = 10;
  expect_pinned(cell, 0xaf0813432c33ab5e, "gradient");
}

// --- Delivery state across a leave and rejoin --------------------------------

/// Shared log of every protocol-visible event in the rejoin scenario.
struct RejoinLog {
  /// (node, incarnation, real time) per processed flood copy.
  struct Processed {
    NodeId node;
    std::size_t incarnation;
    double at;
  };
  std::vector<Processed> processed;
  /// (from, to, send time) per scheduled hop.
  struct Hop {
    NodeId from;
    NodeId to;
    double at;
  };
  std::vector<Hop> hops;
  std::vector<std::size_t> incarnations;
};

/// Broadcasts one message at local time 1 from the designated origin and
/// logs every message it processes.
class OneShotNode final : public sim::PulseNode {
 public:
  OneShotNode(NodeId id, NodeId origin, std::size_t incarnation,
              std::shared_ptr<RejoinLog> log)
      : id_(id), origin_(origin), incarnation_(incarnation),
        log_(std::move(log)) {}
  void on_start(sim::Env& env) override {
    if (id_ == origin_ && incarnation_ == 0) (void)env.schedule_at_local(1.0, 0);
  }
  void on_message(sim::Env& env, const sim::Message&) override {
    log_->processed.push_back({id_, incarnation_, env.local_now()});
  }
  void on_timer(sim::Env& env, std::uint64_t) override {
    env.broadcast(sim::Message{});
  }

 private:
  NodeId id_;
  NodeId origin_;
  std::size_t incarnation_;
  std::shared_ptr<RejoinLog> log_;
};

/// Max-delay hops that log every forward the world schedules.
class LoggingMaxDelay final : public sim::DelayPolicy {
 public:
  explicit LoggingMaxDelay(std::shared_ptr<RejoinLog> log)
      : log_(std::move(log)) {}
  double delay(NodeId from, NodeId to, double send_time, const sim::Message&,
               double, double hi, util::Rng&) override {
    log_->hops.push_back({from, to, send_time});
    return hi;
  }
  [[nodiscard]] std::string name() const override { return "logging-max"; }

 private:
  std::shared_ptr<RejoinLog> log_;
};

TEST(RelayDeliveryState, FloodTablesStayWithinTheArenaHighWater) {
  // Tables are keyed by arena slot and recycled with it: a long
  // Srikanth–Toueg ring cell sends thousands of floods but only ever holds
  // as many tables as floods were simultaneously live.
  RelayConfig config;
  config.topology = Topology::ring(8);
  config.hop_model = hop_model(8, 1);
  const RelayEffective effective = compute_effective(config);
  const auto setup = baselines::make_setup(
      baselines::ProtocolKind::kSrikanthToueg, effective.model);
  ASSERT_TRUE(setup.feasible);
  constexpr std::size_t kRounds = 200;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.horizon(kRounds);
  RelayWorld world(config,
                   baselines::make_protocol_factory(
                       setup, static_cast<Round>(kRounds)),
                   effective);
  const RelayRunResult run = world.run();
  ASSERT_TRUE(run.trace.live(kRounds));
  EXPECT_GT(world.flood_tables(), 0u);
  EXPECT_LE(world.flood_tables(), world.arena().slab_capacity());
  EXPECT_GE(run.floods, kRounds * 8);
  EXPECT_LT(world.flood_tables() * 20, run.floods);
}

TEST(RelayDeliveryState, NeighborCastAllocatesNoFloodTables) {
  RelayConfig config;
  config.topology = Topology::hypercube(4);
  config.hop_model = hop_model(16, 0);
  config.neighbor_cast = true;
  const RelayEffective effective{config.hop_model, 1, true};
  const auto setup = baselines::make_setup(baselines::ProtocolKind::kGradient,
                                           effective.model);
  ASSERT_TRUE(setup.feasible);
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset + 12.0 * setup.round_length;
  RelayWorld world(config, baselines::make_protocol_factory(setup, 10),
                   effective);
  const RelayRunResult run = world.run();
  EXPECT_GT(run.floods, 0u);
  EXPECT_GT(run.trace.complete_rounds(), 0u);
  EXPECT_EQ(world.flood_tables(), 0u);
}

TEST(RelayDeliveryState, RejoinedHostForwardsAndProcessesAReplayedFloodOnce) {
  // Ring of 6, one flood F from node 5 at t = 1, unit max-delay hops,
  // nominal clocks (local = real). Node 2 is three hops out: F reaches it at
  // t = 4 and, with D_f = 4, its hold expires at t = 5. Node 2 leaves at
  // t = 4.5 — hold armed — and rejoins at t = 4.8, when its neighbors 1 and
  // 3 replay their retained copy of F across the restored edges. The old
  // hold still fires at t = 5, into the new incarnation, which has not seen
  // F yet and so must not process it then.
  static constexpr NodeId kOrigin = 5;
  static constexpr NodeId kChurner = 2;
  ChurnPolicy churn;
  churn.join_batch = 1;
  churn.reconnect = ReconnectPolicy::kRingRepair;
  churn.pinned.assign(6, true);
  churn.pinned[kChurner] = false;
  std::shared_ptr<const TopologySchedule> schedule;
  for (std::uint64_t seed = 1; schedule == nullptr; ++seed) {
    ASSERT_LT(seed, 100u);
    auto candidate = std::make_shared<TopologySchedule>(
        TopologySchedule::generate(Topology::ring(6), churn, 2, seed));
    if (candidate->deltas()[0].leaves == std::vector<NodeId>{kChurner})
      schedule = std::move(candidate);
  }
  ASSERT_EQ(schedule->deltas()[1].joins, std::vector<NodeId>{kChurner});

  auto log = std::make_shared<RejoinLog>();
  log->incarnations.assign(6, 0);
  RelayConfig config;
  config.topology = schedule->initial();
  config.hop_model = hop_model(6, 0);
  config.clock_kind = sim::ClockKind::kNominal;
  config.custom_delay = [log] {
    return std::make_unique<LoggingMaxDelay>(log);
  };
  config.schedule = schedule;
  config.epoch_start = 4.5;
  config.epoch_length = 0.3;
  config.horizon = 12.0;
  const RelayEffective effective = effective_from_hops(
      config.hop_model, analyze_schedule_worst_hops(*schedule, 0));
  ASSERT_EQ(effective.worst_hops, 4u);
  RelayWorld world(
      config,
      [log](NodeId v) -> std::unique_ptr<sim::PulseNode> {
        return std::make_unique<OneShotNode>(v, kOrigin,
                                             log->incarnations[v]++, log);
      },
      effective);
  const RelayRunResult run = world.run();
  EXPECT_EQ(run.floods, 1u);
  ASSERT_EQ(log->incarnations[kChurner], 2u);

  // The first incarnation received F before leaving but never processed it.
  const bool reached_before_leave = std::any_of(
      log->hops.begin(), log->hops.end(), [](const RejoinLog::Hop& h) {
        return h.to == kChurner && h.at + 1.0 < 4.5;
      });
  EXPECT_TRUE(reached_before_leave);
  std::vector<RejoinLog::Processed> at_churner;
  for (const auto& p : log->processed)
    if (p.node == kChurner) at_churner.push_back(p);
  // The second incarnation processes F exactly once, on its own hold:
  // replays arrive at t = 5.8 with three hops, released at t = 6.8.
  ASSERT_EQ(at_churner.size(), 1u);
  EXPECT_EQ(at_churner[0].incarnation, 1u);
  EXPECT_DOUBLE_EQ(at_churner[0].at, 6.8);
  // ...and forwards it once to each restored neighbor.
  std::vector<NodeId> forwarded_to;
  for (const auto& h : log->hops)
    if (h.from == kChurner && h.at > 4.8) forwarded_to.push_back(h.to);
  std::sort(forwarded_to.begin(), forwarded_to.end());
  EXPECT_EQ(forwarded_to, (std::vector<NodeId>{1, 3}));
  // Every other node processed F exactly once, too.
  for (NodeId v = 0; v < 6; ++v) {
    if (v == kOrigin || v == kChurner) continue;
    EXPECT_EQ(std::count_if(log->processed.begin(), log->processed.end(),
                            [v](const RejoinLog::Processed& p) {
                              return p.node == v;
                            }),
              1)
        << "node " << v;
  }
}

}  // namespace
}  // namespace crusader::relay
