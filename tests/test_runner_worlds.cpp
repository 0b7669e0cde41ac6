// Multi-world sweep runner: the relay (Appendix A) and Theorem-5 worlds are
// driven by the same ScenarioSpec/run_sweep machinery as the complete graph,
// and every world's realized skew conforms to its theoretical bound — the
// Theorem-17 upper bound evaluated at (d_eff, u_eff) for relay topologies,
// the 2ũ/3 lower bound for the triple-execution construction. The complete
// graph's row is run_complete_world at the scenario seed, the builder the
// E-table benches and the test helpers call with their raw seed.

#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "relay/topology.hpp"
#include "runner/export.hpp"
#include "runner/scenario.hpp"

namespace crusader::runner {
namespace {

// --- Complete world: one builder behind run_scenario and the E-tables -----

/// CPS, LW and ST × {crash, split, greedy-skew}, plus ST under the
/// certificate accelerator and CPS under a targeted custom delay.
std::vector<ScenarioSpec> complete_world_specs() {
  ScenarioSpec base;
  base.n = 7;
  base.f = 2;
  base.f_actual = 2;
  base.rounds = 8;
  base.warmup = 2;
  std::vector<ScenarioSpec> specs;
  for (const auto protocol : {baselines::ProtocolKind::kCps,
                              baselines::ProtocolKind::kLynchWelch,
                              baselines::ProtocolKind::kSrikanthToueg}) {
    for (const auto strategy :
         {core::ByzStrategy::kCrash, core::ByzStrategy::kSplit,
          core::ByzStrategy::kGreedySkew}) {
      ScenarioSpec spec = base;
      spec.protocol = protocol;
      spec.strategy = strategy;
      specs.push_back(spec);
    }
  }
  ScenarioSpec accel = base;
  accel.protocol = baselines::ProtocolKind::kSrikanthToueg;
  accel.st_accelerator = true;
  specs.push_back(accel);
  ScenarioSpec target = base;
  target.custom_delay = *parse_custom_delay("custom:target:6");
  specs.push_back(target);
  return specs;
}

TEST(CompleteWorldBuilder, RunScenarioIsTheBuilderAtTheScenarioSeed) {
  RunnerOptions options;
  options.base_seed = 11;
  for (const ScenarioSpec& spec : complete_world_specs()) {
    SCOPED_TRACE(spec.name());
    const ScenarioResult row = run_scenario(spec, options);
    ASSERT_TRUE(row.error.empty()) << row.error;
    ASSERT_TRUE(row.feasible);
    ASSERT_GT(row.rounds_completed, spec.warmup);

    const auto setup =
        baselines::make_setup(spec.protocol, spec.model(), spec.slack);
    const std::uint64_t seed = scenario_seed(spec, options.base_seed);
    const sim::RunResult run =
        run_complete_world(spec, setup, seed, static_cast<Round>(spec.rounds));
    EXPECT_EQ(row.messages, run.messages);
    EXPECT_EQ(row.events, run.events);
    EXPECT_EQ(row.sign_ops, run.sign_ops);
    EXPECT_EQ(row.verify_ops, run.verify_ops);
    EXPECT_EQ(row.max_skew, run.trace.max_skew());
    EXPECT_EQ(row.steady_skew, run.trace.max_skew(spec.warmup));

    // Uncapped, the honest nodes pulse on to the horizon, which holds more
    // than spec.rounds complete rounds; the E-tables read those rounds.
    const sim::RunResult uncapped = run_complete_world(spec, setup, seed);
    EXPECT_GT(uncapped.trace.complete_rounds(), spec.rounds);
  }
}

// --- Relay world: bound conformance over a topology × ϑ × u_hop grid -------

TEST(RelayWorldSweep, BoundConformanceOverTopologyGrid) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {8};
  grid.fault_loads = {0};
  grid.topologies = {TopologyKind::kRing, TopologyKind::kHypercube};
  grid.varthetas = {1.001, 1.005};
  grid.us = {0.01, 0.02};
  grid.rounds = 6;
  grid.warmup = 2;
  const auto specs = grid.expand();
  // 2 topologies × 2 ϑ × 2 u_hop, one delay/clock kind each.
  ASSERT_EQ(specs.size(), 8u);

  const auto report = run_sweep(specs, {});
  for (const auto& r : report.results) {
    SCOPED_TRACE(r.spec.name());
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.live);
    EXPECT_EQ(r.rounds_completed, grid.rounds);
    // Fault-free skew obeys the Theorem-17 bound computed from the
    // effective parameters the flood overlay presents to the protocol.
    EXPECT_TRUE(r.within_bound)
        << "skew " << r.max_skew << " > bound " << r.predicted_skew;
    ASSERT_TRUE(std::isfinite(r.skew_ratio));
    EXPECT_LE(r.skew_ratio, 1.0 + 1e-9);
    // Effective model bookkeeping: d_eff = D_f·d_hop with the documented
    // fault-free distances (8-ring diameter 4, 3-cube diameter 3), and
    // u_eff = D_f·u_hop + (ϑ−1)·D_f·d_hop.
    const std::uint32_t expect_hops =
        r.spec.topology == TopologyKind::kRing ? 4u : 3u;
    EXPECT_EQ(r.worst_hops, expect_hops);
    EXPECT_DOUBLE_EQ(r.d_eff, expect_hops * r.spec.d);
    EXPECT_NEAR(r.u_eff,
                expect_hops * r.spec.u +
                    (r.spec.vartheta - 1.0) * expect_hops * r.spec.d,
                1e-12);
    EXPECT_GT(r.messages, 0u);  // physical (per-hop) message accounting
  }
}

TEST(RelayWorldSweep, CrashedRelaysStayWithinEffectiveBound) {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kHypercube;
  spec.n = 8;
  spec.f = 2;  // 3-cube is 3-connected: survives 2 faults
  spec.f_actual = 2;
  spec.u = 0.02;
  spec.u_tilde = 0.02;
  spec.vartheta = 1.002;
  spec.rounds = 6;
  spec.warmup = 2;
  const auto r = run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.within_bound)
      << "skew " << r.max_skew << " > bound " << r.predicted_skew;
}

TEST(RelayWorldSweep, RandomTopologyIsDeterministicInSpecAndSeed) {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kRandomConnected;
  spec.n = 8;
  spec.f = 2;
  spec.f_actual = 2;
  spec.u = 0.02;
  spec.u_tilde = 0.02;
  spec.vartheta = 1.002;
  spec.rounds = 5;
  spec.warmup = 1;
  const auto a = run_scenario(spec);
  const auto b = run_scenario(spec);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_TRUE(a.feasible);
  EXPECT_TRUE(a.within_bound);
  // The generated graph (hence D_f, the bound, and every metric) is a pure
  // function of (base_seed, spec).
  EXPECT_EQ(a.worst_hops, b.worst_hops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.max_skew, b.max_skew);
  EXPECT_DOUBLE_EQ(a.predicted_skew, b.predicted_skew);
}

TEST(RelayWorldSweep, RandomWalkClocksRunnable) {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kRing;
  spec.n = 6;
  spec.clocks = sim::ClockKind::kRandomWalk;
  spec.u = 0.02;
  spec.u_tilde = 0.02;
  spec.vartheta = 1.002;
  spec.rounds = 5;
  spec.warmup = 1;
  const auto r = run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.within_bound);
}

TEST(RelayWorldSweep, HypercubeRejectsNonPowerOfTwo) {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kHypercube;
  spec.n = 6;
  const auto r = run_scenario(spec);
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("power of two"), std::string::npos) << r.error;
}

// The error column is part of the CSV, so its bytes must not depend on where
// the repo is checked out or on which line the failed check sits: the text
// names the check and its reason, never a source location. This is the one
// cell of `sweep_cli --world=relay --protocols=cps --topology=hypercube
// --n=12 --faults=0 --delays=random --rounds=4 --warmup=1`, which exits 1
// on it (ctest smoke_sweep_error_row).
TEST(RelayWorldSweep, ErrorColumnNamesTheCheckNotItsLocation) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {12};
  grid.fault_loads = {0};
  grid.topologies = {TopologyKind::kHypercube};
  grid.delays = {sim::DelayKind::kRandom};
  grid.rounds = 4;
  grid.warmup = 1;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  const auto r = run_scenario(specs[0]);
  const std::string want =
      "CHECK failed: spec.n >= 2 && (spec.n & (spec.n - 1)) == 0 — "
      "hypercube topology requires n to be a power of two";
  EXPECT_EQ(r.error, want);
  std::ostringstream row;
  write_csv_row(row, r);
  const std::string tail = "," + want + "\n";
  ASSERT_GE(row.str().size(), tail.size());
  EXPECT_EQ(row.str().substr(row.str().size() - tail.size()), tail);
}

TEST(Topology, HypercubeAndRandomConnectedFactories) {
  const auto cube = relay::Topology::hypercube(3);
  EXPECT_EQ(cube.n(), 8u);
  EXPECT_EQ(cube.edge_count(), 12u);  // n·dim/2
  EXPECT_TRUE(cube.survives_faults(2));
  EXPECT_EQ(cube.worst_case_distance(0), 3u);  // diameter = dim

  const auto rand_topo = relay::Topology::random_connected(8, 2, 42);
  EXPECT_TRUE(rand_topo.survives_faults(2));
  // Deterministic in the seed, different across seeds in general.
  const auto again = relay::Topology::random_connected(8, 2, 42);
  EXPECT_EQ(rand_topo.edge_count(), again.edge_count());
}

// --- Theorem-5 world: the lower bound is realized for every ũ > u ----------

TEST(Theorem5Sweep, BoundHoldsAcrossUtildeGrid) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kTheorem5};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.us = {0.05};
  grid.u_tildes = {0.1, 0.2, 0.3};  // all ũ > u
  grid.varthetas = {1.05};
  grid.rounds = 40;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 3u);

  const auto report = run_sweep(specs, {});
  for (const auto& r : report.results) {
    SCOPED_TRACE(r.spec.name());
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.spec.u_tilde, r.spec.u);
    // The construction realizes the 2ũ/3 bound (within_bound records
    // bound_holds for this world) and the CSV ratio reflects it.
    EXPECT_TRUE(r.within_bound)
        << "realized " << r.max_skew << " < bound " << r.predicted_skew;
    EXPECT_NEAR(r.predicted_skew, r.spec.model().theorem5_bound(), 1e-12);
    ASSERT_TRUE(std::isfinite(r.skew_ratio));
    EXPECT_GE(r.skew_ratio, 1.0 - 1e-4);
  }
}

TEST(Theorem5Sweep, GridPinsConstructionShape) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kTheorem5};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {4, 7, 9};  // ignored: the construction is 3 nodes, 1 faulty
  grid.delays = {sim::DelayKind::kMax, sim::DelayKind::kMin};   // ignored
  grid.topologies = {TopologyKind::kRing, TopologyKind::kRing}; // ignored
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);  // collapsed axes dedupe by digest
  EXPECT_EQ(specs[0].n, 3u);
  EXPECT_EQ(specs[0].f, 1u);
  EXPECT_EQ(specs[0].f_actual, 0u);
}

TEST(Theorem5Sweep, InfeasibleModelReportedNotThrown) {
  ScenarioSpec spec;
  spec.world = WorldKind::kTheorem5;
  spec.n = 3;
  spec.f = 1;
  spec.vartheta = 2.0;  // beyond every protocol's drift ceiling
  spec.u_tilde = spec.u;
  const auto r = run_scenario(spec);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(std::isnan(r.predicted_skew));
}

// --- Mixed-world sweeps: determinism and the regression gate ---------------

std::vector<ScenarioSpec> mixed_world_specs() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete, WorldKind::kRelay,
                 WorldKind::kTheorem5};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {8};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.topologies = {TopologyKind::kRing, TopologyKind::kHypercube};
  grid.us = {0.02};
  grid.u_tildes = {0.2};
  // ϑ sets the Theorem-5 clock-ramp length 2ũ/(3(ϑ−1)); keep it short
  // enough that the construction settles well inside `rounds`.
  grid.varthetas = {1.02};
  grid.rounds = 12;
  grid.warmup = 3;
  return grid.expand();
}

TEST(MixedWorldSweep, CsvByteIdenticalAcrossThreadCounts) {
  const auto specs = mixed_world_specs();
  ASSERT_GT(specs.size(), 4u);
  std::set<WorldKind> worlds;
  for (const auto& spec : specs) worlds.insert(spec.world);
  ASSERT_EQ(worlds.size(), 3u) << "sweep must mix all three worlds";

  RunnerOptions serial;
  serial.base_seed = 11;
  serial.threads = 1;
  const auto report1 = run_sweep(specs, serial);

  RunnerOptions parallel = serial;
  parallel.threads = 4;
  const auto report4 = run_sweep(specs, parallel);

  const std::string csv1 = to_csv(report1);
  const std::string csv4 = to_csv(report4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(report1.error_count(), 0u);
}

TEST(MixedWorldSweep, GateCountsOutOfSpecRatios) {
  // Hand-built results: the gate must read skew_ratio for upper-bound
  // worlds, bound_holds (within_bound) for theorem5, skip infeasible rows
  // (the protocol provably cannot run there), and count errored/timed-out
  // rows at EVERY ratio — a green gate means every cell actually ran.
  SweepReport report;

  ScenarioResult ok;
  ok.feasible = true;
  ok.rounds_completed = 5;
  ok.skew_ratio = 0.8;
  ok.within_bound = true;
  report.results.push_back(ok);

  ScenarioResult hot = ok;
  hot.skew_ratio = 1.4;  // above bound but below a loose gate
  hot.within_bound = false;
  report.results.push_back(hot);

  ScenarioResult lb = ok;
  lb.spec.world = WorldKind::kTheorem5;
  lb.skew_ratio = 0.5;  // ratio is NOT the gate signal for theorem5...
  lb.within_bound = false;  // ...bound_holds is
  report.results.push_back(lb);

  ScenarioResult infeasible;
  infeasible.feasible = false;
  infeasible.skew_ratio = 99.0;
  report.results.push_back(infeasible);

  ScenarioResult errored = ok;  // perfect ratio, but the cell crashed
  errored.error = "boom";
  report.results.push_back(errored);

  ScenarioResult hung = ok;  // perfect ratio, but the budget aborted it
  hung.timed_out = true;
  report.results.push_back(hung);

  EXPECT_EQ(count_gate_violations(report, 2.0), 3u);  // lb + errored + hung
  EXPECT_EQ(count_gate_violations(report, 1.0), 4u);  // + hot
  EXPECT_EQ(count_gate_violations(report, 0.5), 5u);  // + ok

  EXPECT_FALSE(violates_gate(ok, 1.0));
  EXPECT_FALSE(violates_gate(infeasible, 1.0));
  EXPECT_TRUE(violates_gate(errored, 1.0));
  EXPECT_TRUE(violates_gate(hung, 1.0));

  // Realizing the bound exactly is conformant: a protocol whose worst case
  // IS the bound (the flood probe under split delays hits skew == u) lands
  // at ratio 1 + O(ulp), and --gate=1.0 must not trip on that.
  ScenarioResult at_bound = ok;
  at_bound.skew_ratio = 1.0 + 1e-14;
  at_bound.within_bound = true;
  EXPECT_FALSE(violates_gate(at_bound, 1.0));
}

// --gate-local and --gate-kllo (kRatioGates) count the rows whose finite
// ratio exceeds the threshold; a NaN ratio never counts, and an unset gate
// counts nothing.
TEST(MixedWorldSweep, RatioGatesCountRowsAboveTheirThreshold) {
  static_assert(std::size(kRatioGates) == 2);
  ASSERT_EQ(kRatioGates[0].flag, "gate-local");
  ASSERT_EQ(kRatioGates[1].flag, "gate-kllo");
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete, WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kSrikanthToueg,
                    baselines::ProtocolKind::kJumpMax};
  grid.ns = {8};
  grid.fault_loads = {0};
  grid.topologies = {TopologyKind::kRing};
  grid.delays = {sim::DelayKind::kRandom};
  grid.rounds = 8;
  grid.warmup = 2;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 4u);

  // local_skew_ratio: ~0.04 and ~0.28 on the complete graph, ~0.02 and
  // ~0.28 over the ring. kllo_ratio: NaN on the complete graph, ~0.04 and
  // ~0.57 over the ring. Srikanth-Toueg sits below both thresholds, jump-max
  // above them.
  SweepSummary gated;
  gated.ratio_gates = {0.1, 0.3};
  SweepSummary ungated;
  std::size_t finite_kllo = 0;
  for (const auto& r : run_sweep(specs).results) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    if (std::isfinite(r.kllo_ratio)) ++finite_kllo;
    gated.add(r);
    ungated.add(r);
  }
  EXPECT_EQ(finite_kllo, 2u);
  EXPECT_EQ(gated.ratio_gate_violations[0], 2u);  // jump-max, both worlds
  EXPECT_EQ(gated.ratio_gate_violations[1], 1u);  // jump-max over the ring
  EXPECT_EQ(ungated.ratio_gate_violations[0], 0u);
  EXPECT_EQ(ungated.ratio_gate_violations[1], 0u);
}

TEST(MixedWorldSweep, GateOnRealSweepPassesAtOne) {
  const auto specs = mixed_world_specs();
  const auto report = run_sweep(specs, {});
  EXPECT_EQ(report.error_count(), 0u);
  // Every world conforms to its bound, so a ratio gate of 1.0 is clean and
  // an absurdly tight gate trips every completed upper-bound scenario.
  EXPECT_EQ(count_gate_violations(report, 1.0), 0u);
  EXPECT_GT(count_gate_violations(report, 1e-9), 0u);
}

}  // namespace
}  // namespace crusader::runner
