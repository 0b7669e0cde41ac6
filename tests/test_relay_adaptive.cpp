// Adaptive traffic-observing relay adversaries (greedy-skew and budgeted
// search) plus the churn-aware adversary-state fixes that ride with them:
//
//  * the observation interface is deterministic (bit-exact digests) and the
//    winning search schedule replays from its exported seed alone;
//  * the greedy policy is an empirically STRONGER legal adversary than every
//    oblivious kind on the witness cell, yet stays within the Theorem-17
//    bound at (d_eff, u_eff) — the paper's guarantee is adversary-agnostic;
//  * selective-drop masks refresh as a pure function of the epoch graph
//    under churn (the stale-mask regression), custom:target refuses churned
//    targets, and adaptive cells stay byte-identical across the batch
//    toggle, thread counts, and killed-campaign resume.

#include "relay/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "relay/flood_world.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "sim/world.hpp"

namespace crusader::runner {
namespace {

constexpr relay::RelayFaultKind kObliviousKinds[] = {
    relay::RelayFaultKind::kCrash, relay::RelayFaultKind::kMaxDelay,
    relay::RelayFaultKind::kReorder, relay::RelayFaultKind::kSelectiveDrop};

/// The witness cell: n = 32 hypercube under Srikanth–Toueg with the
/// deterministic all-max honest delay policy, at the family's survivable
/// fault load. ST realizes its skew through message timing alone, so the
/// two-faced frontier attack has the most surface to bite on.
ScenarioSpec witness_spec(relay::RelayFaultKind fault) {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kHypercube;
  spec.protocol = baselines::ProtocolKind::kSrikanthToueg;
  spec.n = 32;
  spec.f = max_topology_faults(TopologyKind::kHypercube, 32);
  spec.f_actual = spec.f;
  spec.u = 0.05;
  spec.u_tilde = 0.05;
  spec.vartheta = 1.01;
  spec.delay = sim::DelayKind::kMax;
  spec.relay_fault = fault;
  spec.rounds = 10;
  spec.warmup = 3;
  return spec;
}

TEST(AdaptiveObservation, DigestIsDeterministicAndOrderSensitive) {
  const auto topo = relay::Topology::hypercube(3);
  std::vector<bool> faulty(8, false);
  faulty[0] = true;

  relay::RelayAdversary a(relay::RelayFaultKind::kGreedySkew, topo, faulty, 7);
  relay::RelayAdversary b(relay::RelayFaultKind::kGreedySkew, topo, faulty, 7);
  ASSERT_TRUE(a.observing());
  EXPECT_EQ(a.observation_count(), 0u);

  a.observe(1, 10, 1, 2.0);
  a.observe(2, 10, 2, 2.5);
  b.observe(1, 10, 1, 2.0);
  b.observe(2, 10, 2, 2.5);
  EXPECT_EQ(a.observation_count(), 2u);
  EXPECT_EQ(a.observation_digest(), b.observation_digest());

  // The digest is a replay witness: a swapped stream must not alias.
  relay::RelayAdversary c(relay::RelayFaultKind::kGreedySkew, topo, faulty, 7);
  c.observe(2, 10, 2, 2.5);
  c.observe(1, 10, 1, 2.0);
  EXPECT_NE(a.observation_digest(), c.observation_digest());

  // Node 2 arrived half a unit behind the flood's first sighting, node 1 is
  // the leader: greedy slows 2 (full hi) and rushes 1 (lo).
  EXPECT_TRUE(a.forwards(0, 1, 10));
  EXPECT_DOUBLE_EQ(a.hop_delay(0, 1, 10, 0.95, 0.9, 1.0), 0.9);
  EXPECT_DOUBLE_EQ(a.hop_delay(0, 2, 10, 0.95, 0.9, 1.0), 1.0);
  // Node 2 is also the most-lagging observed neighbor — the drop victim.
  EXPECT_FALSE(a.forwards(0, 2, 10));
  // At most one victim: every other neighbor is served.
  std::size_t served = 0;
  for (const NodeId next : topo.neighbors(0))
    if (a.forwards(0, next, 10)) ++served;
  EXPECT_EQ(served, topo.neighbors(0).size() - 1);

  // Oblivious kinds never observe (the hot path pays nothing for them).
  const relay::RelayAdversary oblivious(relay::RelayFaultKind::kMaxDelay, topo,
                                        faulty, 7);
  EXPECT_FALSE(oblivious.observing());
  // A searched candidate (non-zero attack seed) is schedule-driven, not
  // observation-driven.
  const relay::RelayAdversary searched(relay::RelayFaultKind::kSearch, topo,
                                       faulty, 7, /*attack_seed=*/99);
  EXPECT_FALSE(searched.observing());
  const relay::RelayAdversary baseline(relay::RelayFaultKind::kSearch, topo,
                                       faulty, 7, /*attack_seed=*/0);
  EXPECT_TRUE(baseline.observing());
}

TEST(AdaptiveObservation, CoreObservationLogMirrorsRelaySemantics) {
  core::ObservationLog log(4);
  core::ObservationLog twin(4);
  ASSERT_TRUE(log.lagging(1)) << "unobserved nodes count as lagging";

  for (core::ObservationLog* l : {&log, &twin}) {
    l->record(1, 5, 10.0);  // round 5 first sighting
    l->record(2, 5, 10.4);  // 0.4 behind
    l->record(1, 6, 12.0);
    l->record(2, 6, 12.4);
  }
  EXPECT_EQ(log.count(), 4u);
  EXPECT_EQ(log.digest(), twin.digest());
  EXPECT_FALSE(log.lagging(1));  // consistently first
  EXPECT_TRUE(log.lagging(2));   // consistently 0.4 behind
  EXPECT_TRUE(log.lagging(3));   // never observed

  // greedy-skew registered end to end in the strategy registry.
  EXPECT_STREQ(core::to_string(core::ByzStrategy::kGreedySkew), "greedy-skew");
  const auto parsed = parse_byz_strategy("greedy-skew");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, core::ByzStrategy::kGreedySkew);
  EXPECT_NE(std::find(core::all_byz_strategies().begin(),
                      core::all_byz_strategies().end(),
                      core::ByzStrategy::kGreedySkew),
            core::all_byz_strategies().end());
}

TEST(AdaptiveRefresh, SelectiveDropMasksArePureFunctionsOfTheEpochGraph) {
  // The stale-mask regression: the adversary is built once against the
  // initial topology, but churn rewires the graph every epoch. refresh()
  // must reproduce, at every epoch, exactly the masks a fresh adversary
  // constructed against that epoch's graph would choose — the hand-replay.
  const auto topo = relay::Topology::hypercube(4);  // n = 16
  std::vector<bool> faulty(16, false);
  faulty[0] = true;
  faulty[3] = true;

  relay::ChurnPolicy policy;
  policy.churn_rate = 0.25;
  policy.join_batch = 2;
  policy.pinned.assign(16, false);
  policy.pinned[0] = policy.pinned[3] = true;  // faulty relays never churn
  const auto schedule =
      relay::TopologySchedule::generate(topo, policy, 10, 1234);
  ASSERT_TRUE(schedule.dynamic());

  relay::RelayAdversary live(relay::RelayFaultKind::kSelectiveDrop, topo,
                             faulty, 77);
  bool masks_changed = false;
  for (std::size_t epoch = 0; epoch <= schedule.deltas().size(); ++epoch) {
    const auto graph = schedule.at_epoch(epoch);
    live.refresh(graph);
    const relay::RelayAdversary fresh(relay::RelayFaultKind::kSelectiveDrop,
                                      graph, faulty, 77);
    for (const NodeId v : {NodeId{0}, NodeId{3}}) {
      std::size_t served = 0;
      for (const NodeId next : graph.neighbors(v)) {
        EXPECT_EQ(live.forwards(v, next), fresh.forwards(v, next))
            << "epoch " << epoch << ": stale mask at " << v << "→" << next;
        if (live.forwards(v, next)) ++served;
      }
      // The refreshed mask serves ⌈deg/2⌉ of the CURRENT neighbors — a mask
      // frozen at epoch 0 could not (rewired edges fall outside it).
      EXPECT_EQ(served, (graph.neighbors(v).size() + 1) / 2)
          << "epoch " << epoch << " node " << v;
      if (epoch > 0) {
        const relay::RelayAdversary initial(
            relay::RelayFaultKind::kSelectiveDrop, topo, faulty, 77);
        for (const NodeId next : graph.neighbors(v))
          if (initial.forwards(v, next) != fresh.forwards(v, next))
            masks_changed = true;
      }
    }
  }
  EXPECT_TRUE(masks_changed)
      << "churn never rewired a faulty relay's neighborhood — the regression "
         "test has no teeth on this schedule";

  // Runner integration: a churned selective-drop cell runs clean end to end
  // (before the fix the stale allow_ mask indexed rewired neighbors).
  ScenarioSpec spec = witness_spec(relay::RelayFaultKind::kSelectiveDrop);
  spec.n = 16;
  spec.f = max_topology_faults(TopologyKind::kHypercube, 16);
  spec.f_actual = spec.f;
  spec.churn_rate = 0.15;
  spec.rounds = 6;
  spec.warmup = 2;
  const auto churned = run_scenario(spec);
  ASSERT_TRUE(churned.error.empty()) << churned.error;
  ASSERT_TRUE(churned.feasible);
  EXPECT_TRUE(churned.live);
  EXPECT_EQ(churned.rounds_completed, spec.rounds);
}

TEST(AdaptiveTarget, CustomTargetRefusesChurnedNodesAndKeepsStableOnes) {
  // A targeted delay policy aimed at a node that churns silently changes
  // meaning mid-run; the runner must error that cell, both ways.
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kHypercube;
  spec.n = 16;
  spec.churn_rate = 0.2;
  spec.join_batch = 2;
  spec.rounds = 5;
  spec.warmup = 1;

  // The beacon anchor n−1 never leaves: targeting it composes with churn.
  spec.custom_delay = *parse_custom_delay("custom:target:15");
  const auto stable = run_scenario(spec);
  EXPECT_TRUE(stable.error.empty()) << stable.error;
  EXPECT_TRUE(stable.live);

  // Under join_batch=2 over 7 epochs some node in 0..n−2 churns; targeting
  // any churned node must error with a message naming the problem.
  std::size_t refused = 0;
  for (NodeId target = 0; target + 1 < spec.n && refused == 0; ++target) {
    spec.custom_delay =
        *parse_custom_delay("custom:target:" + std::to_string(target));
    const auto result = run_scenario(spec);
    if (result.error.empty()) continue;
    EXPECT_NE(result.error.find("churns"), std::string::npos) << result.error;
    EXPECT_TRUE(violates_gate(result, 1e9));
    ++refused;
  }
  EXPECT_EQ(refused, 1u)
      << "no node churned under this schedule — pick a churnier cell";
}

TEST(AdaptiveWitness, GreedyStrictlyBeatsEveryObliviousKindWithinBound) {
  const auto greedy =
      run_scenario(witness_spec(relay::RelayFaultKind::kGreedySkew));
  ASSERT_TRUE(greedy.error.empty()) << greedy.error;
  ASSERT_TRUE(greedy.feasible);
  ASSERT_TRUE(greedy.live);
  ASSERT_TRUE(std::isfinite(greedy.skew_ratio));
  // Stronger — but still legal: the Theorem-17 bound at (d_eff, u_eff)
  // holds unconditionally.
  EXPECT_TRUE(greedy.within_bound)
      << greedy.max_skew << " > " << greedy.predicted_skew;
  EXPECT_EQ(greedy.attack_iters, 1u);
  EXPECT_EQ(greedy.attack_best_seed, 0u);

  for (const auto kind : kObliviousKinds) {
    const auto oblivious = run_scenario(witness_spec(kind));
    SCOPED_TRACE(relay::to_string(kind));
    ASSERT_TRUE(oblivious.error.empty()) << oblivious.error;
    ASSERT_TRUE(std::isfinite(oblivious.skew_ratio));
    EXPECT_TRUE(oblivious.within_bound);
    EXPECT_GT(greedy.skew_ratio, oblivious.skew_ratio + 1e-9)
        << "adaptive adversary not strictly stronger: greedy "
        << greedy.skew_ratio << " vs " << oblivious.skew_ratio;
    // Oblivious rows never read as zero-iteration attacks.
    EXPECT_EQ(oblivious.attack_iters, 0u);
  }
}

TEST(AdaptiveWitness, SearchWeaklyDominatesGreedyAndWinnerReplays) {
  // Random honest delays give the searched schedules headroom the greedy
  // heuristic does not find; on this cell the search win is strict, so the
  // exported best seed is a real (non-sentinel) schedule.
  ScenarioSpec greedy_spec = witness_spec(relay::RelayFaultKind::kGreedySkew);
  greedy_spec.delay = sim::DelayKind::kRandom;
  ScenarioSpec search_spec = witness_spec(relay::RelayFaultKind::kSearch);
  search_spec.delay = sim::DelayKind::kRandom;
  search_spec.search_budget = 8;

  const auto greedy = run_scenario(greedy_spec);
  const auto search = run_scenario(search_spec);
  ASSERT_TRUE(greedy.error.empty()) << greedy.error;
  ASSERT_TRUE(search.error.empty()) << search.error;
  ASSERT_TRUE(std::isfinite(greedy.skew_ratio));
  ASSERT_TRUE(std::isfinite(search.skew_ratio));
  EXPECT_TRUE(search.within_bound);
  EXPECT_EQ(search.attack_iters, 8u);
  // Candidate 0 plays greedy, the argmax keeps the best: weak dominance by
  // construction, strict on this cell.
  EXPECT_GE(search.skew_ratio, greedy.skew_ratio - 1e-12);
  EXPECT_GT(search.skew_ratio, greedy.skew_ratio)
      << "expected a strict search win on this cell";
  ASSERT_NE(search.attack_best_seed, 0u);

  // Replay: one fresh world at the exported (seed, attack_best_seed) —
  // mirroring the runner's static relay setup — reproduces the winning
  // max_skew bit for bit. The (attack_iters, attack_best_seed) columns are
  // a sufficient witness; no search loop needed.
  const auto& spec = search_spec;
  relay::RelayConfig config;
  config.topology = relay::Topology::hypercube(5);
  config.hop_model = spec.model();
  config.seed = search.seed;
  config.clock_kind = spec.clocks;
  config.delay_kind = spec.delay;
  config.faulty = sim::default_faulty_set(spec.f_actual);
  config.fault_kind = relay::RelayFaultKind::kSearch;
  config.attack_seed = search.attack_best_seed;
  const auto effective = relay::compute_effective(config);
  const auto setup = baselines::make_setup(spec.protocol, effective.model,
                                           spec.slack);
  ASSERT_TRUE(setup.feasible);
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.horizon(spec.rounds);
  relay::RelayWorld world(
      config,
      baselines::make_protocol_factory(setup,
                                       static_cast<Round>(spec.rounds)),
      effective);
  const auto replay = world.run();
  EXPECT_EQ(replay.trace.max_skew(), search.max_skew)
      << "winning schedule did not replay from its seed";
}

/// Adaptive grid: greedy + search cells, static and churned, two protocols.
SweepGrid adaptive_grid() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kCps,
                    baselines::ProtocolKind::kSrikanthToueg};
  grid.ns = {8};
  grid.fault_loads = {SweepGrid::kMaxResilience};
  grid.topologies = {TopologyKind::kHypercube, TopologyKind::kRingOfCliques};
  grid.relay_faults = {relay::RelayFaultKind::kGreedySkew,
                       relay::RelayFaultKind::kSearch};
  grid.search_budgets = {4};
  grid.churn_rates = {0.0, 0.1};
  grid.us = {0.01};
  grid.varthetas = {1.001};
  grid.rounds = 5;
  grid.warmup = 2;
  return grid;
}

TEST(AdaptiveDifferential, CsvByteIdenticalAcrossBatchToggleAndThreads) {
  const auto specs = adaptive_grid().expand();
  ASSERT_GE(specs.size(), 8u);

  RunnerOptions reference;
  reference.base_seed = 11;
  reference.threads = 1;
  reference.fast_path = false;
  const std::string ref_csv = to_csv(run_sweep(specs, reference));

  RunnerOptions batched = reference;
  batched.fast_path = true;
  EXPECT_EQ(ref_csv, to_csv(run_sweep(specs, batched)))
      << "adaptive observation stream diverged under the flood fast path";

  RunnerOptions threaded = batched;
  threaded.threads = 4;
  EXPECT_EQ(ref_csv, to_csv(run_sweep(specs, threaded)))
      << "adaptive cells are not thread-order independent";

  EXPECT_NE(ref_csv.find("greedy-skew"), std::string::npos);
  EXPECT_NE(ref_csv.find("attack_best_seed"), std::string::npos);
}

TEST(AdaptiveCampaign, SearchCampaignResumesByteIdenticalAfterKill) {
  const auto specs = adaptive_grid().expand();
  ASSERT_GE(specs.size(), 6u);
  const std::string dir = ::testing::TempDir();
  const std::string clean_csv = dir + "/adaptive_clean.csv";
  const std::string csv = dir + "/adaptive_killed.csv";
  const std::string manifest = dir + "/adaptive_killed.manifest";
  for (const auto& p : {clean_csv, csv, manifest})
    std::filesystem::remove(p);

  auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  };

  {
    CsvCampaign campaign({clean_csv, dir + "/adaptive_clean.manifest", 2, 1},
                         specs);
    run_sweep_streamed(specs, {},
                       [&](const ScenarioResult& r) { campaign.append(r); });
    campaign.finish();
  }
  const std::string clean = slurp(clean_csv);

  // Kill mid-campaign after 3 rows (checkpoint interval 2 leaves the
  // manifest behind the CSV — the torn state), then resume on 4 threads.
  {
    CsvCampaign campaign({csv, manifest, 2, 1}, specs);
    for (std::size_t i = 0; i < 3; ++i)
      campaign.append(run_scenario(specs[i]));
    // no finish(): simulated kill
  }
  CsvCampaign resumed({csv, manifest, 2, 1}, specs);
  EXPECT_EQ(resumed.resume_index(), 2u);
  RunnerOptions options;
  options.threads = 4;
  const std::vector<ScenarioSpec> todo(specs.begin() + resumed.resume_index(),
                                       specs.end());
  run_sweep_streamed(todo, options,
                     [&](const ScenarioResult& r) { resumed.append(r); });
  resumed.finish();
  EXPECT_EQ(slurp(csv), clean)
      << "search cells did not resume to the byte-identical row";
  for (const auto& p :
       {clean_csv, dir + "/adaptive_clean.manifest", csv, manifest})
    std::filesystem::remove(p);
}

TEST(AdaptiveAxes, BudgetAxisCollapsesAndObliviousSurfaceIsUnchanged) {
  // The search-budget axis multiplies kSearch cells only.
  SweepGrid grid = adaptive_grid();
  grid.churn_rates = {0.0};
  grid.relay_faults = {relay::RelayFaultKind::kMaxDelay,
                       relay::RelayFaultKind::kSearch};
  grid.search_budgets = {8, 32};
  const auto specs = grid.expand();
  std::size_t max_delay_cells = 0;
  std::set<std::uint32_t> search_budgets_seen;
  for (const auto& spec : specs) {
    if (spec.relay_fault == relay::RelayFaultKind::kMaxDelay)
      ++max_delay_cells;
    else if (spec.relay_fault == relay::RelayFaultKind::kSearch)
      search_budgets_seen.insert(spec.search_budget);
  }
  EXPECT_EQ(max_delay_cells, 4u);  // 2 protocols × 2 topologies, no ×budget
  EXPECT_EQ(search_budgets_seen, (std::set<std::uint32_t>{8, 32}));

  // Grids without adaptive kinds ignore the axis entirely: same cells, same
  // keys (and therefore the same seeds, digests, and history baselines as
  // before the axis existed).
  SweepGrid oblivious = grid;
  oblivious.relay_faults = {relay::RelayFaultKind::kMaxDelay,
                            relay::RelayFaultKind::kReorder};
  const auto base = oblivious.expand();
  oblivious.search_budgets = {2, 64};
  const auto tweaked = oblivious.expand();
  ASSERT_EQ(base.size(), tweaked.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(base[i].key(), tweaked[i].key()) << "position " << i;

  // Adaptive kinds multiply the churn axes; oblivious kinds keep their
  // historical static-only cells.
  SweepGrid churned = adaptive_grid();
  churned.relay_faults = {relay::RelayFaultKind::kMaxDelay,
                          relay::RelayFaultKind::kGreedySkew};
  churned.topologies = {TopologyKind::kHypercube};
  churned.protocols = {baselines::ProtocolKind::kCps};
  churned.churn_rates = {0.0, 0.1};
  std::size_t greedy_cells = 0;
  std::size_t greedy_dynamic = 0;
  std::size_t oblivious_dynamic = 0;
  for (const auto& spec : churned.expand()) {
    if (spec.relay_fault == relay::RelayFaultKind::kGreedySkew) {
      ++greedy_cells;
      if (spec.dynamic()) ++greedy_dynamic;
    } else if (spec.dynamic()) {
      ++oblivious_dynamic;
    }
  }
  EXPECT_EQ(greedy_cells, 2u);
  EXPECT_EQ(greedy_dynamic, 1u);
  EXPECT_EQ(oblivious_dynamic, 0u);
}

TEST(AdaptiveAxes, ChurnedAdaptiveCellStaysLiveAndGated) {
  // The expand()-level composition above, run for real: a churned
  // greedy-skew cell completes every round with the faulty relays pinned
  // against the schedule's churn.
  ScenarioSpec spec = witness_spec(relay::RelayFaultKind::kGreedySkew);
  spec.n = 16;
  spec.f = max_topology_faults(TopologyKind::kHypercube, 16);
  spec.f_actual = spec.f;
  spec.churn_rate = 0.1;
  spec.rounds = 6;
  spec.warmup = 2;
  const auto result = run_scenario(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.live);
  EXPECT_EQ(result.rounds_completed, spec.rounds);
  EXPECT_EQ(result.attack_iters, 1u);
  EXPECT_FALSE(violates_gate(result, 1.0))
      << "dynamic adaptive cells gate on liveness";
}

}  // namespace
}  // namespace crusader::runner
