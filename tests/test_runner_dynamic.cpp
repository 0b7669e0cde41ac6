// Dynamic-network world: seeded topology schedules (churn), their runner
// integration, and the gradient (local-skew) metrics. The anchor guarantees:
// schedules replay deterministically from (seed, policy), static cells stay
// byte-identical to the pre-dynamic sweep surface, and churned cells stay
// live with local_skew bounded by the global skew row for row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cps.hpp"
#include "core/params.hpp"
#include "relay/flood_world.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/export.hpp"
#include "runner/history.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "util/check.hpp"

namespace crusader::runner {
namespace {

constexpr std::uint32_t kInfDist = std::numeric_limits<std::uint32_t>::max();

/// The kRatioGates row that --gate-kllo sets.
constexpr std::size_t kKlloGate = 1;
static_assert(kRatioGates[kKlloGate].flag == "gate-kllo");

relay::ChurnPolicy churn_policy(double rate, std::uint32_t batch,
                                relay::ReconnectPolicy reconnect =
                                    relay::ReconnectPolicy::kRandom) {
  relay::ChurnPolicy policy;
  policy.churn_rate = rate;
  policy.join_batch = batch;
  policy.reconnect = reconnect;
  return policy;
}

/// Every pair of live nodes can reach each other through live nodes only.
void expect_live_connected(const relay::Topology& topo,
                           const std::vector<bool>& down) {
  for (NodeId s = 0; s < topo.n(); ++s) {
    if (down[s]) continue;
    for (NodeId t = s + 1; t < topo.n(); ++t) {
      if (down[t]) continue;
      ASSERT_NE(topo.distance(s, t, down), kInfDist)
          << "live pair " << s << "-" << t << " disconnected";
    }
  }
}

TEST(Schedule, GenerateReplaysExactlyFromSeedAndPolicy) {
  const auto topo = relay::Topology::hypercube(4);  // n = 16
  const auto policy =
      churn_policy(0.2, 2, relay::ReconnectPolicy::kPreferential);
  const auto a = relay::TopologySchedule::generate(topo, policy, 12, 99);
  const auto b = relay::TopologySchedule::generate(topo, policy, 12, 99);
  EXPECT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.deltas().size(), b.deltas().size());
  for (std::size_t e = 0; e < a.deltas().size(); ++e) {
    EXPECT_EQ(a.deltas()[e].joins, b.deltas()[e].joins) << "epoch " << e;
    EXPECT_EQ(a.deltas()[e].removed, b.deltas()[e].removed) << "epoch " << e;
    EXPECT_EQ(a.deltas()[e].added, b.deltas()[e].added) << "epoch " << e;
    EXPECT_EQ(a.deltas()[e].leaves, b.deltas()[e].leaves) << "epoch " << e;
  }
  EXPECT_TRUE(a.dynamic());

  // A different seed or a different policy realizes a different schedule.
  EXPECT_NE(a.digest(),
            relay::TopologySchedule::generate(topo, policy, 12, 100).digest());
  EXPECT_NE(a.digest(),
            relay::TopologySchedule::generate(
                topo, churn_policy(0.2, 2, relay::ReconnectPolicy::kRandom),
                12, 99)
                .digest());
}

TEST(Schedule, DigestsPinnedAcrossFamiliesPoliciesAndSeeds) {
  // Recorded while the generator still ran a whole-graph connectivity BFS
  // for every rewire and leave. Its early-exit local checks (a still
  // reaches b; a leaver's neighbors still reach each other) must realize
  // the same deltas byte for byte. On a ring, a ring-repair rewire
  // reconnects the edge it just cut, so those rows are seed-independent.
  const relay::Topology families[] = {relay::Topology::hypercube(9),
                                      relay::Topology::ring(24),
                                      relay::Topology::chordal_ring(40, 2)};
  const relay::ReconnectPolicy reconnects[] = {
      relay::ReconnectPolicy::kRandom, relay::ReconnectPolicy::kPreferential,
      relay::ReconnectPolicy::kRingRepair};
  const struct {
    double rate;
    std::uint32_t batch;
  } churn[] = {{0.1, 0}, {0.0, 3}, {0.25, 2}};
  // [family][reconnect][churn][seed − 1]
  constexpr std::uint64_t kDigest[3][3][3][3] = {
      {  // hypercube(9)
       {  // random
        {0x2578eeb989c01f1dULL, 0x7c8311d64557bc70ULL, 0x8abb6d1f262f39bcULL},
        {0xf4737aae54703dbbULL, 0x57ab1a76f8858f68ULL, 0xc4f53b6395eb3825ULL},
        {0xff1ba3346d153b1aULL, 0x64862852ae43e830ULL, 0x8f26f654b99505c3ULL},
       },
       {  // preferential
        {0x3b61ac7b283713d1ULL, 0xf5e557b79eee8520ULL, 0xf6d8a98ad0a553d0ULL},
        {0xf2becac688aae6edULL, 0x6622f4bfcb75a2f2ULL, 0x1d0b529a378ae8d5ULL},
        {0x1160fc0084b86936ULL, 0x7720ceda8f9dca38ULL, 0xf837fe53bade838dULL},
       },
       {  // ring-repair
        {0xbfb483edd32ec155ULL, 0x2ca8362bd2bb80deULL, 0x53bd12bbf4679452ULL},
        {0x31fef4a09ba62b19ULL, 0xbf0e075c02e67cc1ULL, 0xdf3b037761d082c1ULL},
        {0x780617bec8a07e00ULL, 0x9a672096e8647f60ULL, 0xdcd65c9f461b2398ULL},
       },
      },
      {  // ring(24)
       {  // random
        {0x5bb6d857923c3855ULL, 0x7d40307368b01580ULL, 0x0f6c483413b8ee4dULL},
        {0x2d7cf0ae64de7d57ULL, 0xa637deb0e1a103e8ULL, 0x29b6e6648e0ef94bULL},
        {0xe318e14b3f24209cULL, 0xf2e528de74a9f312ULL, 0x2f2706dee60840b8ULL},
       },
       {  // preferential
        {0x8c5e7e2887ff6a29ULL, 0x14a82774a0a5a622ULL, 0x10738aaf119ca335ULL},
        {0x3b96f1ed6319be8dULL, 0xfec42863bb1a3ad3ULL, 0x01585d33542fa3e3ULL},
        {0x47964fc60bce0aebULL, 0xe059cbe8e6173f9aULL, 0xac58ae81053ee547ULL},
       },
       {  // ring-repair
        {0xbd02789d650b5a67ULL, 0xbd02789d650b5a67ULL, 0xbd02789d650b5a67ULL},
        {0x8358f2563862d0c2ULL, 0x35a69966b65462c1ULL, 0x4302fb06fde11e63ULL},
        {0x810c91435b65b31bULL, 0xa4faf9ec52c4867aULL, 0x1c836d8e97cfdd76ULL},
       },
      },
      {  // chordal_ring(40, 2)
       {  // random
        {0xa343534ca623ae22ULL, 0x65c297baa51500cbULL, 0x4e8f34b298ef0cafULL},
        {0x9f5eee678e69389dULL, 0x36346dff2909415eULL, 0x38e8582dd3b0a43fULL},
        {0x1f88ee4396db5dcbULL, 0x56007676d27a441cULL, 0xd4e1cbb11e600dd2ULL},
       },
       {  // preferential
        {0xb2b50feabdf5426bULL, 0xd7d77844b3efbe8eULL, 0x337573ba14e9b3deULL},
        {0xd00598140281300bULL, 0x788cd28eadcb2e49ULL, 0xbab5fc5c7ce2eed0ULL},
        {0x91187b3f6fe02a18ULL, 0xc606df7477522b14ULL, 0x5828bb8c6f9893ecULL},
       },
       {  // ring-repair
        {0x4169a343f7a6d2edULL, 0x4169a343f7a6d2edULL, 0x4169a343f7a6d2edULL},
        {0xaf2ee52f77ed5720ULL, 0x748c968d660b6726ULL, 0x0921207995e3e44dULL},
        {0xaaac1a0ad56c4df1ULL, 0xd84c5e3eff9ba506ULL, 0x02c47ec763f2e65eULL},
       },
      },
  };
  for (std::size_t f = 0; f < 3; ++f)
    for (std::size_t p = 0; p < 3; ++p)
      for (std::size_t c = 0; c < 3; ++c)
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const auto schedule = relay::TopologySchedule::generate(
              families[f],
              churn_policy(churn[c].rate, churn[c].batch, reconnects[p]), 12,
              seed);
          EXPECT_EQ(schedule.digest(), kDigest[f][p][c][seed - 1])
              << "family " << f << ", reconnect " << p << ", churn " << c
              << ", seed " << seed;
        }

  // hypercube(12) at churn 0.1: 2458 rewires per epoch, where a bridge
  // check's frontiers grow past their first few BFS levels.
  constexpr std::uint64_t kLargeDigest[3] = {
      0x910393519ef004a6ULL,  // random
      0xbd07fc7fb0bcb70aULL,  // preferential
      0x7eb42597dc49cd0eULL,  // ring-repair
  };
  const auto large = relay::Topology::hypercube(12);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto schedule = relay::TopologySchedule::generate(
        large, churn_policy(0.1, 0, reconnects[p]), 12, 1);
    EXPECT_EQ(schedule.digest(), kLargeDigest[p])
        << "hypercube(12), reconnect " << p;
  }
}

TEST(Schedule, DisconnectedInitialGraphKeepsWholeGraphCheck) {
  // Two disjoint 4-rings: the live graph is never connected, so the
  // whole-graph check rejects every rewire and every leave. The local
  // checks alone would accept them (a ring minus one edge or node stays
  // connected), so this pins the fallback.
  relay::Topology topo(8);
  for (NodeId v = 0; v < 4; ++v) {
    topo.add_edge(v, (v + 1) % 4);
    topo.add_edge(4 + v, 4 + (v + 1) % 4);
  }
  const auto schedule = relay::TopologySchedule::generate(
      topo, churn_policy(0.5, 1), 6, 3);
  EXPECT_EQ(schedule.deltas().size(), 6u);
  EXPECT_FALSE(schedule.dynamic());
}

TEST(Schedule, EveryEpochGraphIsLiveConnectedWithIsolatedDownNodes) {
  const auto topo = relay::Topology::hypercube(4);
  for (const auto reconnect : {relay::ReconnectPolicy::kRandom,
                               relay::ReconnectPolicy::kPreferential,
                               relay::ReconnectPolicy::kRingRepair}) {
    const auto schedule = relay::TopologySchedule::generate(
        topo, churn_policy(0.25, 3, reconnect), 10, 7);
    for (std::size_t e = 0; e <= schedule.deltas().size(); ++e) {
      const auto graph = schedule.at_epoch(e);
      const auto down = schedule.down_at(e);
      ASSERT_EQ(down.size(), graph.n());
      // The beacon anchor (node n-1) never leaves.
      EXPECT_FALSE(down[graph.n() - 1]) << "epoch " << e;
      for (NodeId v = 0; v < graph.n(); ++v) {
        if (down[v]) {
          EXPECT_TRUE(graph.neighbors(v).empty())
              << "down node " << v << " keeps edges at epoch " << e;
        }
      }
      expect_live_connected(graph, down);
    }
  }
}

TEST(Schedule, StaticScheduleIsDegenerate) {
  const auto topo = relay::Topology::ring(8);
  const auto schedule = relay::TopologySchedule::static_schedule(topo);
  EXPECT_FALSE(schedule.dynamic());
  // No node is ever masked out of the skew metrics on a static schedule.
  const auto churned = schedule.ever_churned();
  EXPECT_EQ(std::count(churned.begin(), churned.end(), true), 0);
  EXPECT_TRUE(schedule.deltas().empty());
  EXPECT_EQ(schedule.at_epoch(5).edge_count(), topo.edge_count());
  EXPECT_FALSE(churn_policy(0.0, 0).dynamic());
  EXPECT_TRUE(churn_policy(0.1, 0).dynamic());
  EXPECT_TRUE(churn_policy(0.0, 1).dynamic());
}

TEST(Spec, InertChurnAxesLeaveStaticKeysUntouched) {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kRing;
  spec.n = 8;
  const auto static_key = spec.key();
  EXPECT_EQ(spec.name().find("churn="), std::string::npos);

  // The reconnect policy means nothing without churn: it must not fork the
  // memo key (or the scenario seed derived from it).
  spec.reconnect = relay::ReconnectPolicy::kRingRepair;
  EXPECT_EQ(spec.key(), static_key);
  EXPECT_FALSE(spec.dynamic());

  // Any real churn forks the key, and the reconnect policy forks it further.
  spec.churn_rate = 0.1;
  EXPECT_TRUE(spec.dynamic());
  const auto churned_key = spec.key();
  EXPECT_NE(churned_key, static_key);
  EXPECT_NE(spec.name().find("churn=0.1"), std::string::npos) << spec.name();
  spec.reconnect = relay::ReconnectPolicy::kRandom;
  EXPECT_NE(spec.key(), churned_key);
}

TEST(Grid, InertChurnCellsCollapseIntoTheClassicGrid) {
  SweepGrid base;
  base.worlds = {WorldKind::kRelay};
  base.protocols = {baselines::ProtocolKind::kFloodProbe};
  base.ns = {8};
  base.fault_loads = {0, SweepGrid::kMaxResilience};
  base.topologies = {TopologyKind::kRing};
  base.rounds = 4;
  const auto plain = base.expand();

  // churn_rate 0 × every reconnect policy is ONE static cell, not three.
  auto inert = base;
  inert.churn_rates = {0.0};
  inert.join_batches = {0};
  inert.reconnects = {relay::ReconnectPolicy::kRandom,
                      relay::ReconnectPolicy::kPreferential,
                      relay::ReconnectPolicy::kRingRepair};
  const auto collapsed = inert.expand();
  ASSERT_EQ(collapsed.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(collapsed[i].key(), plain[i].key()) << "position " << i;

  // A real churn axis adds dynamic cells (fault-free relay points only)
  // while keeping every classic cell.
  auto churned = base;
  churned.churn_rates = {0.0, 0.2};
  const auto grown = churned.expand();
  EXPECT_GT(grown.size(), plain.size());
  std::size_t dynamic_cells = 0;
  for (const auto& spec : grown) {
    if (spec.dynamic()) {
      ++dynamic_cells;
      EXPECT_EQ(spec.f_actual, 0u);
    }
  }
  EXPECT_GT(dynamic_cells, 0u);
}

/// Dynamic sweep grid shared by the determinism tests: static and churned
/// cells (rewires and membership churn) across two reconnect policies.
std::vector<ScenarioSpec> dynamic_specs() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kFloodProbe};
  grid.ns = {12};
  grid.fault_loads = {0};
  grid.topologies = {TopologyKind::kChordalRing};
  grid.churn_rates = {0.0, 0.15};
  grid.join_batches = {0, 1};
  grid.reconnects = {relay::ReconnectPolicy::kRandom,
                     relay::ReconnectPolicy::kRingRepair};
  grid.us = {0.02};
  grid.varthetas = {1.002};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid.expand();
}

TEST(Dynamic, StreamedCsvByteIdenticalAcrossThreadCounts) {
  const auto specs = dynamic_specs();
  ASSERT_GE(specs.size(), 4u);
  std::string csv[2];
  const unsigned threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions options;
    options.threads = threads[i];
    std::ostringstream os;
    os << csv_header() << '\n';
    run_sweep_streamed(specs, options, [&](const ScenarioResult& r) {
      write_csv_row(os, r);
    });
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(Dynamic, CampaignResumeAfterKillIsByteIdentical) {
  const auto specs = dynamic_specs();
  ASSERT_GE(specs.size(), 5u);
  const std::string dir = ::testing::TempDir();
  const std::string clean_csv = dir + "/dynamic_clean.csv";
  const std::string clean_manifest = dir + "/dynamic_clean.manifest";
  const std::string csv = dir + "/dynamic_killed.csv";
  const std::string manifest = dir + "/dynamic_killed.manifest";
  for (const auto& p : {clean_csv, clean_manifest, csv, manifest})
    std::filesystem::remove(p);

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  };

  {
    CsvCampaign campaign({clean_csv, clean_manifest, 2, 1}, specs);
    run_sweep_streamed(specs, {},
                       [&](const ScenarioResult& r) { campaign.append(r); });
    campaign.finish();
  }
  const std::string clean = slurp(clean_csv);

  {
    CsvCampaign campaign({csv, manifest, 2, 1}, specs);
    for (std::size_t i = 0; i < 3; ++i) campaign.append(run_scenario(specs[i]));
    // no finish(): simulated kill mid-campaign
  }
  std::size_t replayed = 0;
  CsvCampaign resumed({csv, manifest, 2, 1}, specs,
                      [&](const ScenarioResult& r) {
                        EXPECT_TRUE(std::isfinite(r.local_skew) ||
                                    r.rounds_completed == 0);
                        ++replayed;
                      });
  EXPECT_EQ(replayed, resumed.resume_index());
  RunnerOptions options;
  options.threads = 4;
  const std::vector<ScenarioSpec> todo(specs.begin() + resumed.resume_index(),
                                       specs.end());
  run_sweep_streamed(todo, options,
                     [&](const ScenarioResult& r) { resumed.append(r); });
  resumed.finish();
  EXPECT_EQ(slurp(csv), clean);
  for (const auto& p : {clean_csv, clean_manifest, csv, manifest})
    std::filesystem::remove(p);
}

TEST(Dynamic, FastPathAndPlainPathRowsAreIdentical) {
  // The batched MessageArena fast path must stay trace-identical under a
  // mutating topology (joins, leaves, rewires mid-run).
  for (const auto& spec : dynamic_specs()) {
    RunnerOptions fast;
    RunnerOptions plain;
    plain.fast_path = false;
    std::ostringstream fast_row;
    write_csv_row(fast_row, run_scenario(spec, fast));
    std::ostringstream plain_row;
    write_csv_row(plain_row, run_scenario(spec, plain));
    EXPECT_EQ(fast_row.str(), plain_row.str()) << spec.name();
  }
}

TEST(Dynamic, LocalSkewIsBoundedByGlobalSkewRowWise) {
  auto specs = dynamic_specs();
  // A complete-world cell rides along: its local skew degenerates to the
  // global max (every pair is an edge).
  ScenarioSpec flat;
  flat.rounds = 5;
  flat.warmup = 1;
  specs.push_back(flat);
  for (const auto& spec : specs) {
    const auto result = run_scenario(spec);
    ASSERT_TRUE(result.error.empty()) << spec.name() << ": " << result.error;
    if (result.rounds_completed == 0) continue;
    EXPECT_TRUE(std::isfinite(result.local_skew)) << spec.name();
    EXPECT_LE(result.local_skew, result.max_skew + 1e-12) << spec.name();
    if (spec.world == WorldKind::kComplete) {
      EXPECT_EQ(result.local_skew, result.max_skew);
    }
    if (std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0) {
      EXPECT_NEAR(result.local_skew_ratio,
                  result.local_skew / result.predicted_skew, 1e-12);
    }
  }
}

TEST(Dynamic, PerRoundLocalSkewSeriesCoversEveryCompletedRound) {
  // Direct world run (the runner only exports the series max): one local
  // skew sample per completed round, measured on that round's live graph.
  relay::RelayConfig config;
  config.topology = relay::Topology::hypercube(4);
  config.hop_model.n = 16;
  config.hop_model.f = 0;
  config.hop_model.d = 1.0;
  config.hop_model.u = 0.01;
  config.hop_model.u_tilde = 0.01;
  config.hop_model.vartheta = 1.001;
  config.seed = 11;

  auto schedule = std::make_shared<relay::TopologySchedule>(
      relay::TopologySchedule::generate(config.topology, churn_policy(0.2, 1),
                                        10, 21));
  ASSERT_TRUE(schedule->dynamic());
  const auto effective = relay::effective_from_hops(
      config.hop_model, relay::analyze_schedule_worst_hops(*schedule, 0));
  const auto params = core::derive_cps_params(effective.model);
  ASSERT_TRUE(params.feasible);
  const std::size_t rounds = 8;
  config.initial_offset = params.S;
  config.horizon = params.S + (rounds + 2) * params.p_max;
  config.schedule = schedule;
  config.epoch_start = config.initial_offset + params.p_max;
  config.epoch_length = params.p_max;

  core::CpsConfig cps;
  cps.params = params;
  relay::RelayWorld world(
      config, [cps](NodeId) { return std::make_unique<core::CpsNode>(cps); },
      effective);
  const auto run = world.run();
  ASSERT_TRUE(run.trace.live(rounds));

  const auto series = local_skew_series(run.trace, *schedule);
  ASSERT_EQ(series.size(), run.trace.skews().size());
  ASSERT_GE(series.size(), rounds);
  double worst = 0.0;
  for (const double s : series) {
    ASSERT_TRUE(std::isfinite(s));
    ASSERT_GE(s, 0.0);
    worst = std::max(worst, s);
  }
  EXPECT_LE(worst, run.trace.max_skew() + 1e-12);
}

TEST(Dynamic, LargeChurnedCellCompletesLive) {
  // The headline acceptance cell: n = 256 under real churn completes every
  // round, with the gradient metric exported and bounded by the global skew.
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.protocol = baselines::ProtocolKind::kFloodProbe;
  spec.topology = TopologyKind::kHypercube;
  spec.crypto = CryptoMode::kAbstract;
  spec.n = 256;
  spec.churn_rate = 0.05;
  spec.rounds = 6;
  spec.warmup = 2;
  const auto result = run_scenario(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.live);
  EXPECT_EQ(result.rounds_completed, spec.rounds);
  EXPECT_TRUE(std::isfinite(result.local_skew));
  EXPECT_LE(result.local_skew, result.max_skew + 1e-12);
  EXPECT_TRUE(result.d_eff_exact);  // n = 256 is within the exact budget
  EXPECT_FALSE(violates_gate(result, 1e9));
}

TEST(Dynamic, EffectiveCacheRefusesDynamicSchedules) {
  // The memo key does not fold the schedule, so serving a dynamic cell from
  // the cache would silently reuse a static analysis.
  relay::RelayConfig config;
  config.topology = relay::Topology::ring(8);
  config.hop_model.n = 8;
  config.hop_model.f = 0;
  config.hop_model.d = 1.0;
  config.hop_model.u = 0.01;
  config.hop_model.u_tilde = 0.01;
  config.hop_model.vartheta = 1.001;
  relay::EffectiveCache cache;
  EXPECT_NO_THROW((void)cache.get(1, config));
  config.schedule = std::make_shared<relay::TopologySchedule>(
      relay::TopologySchedule::generate(config.topology, churn_policy(0.2, 0),
                                        6, 3));
  ASSERT_TRUE(config.schedule->dynamic());
  EXPECT_THROW((void)cache.get(2, config), util::CheckFailure);
}

TEST(EdgeAge, RewireResetsAgesAndQuietEpochsAgeEveryEdge) {
  relay::EdgeAgeTracker tracker(relay::Topology::ring(6));
  EXPECT_EQ(tracker.epoch(), 0u);
  EXPECT_EQ(tracker.age(0, 1), 0u);

  // Epochs without deltas age every surviving edge by one.
  tracker.advance();
  tracker.advance();
  EXPECT_EQ(tracker.epoch(), 2u);
  EXPECT_EQ(tracker.age(0, 1), 2u);
  EXPECT_EQ(tracker.age(5, 0), 2u);

  // A rewire restarts the clock for the new edge only; untouched edges keep
  // aging through the same epoch.
  relay::EpochDelta delta;
  delta.removed = {{0, 1}};
  delta.added = {{0, 2}};
  tracker.apply(delta);
  EXPECT_EQ(tracker.epoch(), 3u);
  EXPECT_EQ(tracker.age(0, 2), 0u);
  EXPECT_EQ(tracker.age(1, 2), 3u);
  tracker.advance();
  EXPECT_EQ(tracker.age(0, 2), 1u);
  EXPECT_EQ(tracker.age(2, 0), 1u);  // endpoint order is irrelevant

  // Re-adding a previously-removed edge births it fresh, not at its old age.
  relay::EpochDelta back;
  back.removed = {{0, 2}};
  back.added = {{0, 1}};
  tracker.apply(back);
  EXPECT_EQ(tracker.age(0, 1), 0u);
}

TEST(EdgeAge, LeaveAndRejoinRestartsTheClock) {
  relay::EdgeAgeTracker tracker(relay::Topology::ring(5));
  tracker.advance();

  relay::EpochDelta leave;
  leave.leaves = {3};
  leave.removed = {{2, 3}, {3, 4}};
  tracker.apply(leave);
  EXPECT_TRUE(tracker.down()[3]);
  EXPECT_EQ(tracker.age(1, 2), 2u);  // survivors keep aging

  tracker.advance();

  relay::EpochDelta rejoin;
  rejoin.joins = {3};
  rejoin.added = {{2, 3}, {3, 4}};
  tracker.apply(rejoin);
  EXPECT_FALSE(tracker.down()[3]);
  // The rejoined node's edges are newborn even where the endpoints match the
  // pre-leave topology exactly.
  EXPECT_EQ(tracker.age(2, 3), 0u);
  EXPECT_EQ(tracker.age(3, 4), 0u);
  EXPECT_EQ(tracker.age(1, 2), 4u);
  tracker.advance();
  EXPECT_EQ(tracker.age(2, 3), 1u);
}

TEST(EdgeAge, InconsistentDeltaIsRejectedNamingTheEdge) {
  // A delta may only remove live edges and only add edges that are not live.
  const auto expect_rejected = [](const relay::EpochDelta& delta,
                                  const std::string& edge) {
    relay::EdgeAgeTracker tracker(relay::Topology::ring(6));
    try {
      tracker.apply(delta);
      ADD_FAILURE() << "delta touching " << edge << " was accepted";
    } catch (const util::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(edge), std::string::npos)
          << e.what();
    }
  };
  relay::EpochDelta remove_absent;
  remove_absent.removed = {{0, 3}};
  expect_rejected(remove_absent, "0-3");
  relay::EpochDelta add_live;
  add_live.added = {{2, 1}};
  expect_rejected(add_live, "2-1");

  // A removal followed by its re-addition in one delta is consistent.
  relay::EdgeAgeTracker tracker(relay::Topology::ring(6));
  relay::EpochDelta readd;
  readd.removed = {{0, 1}};
  readd.added = {{1, 0}};
  EXPECT_NO_THROW(tracker.apply(readd));
  EXPECT_EQ(tracker.age(0, 1), 0u);
}

TEST(EdgeAge, TrackerMatchesHandReplayForEveryReconnectPolicy) {
  const auto topo = relay::Topology::hypercube(4);
  for (const auto reconnect : {relay::ReconnectPolicy::kRandom,
                               relay::ReconnectPolicy::kPreferential,
                               relay::ReconnectPolicy::kRingRepair}) {
    const auto schedule = relay::TopologySchedule::generate(
        topo, churn_policy(0.25, 2, reconnect), 12, 31);
    ASSERT_TRUE(schedule.dynamic());

    // Independent replay: birth epoch per edge, maintained from the raw
    // deltas with the generator's own at_epoch/down_at as the graph oracle.
    std::map<std::pair<NodeId, NodeId>, std::uint64_t> birth;
    const auto norm = [](NodeId a, NodeId b) {
      return std::make_pair(std::min(a, b), std::max(a, b));
    };
    for (NodeId v = 0; v < topo.n(); ++v)
      for (const NodeId w : topo.neighbors(v))
        if (w > v) birth[norm(v, w)] = 0;

    relay::EdgeAgeTracker tracker(schedule.initial());
    const auto& deltas = schedule.deltas();
    for (std::size_t e = 0; e <= deltas.size(); ++e) {
      const auto graph = schedule.at_epoch(e);
      const auto down = schedule.down_at(e);
      ASSERT_EQ(tracker.epoch(), e);
      ASSERT_EQ(tracker.topology().edge_count(), graph.edge_count())
          << "epoch " << e;
      ASSERT_EQ(tracker.down(), down) << "epoch " << e;
      for (NodeId v = 0; v < graph.n(); ++v)
        for (const NodeId w : graph.neighbors(v)) {
          if (w < v) continue;
          const auto it = birth.find(norm(v, w));
          ASSERT_NE(it, birth.end()) << v << "-" << w << " epoch " << e;
          EXPECT_EQ(tracker.age(v, w), e - it->second)
              << v << "-" << w << " epoch " << e;
        }
      if (e < deltas.size()) {
        for (const auto& [a, b] : deltas[e].removed) birth.erase(norm(a, b));
        for (const auto& [a, b] : deltas[e].added) birth[norm(a, b)] = e + 1;
        tracker.apply(deltas[e]);
      }
    }
  }
}

TEST(EdgeAge, ExportedMinAgeMatchesHandReplayedSchedule) {
  // The CSV's edge_age_min is the youngest live measured edge at the last
  // complete round. Recover the exact schedule the runner generated (from
  // the recorded seed) and hand-replay it for all three reconnect policies.
  for (const auto reconnect : {relay::ReconnectPolicy::kRandom,
                               relay::ReconnectPolicy::kPreferential,
                               relay::ReconnectPolicy::kRingRepair}) {
    ScenarioSpec spec;
    spec.world = WorldKind::kRelay;
    spec.protocol = baselines::ProtocolKind::kGradient;
    spec.topology = TopologyKind::kHypercube;
    spec.n = 16;
    spec.churn_rate = 0.1;
    spec.reconnect = reconnect;
    spec.rounds = 10;
    spec.warmup = 2;
    const auto result = run_scenario(spec);
    ASSERT_TRUE(result.error.empty()) << result.error;
    ASSERT_EQ(result.rounds_completed, spec.rounds);
    ASSERT_TRUE(std::isfinite(result.edge_age_min));

    const auto schedule = relay::TopologySchedule::generate(
        relay::Topology::hypercube(4),
        churn_policy(spec.churn_rate, spec.join_batch, reconnect),
        static_cast<std::uint32_t>(spec.rounds + 2),
        result.seed ^ 0x5c4ed7ULL);
    relay::EdgeAgeTracker tracker(schedule.initial());
    const std::size_t last = result.rounds_completed - 1;
    for (std::size_t r = 0; r < last; ++r) {
      if (r < schedule.deltas().size())
        tracker.apply(schedule.deltas()[r]);
      else
        tracker.advance();
    }
    double min_age = std::numeric_limits<double>::infinity();
    const auto& graph = tracker.topology();
    for (NodeId v = 0; v < graph.n(); ++v) {
      if (tracker.down()[v]) continue;
      for (const NodeId w : graph.neighbors(v)) {
        if (w < v || tracker.down()[w]) continue;
        min_age =
            std::min(min_age, static_cast<double>(tracker.age(v, w)));
      }
    }
    EXPECT_EQ(result.edge_age_min, min_age)
        << relay::to_string(reconnect);
  }
}

TEST(KlloGate, GradientPassesWhereJumpMaxFailsAcrossReconnectPolicies) {
  // The conformance contrast: the bounded-rate gradient protocol sits inside
  // the per-edge-age envelope on churned cells; jump-to-max — whose
  // uncompensated estimate can never pull a drifting laggard — accumulates
  // per-round drift until settled edges leave the O(log n) band.
  for (const auto reconnect : {relay::ReconnectPolicy::kRandom,
                               relay::ReconnectPolicy::kPreferential,
                               relay::ReconnectPolicy::kRingRepair}) {
    ScenarioSpec spec;
    spec.world = WorldKind::kRelay;
    spec.topology = TopologyKind::kHypercube;
    spec.n = 16;
    spec.churn_rate = 0.05;
    spec.reconnect = reconnect;
    spec.rounds = 24;
    spec.warmup = 4;

    spec.protocol = baselines::ProtocolKind::kGradient;
    const auto good = run_scenario(spec);
    ASSERT_TRUE(good.error.empty()) << good.error;
    ASSERT_TRUE(good.live);
    ASSERT_TRUE(std::isfinite(good.kllo_ratio));
    EXPECT_LT(good.kllo_ratio, 1.0) << relay::to_string(reconnect);
    EXPECT_EQ(good.kllo_violations, 0u) << relay::to_string(reconnect);

    spec.protocol = baselines::ProtocolKind::kJumpMax;
    const auto bad = run_scenario(spec);
    ASSERT_TRUE(bad.error.empty()) << bad.error;
    ASSERT_TRUE(bad.live);
    ASSERT_TRUE(std::isfinite(bad.kllo_ratio));
    EXPECT_GT(bad.kllo_ratio, 1.0) << relay::to_string(reconnect);
    EXPECT_GT(bad.kllo_violations, 0u) << relay::to_string(reconnect);

    // The --gate-kllo accumulator trips on exactly the jump-max row.
    SweepSummary summary;
    summary.ratio_gates[kKlloGate] = 1.0;
    summary.add(good);
    summary.add(bad);
    EXPECT_EQ(summary.ratio_gate_violations[kKlloGate], 1u)
        << relay::to_string(reconnect);
    // Both cells stay live, so the liveness gate alone would pass both —
    // the envelope gate is what separates them.
    EXPECT_FALSE(violates_gate(bad, 1e9));
  }
}

/// The headline acceptance grid: gradient vs jump-to-max on a seeded n = 256
/// churned hypercube (abstract crypto for speed), long enough past the
/// stabilization window for the drift contrast to bind.
std::vector<ScenarioSpec> kllo_acceptance_specs() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kGradient,
                    baselines::ProtocolKind::kJumpMax};
  grid.ns = {256};
  grid.fault_loads = {0};
  grid.topologies = {TopologyKind::kHypercube};
  grid.cryptos = {CryptoMode::kAbstract};
  grid.churn_rates = {0.05};
  grid.join_batches = {0};
  grid.reconnects = {relay::ReconnectPolicy::kRandom};
  grid.rounds = 40;
  grid.warmup = 8;
  return grid.expand();
}

TEST(KlloAcceptance, N256GateContrastIsByteStableAcrossEnginePaths) {
  const auto specs = kllo_acceptance_specs();
  ASSERT_EQ(specs.size(), 2u);
  for (const auto& spec : specs) EXPECT_TRUE(spec.dynamic()) << spec.name();

  // One CSV per engine configuration: the per-edge-age machinery must be
  // invisible to the fast path and to the worker count.
  const auto csv_for = [&](bool fast_path, unsigned threads) {
    RunnerOptions options;
    options.fast_path = fast_path;
    options.threads = threads;
    std::ostringstream os;
    os << csv_header() << '\n';
    run_sweep_streamed(specs, options, [&](const ScenarioResult& r) {
      write_csv_row(os, r);
    });
    return os.str();
  };
  const std::string reference = csv_for(true, 1);
  EXPECT_EQ(reference, csv_for(true, 4));
  EXPECT_EQ(reference, csv_for(false, 1));

  SweepSummary summary;
  summary.ratio_gates[kKlloGate] = 1.0;
  std::optional<ScenarioResult> gradient;
  std::optional<ScenarioResult> jump_max;
  run_sweep_streamed(specs, {}, [&](const ScenarioResult& r) {
    summary.add(r);
    if (r.spec.protocol == baselines::ProtocolKind::kGradient) gradient = r;
    if (r.spec.protocol == baselines::ProtocolKind::kJumpMax) jump_max = r;
  });
  ASSERT_TRUE(gradient && jump_max);
  ASSERT_TRUE(gradient->live && jump_max->live);
  EXPECT_LT(gradient->kllo_ratio, 1.0);
  EXPECT_EQ(gradient->kllo_violations, 0u);
  EXPECT_GT(jump_max->kllo_ratio, 1.0);
  EXPECT_GT(jump_max->kllo_violations, 0u);
  EXPECT_EQ(summary.ratio_gate_violations[kKlloGate], 1u);
  // Churn keeps rewiring, so the last round's youngest measured edge is
  // fresh — the fresh-edge allowance is load-bearing, not hypothetical.
  EXPECT_TRUE(std::isfinite(gradient->edge_age_min));
}

TEST(KlloAcceptance, N256CampaignResumeAndHistoryRoundTrip) {
  const auto specs = kllo_acceptance_specs();
  const std::string dir = ::testing::TempDir();
  const std::string clean_csv = dir + "/kllo_clean.csv";
  const std::string clean_manifest = dir + "/kllo_clean.manifest";
  const std::string csv = dir + "/kllo_killed.csv";
  const std::string manifest = dir + "/kllo_killed.manifest";
  for (const auto& p : {clean_csv, clean_manifest, csv, manifest})
    std::filesystem::remove(p);
  const auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  };

  SweepSummary fresh;
  fresh.ratio_gates[kKlloGate] = 1.0;
  {
    CsvCampaign campaign({clean_csv, clean_manifest, 1, 1}, specs);
    run_sweep_streamed(specs, {}, [&](const ScenarioResult& r) {
      campaign.append(r);
      fresh.add(r);
    });
    campaign.finish();
  }

  // Kill after the first row; the resumed campaign replays it from the CSV
  // and must feed the kllo gate and history stats identically.
  {
    CsvCampaign campaign({csv, manifest, 1, 1}, specs);
    campaign.append(run_scenario(specs[0]));
  }
  SweepSummary resumed_summary;
  resumed_summary.ratio_gates[kKlloGate] = 1.0;
  CsvCampaign resumed({csv, manifest, 1, 1}, specs,
                      [&](const ScenarioResult& r) {
                        EXPECT_TRUE(std::isfinite(r.kllo_ratio));
                        EXPECT_TRUE(std::isfinite(r.edge_age_min));
                        resumed_summary.add(r);
                      });
  ASSERT_EQ(resumed.resume_index(), 1u);
  const std::vector<ScenarioSpec> todo(specs.begin() + 1, specs.end());
  run_sweep_streamed(todo, {}, [&](const ScenarioResult& r) {
    resumed.append(r);
    resumed_summary.add(r);
  });
  resumed.finish();
  EXPECT_EQ(slurp(csv), slurp(clean_csv));
  EXPECT_EQ(resumed_summary.ratio_gate_violations[kKlloGate],
            fresh.ratio_gate_violations[kKlloGate]);

  // History: the k-tokens survive format → parse, and the resumed summary
  // produces the byte-identical line.
  const auto entry = make_history_entry(fresh, 1, 77);
  const auto resumed_entry = make_history_entry(resumed_summary, 1, 77);
  const auto line = format_history_line(entry);
  EXPECT_EQ(line, format_history_line(resumed_entry));
  EXPECT_NE(line.find("kmax="), std::string::npos) << line;
  const auto parsed = parse_history_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  ASSERT_EQ(parsed->worlds.size(), 1u);
  EXPECT_EQ(parsed->worlds[0].series[2].count, 2u);
  EXPECT_GT(parsed->worlds[0].series[2].max, 1.0);  // the jump-max cell

  // Trend gating: a kllo regression over this baseline fails by name.
  auto regressed = *parsed;
  regressed.worlds[0].series[2].max *= 2.0;
  const auto failures = check_trend(*parsed, regressed, 5.0);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("kllo_ratio"), std::string::npos) << failures[0];
  EXPECT_TRUE(check_trend(*parsed, *parsed, 0.0).empty());

  for (const auto& p : {clean_csv, clean_manifest, csv, manifest})
    std::filesystem::remove(p);
}

/// FNV-1a over the raw bytes of one value, fixed across platforms.
template <typename T>
std::uint64_t fold_bytes(std::uint64_t h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Dynamic, EdgeMetricColumnsPinned) {
  // The four columns the edge-metric walk writes, pinned bit for bit over
  // probe and gradient cells on a churned hypercube (rewires, leaves, both
  // reconnect policies, one static cell) and over search cells whose kept
  // candidate is one of several graded attack schedules.
  SweepGrid churned;
  churned.worlds = {WorldKind::kRelay};
  churned.protocols = {baselines::ProtocolKind::kFloodProbe,
                       baselines::ProtocolKind::kGradient};
  churned.ns = {32};
  churned.fault_loads = {0};
  churned.topologies = {TopologyKind::kHypercube};
  churned.cryptos = {CryptoMode::kAbstract};
  churned.delays = {sim::DelayKind::kSplit};
  churned.churn_rates = {0.0, 0.1};
  churned.join_batches = {0, 2};
  churned.reconnects = {relay::ReconnectPolicy::kRandom,
                        relay::ReconnectPolicy::kRingRepair};
  churned.rounds = 10;
  churned.warmup = 2;

  SweepGrid search;
  search.worlds = {WorldKind::kRelay};
  search.protocols = {baselines::ProtocolKind::kSrikanthToueg};
  search.ns = {16};
  search.fault_loads = {SweepGrid::kMaxResilience};
  search.topologies = {TopologyKind::kChordalRing, TopologyKind::kHypercube};
  search.cryptos = {CryptoMode::kAbstract};
  search.relay_faults = {relay::RelayFaultKind::kSearch};
  search.search_budgets = {4};
  search.delays = {sim::DelayKind::kMax};
  search.us = {0.01};
  search.varthetas = {1.001};
  search.churn_rates = {0.0, 0.1};
  search.rounds = 8;
  search.warmup = 2;

  auto specs = churned.expand();
  const auto search_specs = search.expand();
  specs.insert(specs.end(), search_specs.begin(), search_specs.end());

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t measured = 0;
  std::size_t searched = 0;
  std::size_t churned_cells = 0;
  for (const auto& spec : specs) {
    const auto r = run_scenario(spec);
    ASSERT_TRUE(r.error.empty()) << spec.name() << ": " << r.error;
    digest = fold_bytes(digest, r.local_skew);
    digest = fold_bytes(digest, r.kllo_ratio);
    digest = fold_bytes(digest, static_cast<std::uint64_t>(r.kllo_violations));
    digest = fold_bytes(digest, r.edge_age_min);
    if (r.rounds_completed > 0) ++measured;
    if (r.attack_iters > 1) ++searched;
    if (spec.dynamic()) ++churned_cells;
  }
  EXPECT_EQ(specs.size(), 18u);
  EXPECT_EQ(measured, 18u);
  EXPECT_GT(searched, 0u);
  EXPECT_GT(churned_cells, 0u);
  EXPECT_EQ(digest, 0x35e4fdf09606f3dfULL);
}

TEST(History, GradientTokensAreOptionalAndRoundTrip) {
  HistoryEntry entry;
  entry.seed = 3;
  entry.cells = 12;
  HistoryEntry::WorldRatio relay_ratio;
  relay_ratio.world = WorldKind::kRelay;
  relay_ratio.series[0] = {0.75, 0.5, 12};
  entry.worlds.push_back(relay_ratio);

  // Without dynamic cells the line is byte-compatible with the pre-dynamic
  // format: no l* tokens at all.
  const auto static_line = format_history_line(entry);
  EXPECT_EQ(static_line.find("lmax"), std::string::npos) << static_line;
  EXPECT_EQ(static_line.find("kmax"), std::string::npos) << static_line;
  const auto static_parsed = parse_history_line(static_line);
  ASSERT_TRUE(static_parsed.has_value());
  EXPECT_EQ(static_parsed->worlds[0].series[1].count, 0u);
  EXPECT_EQ(static_parsed->worlds[0].series[2].count, 0u);

  entry.worlds[0].series[1].max = 0.9;
  entry.worlds[0].series[1].mean = 0.6;
  entry.worlds[0].series[1].count = 4;
  const auto line = format_history_line(entry);
  const auto parsed = parse_history_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->worlds[0].series[1].max, 0.9);
  EXPECT_EQ(parsed->worlds[0].series[1].mean, 0.6);
  EXPECT_EQ(parsed->worlds[0].series[1].count, 4u);

  // Trend gate: a local-skew regression fails even when the global max held.
  HistoryEntry regressed = entry;
  regressed.worlds[0].series[1].max = 1.2;
  const auto failures = check_trend(entry, regressed, 5.0);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("local_skew_ratio"), std::string::npos)
      << failures[0];
  // A baseline without dynamic cells says nothing about local skew.
  HistoryEntry no_local_baseline = entry;
  no_local_baseline.worlds[0].series[1].count = 0;
  EXPECT_TRUE(check_trend(no_local_baseline, regressed, 5.0).empty());
}

}  // namespace
}  // namespace crusader::runner
