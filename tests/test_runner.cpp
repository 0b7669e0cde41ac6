#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/export.hpp"
#include "runner/scenario.hpp"
#include "util/rng.hpp"
#include "util/spelling.hpp"

namespace crusader::runner {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.protocols = {baselines::ProtocolKind::kCps,
                    baselines::ProtocolKind::kSrikanthToueg};
  grid.ns = {4, 5};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.delays = {sim::DelayKind::kRandom};
  grid.strategies = {core::ByzStrategy::kCrash};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid;
}

TEST(Scenario, GridExpansionCountAndOrder) {
  const auto specs = small_grid().expand();
  // 2 protocols × 2 n × 2 fault loads × 1 vartheta × 1 u × 1 delay; the
  // strategy axis collapses for fault-free points and has one entry anyway.
  ASSERT_EQ(specs.size(), 8u);
  // Outermost axis is the protocol: first half CPS, second half ST.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(specs[i].protocol, baselines::ProtocolKind::kCps);
  for (std::size_t i = 4; i < 8; ++i)
    EXPECT_EQ(specs[i].protocol, baselines::ProtocolKind::kSrikanthToueg);
  // kMaxResilience resolves to the protocol-appropriate bound.
  EXPECT_EQ(specs[1].f, sim::ModelParams::max_faults_signed(4));
  EXPECT_EQ(specs[1].f, specs[1].f_actual);
}

TEST(Scenario, FaultFreePointsIgnoreStrategyAxis) {
  auto grid = small_grid();
  grid.strategies = {core::ByzStrategy::kCrash, core::ByzStrategy::kSplit,
                     core::ByzStrategy::kReplay};
  const auto specs = grid.expand();
  // Fault-free points contribute 1 spec each; faulty points 3 each.
  EXPECT_EQ(specs.size(), 2u * 2u * (1u + 3u));
}

TEST(Scenario, CollapsedFaultLoadsDedupe) {
  // LW at n = 3 has max resilience 0, so {0, max} collapses to one spec —
  // not two identical worlds with identical keys and seeds.
  SweepGrid grid;
  grid.protocols = {baselines::ProtocolKind::kLynchWelch};
  grid.ns = {3};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  EXPECT_EQ(grid.expand().size(), 1u);
}

TEST(Scenario, MaxResiliencePerProtocol) {
  EXPECT_EQ(max_resilience(baselines::ProtocolKind::kCps, 7), 3u);
  EXPECT_EQ(max_resilience(baselines::ProtocolKind::kSrikanthToueg, 7), 3u);
  EXPECT_EQ(max_resilience(baselines::ProtocolKind::kLynchWelch, 7), 2u);
}

TEST(Scenario, KeyIsStableAndAxisSensitive) {
  ScenarioSpec a;
  ScenarioSpec b;
  EXPECT_EQ(a.key(), b.key());
  b.n = a.n + 1;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.vartheta += 1e-9;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.delay = sim::DelayKind::kSplit;
  EXPECT_NE(a.key(), b.key());
}

TEST(Scenario, KeysDistinctAcrossGrid) {
  auto grid = small_grid();
  grid.varthetas = {1.005, 1.01};
  grid.us = {0.02, 0.05};
  const auto specs = grid.expand();
  std::set<std::uint64_t> keys;
  for (const auto& spec : specs) keys.insert(spec.key());
  EXPECT_EQ(keys.size(), specs.size());
}

TEST(Runner, SeedDerivationIsPositionIndependent) {
  const auto specs = small_grid().expand();
  // The seed depends on (base_seed, spec) only — not on grid position.
  for (const auto& spec : specs)
    EXPECT_EQ(scenario_seed(spec, 99), scenario_seed(spec, 99));
  EXPECT_NE(scenario_seed(specs[0], 99), scenario_seed(specs[0], 100));
  EXPECT_NE(scenario_seed(specs[0], 99), scenario_seed(specs[1], 99));
}

TEST(Runner, InfeasibleScenarioIsReportedNotRun) {
  ScenarioSpec spec;
  spec.vartheta = 2.0;  // far beyond Corollary 4's drift ceiling for CPS
  spec.u_tilde = spec.u;
  const auto result = run_scenario(spec);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.rounds_completed, 0u);
  // Metric contract: all doubles (incl. the bound) are NaN for such rows.
  EXPECT_TRUE(std::isnan(result.predicted_skew));
  EXPECT_TRUE(std::isnan(result.max_skew));
}

TEST(Runner, InvalidModelBecomesErrorNotCrash) {
  ScenarioSpec spec;
  spec.n = 4;
  spec.f = 4;  // f must be < n
  spec.f_actual = 4;
  const auto result = run_scenario(spec);
  EXPECT_FALSE(result.error.empty());
}

TEST(Runner, FaultFreeCpsWithinTheoremBound) {
  ScenarioSpec spec;
  spec.protocol = baselines::ProtocolKind::kCps;
  spec.n = 4;
  spec.f = 0;
  spec.f_actual = 0;
  spec.rounds = 8;
  spec.warmup = 2;
  const auto result = run_scenario(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.live);
  EXPECT_EQ(result.rounds_completed, spec.rounds);
  EXPECT_TRUE(result.within_bound)
      << "skew " << result.max_skew << " > bound " << result.predicted_skew;
  EXPECT_EQ(result.violations, 0u);
  EXPECT_GT(result.messages, 0u);
}

// The acceptance-criterion test: same specs + same seed must produce a
// byte-identical CSV no matter how many worker threads execute the sweep.
TEST(Runner, SweepCsvIdenticalAcrossThreadCounts) {
  const auto specs = small_grid().expand();

  RunnerOptions serial;
  serial.base_seed = 7;
  serial.threads = 1;
  const auto report1 = run_sweep(specs, serial);

  RunnerOptions parallel = serial;
  parallel.threads = 4;
  const auto report4 = run_sweep(specs, parallel);

  const std::string csv1 = to_csv(report1);
  const std::string csv4 = to_csv(report4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);

  // And it really ran: every scenario feasible here completes its rounds.
  for (const auto& r : report1.results) {
    EXPECT_TRUE(r.error.empty()) << r.spec.name() << ": " << r.error;
    if (r.feasible) {
      EXPECT_TRUE(r.live) << r.spec.name();
    }
  }
}

TEST(Runner, ByProtocolSummaryCounts) {
  const auto specs = small_grid().expand();
  const auto report = run_sweep(specs, {});
  const auto summaries = report.by_protocol();
  ASSERT_EQ(summaries.size(), 2u);
  std::size_t total = 0;
  for (const auto& s : summaries) total += s.scenarios;
  EXPECT_EQ(total, specs.size());
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(Export, CsvHasHeaderAndOneRowPerScenario) {
  const auto specs = small_grid().expand();
  const auto report = run_sweep(specs, {});
  const std::string csv = to_csv(report);
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, specs.size() + 1);
  EXPECT_EQ(csv.rfind("scenario,protocol,world,topology,n,f,", 0), 0u);
}

TEST(Scenario, KeyForksDistinctSeedsForNewAxes) {
  // Two specs differing ONLY in a new axis must digest — and therefore
  // seed — differently, or inserting a world/topology/ũ axis would silently
  // reuse another scenario's randomness.
  ScenarioSpec base;
  ScenarioSpec other = base;
  other.world = WorldKind::kRelay;
  EXPECT_NE(base.key(), other.key());
  EXPECT_NE(scenario_seed(base, 1), scenario_seed(other, 1));

  ScenarioSpec ring = base;
  ring.world = WorldKind::kRelay;
  ScenarioSpec cube = ring;
  cube.topology = TopologyKind::kHypercube;
  EXPECT_NE(ring.key(), cube.key());
  EXPECT_NE(scenario_seed(ring, 1), scenario_seed(cube, 1));

  ScenarioSpec ut = base;
  ut.u_tilde = base.u_tilde + 0.1;
  EXPECT_NE(base.key(), ut.key());
  EXPECT_NE(scenario_seed(base, 1), scenario_seed(ut, 1));

  ScenarioSpec clocks = base;
  clocks.clocks = sim::ClockKind::kRandomWalk;
  EXPECT_NE(base.key(), clocks.key());
}

TEST(Scenario, UtildeIsAFirstClassGridAxis) {
  auto grid = small_grid();
  grid.fault_loads = {0};
  grid.u_tildes = {0.1, 0.2};
  const auto specs = grid.expand();
  // 2 protocols × 2 n × 1 fault × 2 ũ.
  ASSERT_EQ(specs.size(), 8u);
  std::set<double> uts;
  for (const auto& spec : specs) {
    EXPECT_GE(spec.u_tilde, spec.u);  // clamped into the model's [u, d]
    uts.insert(spec.u_tilde);
  }
  EXPECT_EQ(uts.size(), 2u);

  // An ũ below every u in the grid clamps onto u — and the clamped
  // duplicate of the tracking default dedupes against itself, not others.
  grid.u_tildes = {1e-6, 0.2};
  const auto clamped = grid.expand();
  for (const auto& spec : clamped) EXPECT_GE(spec.u_tilde, spec.u);
}

/// A random ordered subset of `items`: empty one draw in 30, otherwise 1 to
/// `max_size` distinct values in random order (so reversed orders occur).
template <typename T>
std::vector<T> draw_subset(util::Rng& rng, std::initializer_list<T> items,
                           std::size_t max_size) {
  if (rng.below(30) == 0) return {};
  std::vector<T> pool(items);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.below(i)]);
  pool.resize(1 + rng.below(std::min(max_size, pool.size())));
  return pool;
}

/// A grid touching every axis: random subsets (empty ones included) in
/// random order, custom delays, search budget 0, ũ outside [u, d], a churn
/// rate of -0 (which the CLI accepts), and d ≠ 1, also below u.
SweepGrid draw_grid(util::Rng& rng) {
  using baselines::ProtocolKind;
  SweepGrid g;
  g.worlds = draw_subset(rng, {WorldKind::kComplete, WorldKind::kRelay,
                               WorldKind::kTheorem5}, 2);
  g.protocols = draw_subset(
      rng, {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
            ProtocolKind::kSrikanthToueg, ProtocolKind::kFloodProbe,
            ProtocolKind::kGradient, ProtocolKind::kJumpMax}, 2);
  g.ns = draw_subset<std::uint32_t>(rng, {3, 4, 7, 8, 12, 16}, 2);
  g.fault_loads = draw_subset<std::int64_t>(
      rng, {0, 1, 2, 3, SweepGrid::kMaxResilience}, 3);
  g.varthetas = draw_subset(rng, {1.001, 1.01, 1.05}, 2);
  g.us = draw_subset(rng, {0.01, 0.05, 0.2}, 2);
  g.u_tildes = rng.below(2) == 0
                   ? std::vector<double>{}
                   : draw_subset(rng, {0.005, 0.1, 0.3, 1.5, -1.0}, 2);
  g.delays = draw_subset(rng, {sim::DelayKind::kMax, sim::DelayKind::kMin,
                               sim::DelayKind::kRandom,
                               sim::DelayKind::kSplit}, 2);
  CustomDelaySpec fixed;
  fixed.fraction = 0.25;
  CustomDelaySpec alternate;
  alternate.kind = CustomDelaySpec::Kind::kAlternate;
  CustomDelaySpec target;
  target.kind = CustomDelaySpec::Kind::kTarget;
  target.target = 2;
  g.custom_delays = rng.below(3) == 0
                        ? draw_subset(rng, {fixed, alternate, target}, 2)
                        : std::vector<CustomDelaySpec>{};
  g.clock_kinds = draw_subset(rng, {sim::ClockKind::kNominal,
                                    sim::ClockKind::kSpread,
                                    sim::ClockKind::kRandomWalk}, 2);
  g.topologies = draw_subset(
      rng, {TopologyKind::kComplete, TopologyKind::kRing,
            TopologyKind::kChordalRing, TopologyKind::kRingOfCliques,
            TopologyKind::kHypercube, TopologyKind::kRandomConnected}, 2);
  g.strategies = draw_subset(
      rng, {core::ByzStrategy::kCrash, core::ByzStrategy::kSplit,
            core::ByzStrategy::kReplay, core::ByzStrategy::kGreedySkew}, 2);
  g.relay_faults = draw_subset(
      rng, {relay::RelayFaultKind::kCrash, relay::RelayFaultKind::kReorder,
            relay::RelayFaultKind::kGreedySkew,
            relay::RelayFaultKind::kSearch}, 2);
  g.search_budgets = draw_subset<std::uint32_t>(rng, {0, 1, 8, 32}, 2);
  g.cryptos = draw_subset(rng, {CryptoMode::kReal, CryptoMode::kAbstract}, 2);
  g.churn_rates = draw_subset(rng, {0.0, -0.0, 0.05, 0.25}, 2);
  g.join_batches = draw_subset<std::uint32_t>(rng, {0, 2}, 2);
  g.reconnects = draw_subset(
      rng, {relay::ReconnectPolicy::kRandom,
            relay::ReconnectPolicy::kPreferential,
            relay::ReconnectPolicy::kRingRepair}, 2);
  g.kllo_stabs = draw_subset(rng, {1.0, 0.5, 4.0}, 2);
  g.d = rng.below(4) == 0 ? 0.5 : (rng.below(8) == 0 ? 0.1 : 1.0);
  g.rounds = 10 + rng.below(20);
  g.warmup = rng.below(5);
  g.slack = rng.below(4) == 0 ? 1.5 : 1.0;
  return g;
}

/// FNV-1a, fixed across platforms and standard libraries.
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Expansion is pinned as data: about 500 seeded random grids fold every
// spec's key() and its CSV row, in order, into one digest. Any change to
// which cells a grid yields, their order, fields, or seeds moves it.
TEST(Scenario, ExpansionPinnedOverSeededRandomGrids) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t total = 0;
  std::size_t empty_grids = 0;
  std::ostringstream os;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    util::Rng rng(seed);
    const auto specs = draw_grid(rng).expand();
    if (specs.empty()) ++empty_grids;
    for (const auto& spec : specs) {
      const std::uint64_t key = spec.key();
      digest = fnv1a(digest, std::string_view(
                                 reinterpret_cast<const char*>(&key),
                                 sizeof key));
      ScenarioResult row;
      row.spec = spec;
      os.str("");
      write_csv_row(os, row);
      digest = fnv1a(digest, os.str());
    }
    total += specs.size();
  }
  // Pinned data: change these only with an intended change to expansion.
  EXPECT_EQ(total, 51303u);
  EXPECT_EQ(empty_grids, 154u);
  EXPECT_EQ(digest, 1317719445009385353ULL);
}

TEST(Scenario, Theorem5PinsNEvenWithEmptyNAxis) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kTheorem5};
  grid.protocols = {baselines::ProtocolKind::kCps,
                    baselines::ProtocolKind::kFloodProbe};
  grid.ns = {};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.u_tildes = {0.1, 0.2};
  const auto specs = grid.expand();
  // Probe is skipped; the two fault loads collapse onto f = 1.
  ASSERT_EQ(specs.size(), 2u);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.protocol, baselines::ProtocolKind::kCps);
    EXPECT_EQ(spec.n, 3u);
    EXPECT_EQ(spec.f, 1u);
    EXPECT_EQ(spec.f_actual, 0u);
  }
  EXPECT_EQ(specs[0].u_tilde, 0.1);
  EXPECT_EQ(specs[1].u_tilde, 0.2);
}

TEST(Scenario, EmptyReconnectAxisDropsChurnReadingRelayCells) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete, WorldKind::kRelay};
  grid.ns = {8};
  grid.topologies = {TopologyKind::kHypercube};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.relay_faults = {relay::RelayFaultKind::kCrash,
                       relay::RelayFaultKind::kGreedySkew};
  grid.reconnects = {};
  const auto specs = grid.expand();
  // Complete cells never read the churn axes; of the relay cells only the
  // oblivious faulty one survives (fault-free and adaptive cells read it).
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].world, WorldKind::kComplete);
  EXPECT_EQ(specs[0].f, 0u);
  EXPECT_EQ(specs[1].world, WorldKind::kComplete);
  EXPECT_EQ(specs[1].f, 3u);
  EXPECT_EQ(specs[2].world, WorldKind::kRelay);
  EXPECT_EQ(specs[2].f, 2u);
  EXPECT_EQ(specs[2].relay_fault, relay::RelayFaultKind::kCrash);
}

TEST(Scenario, EmptySearchBudgetAndKlloStabAxesMeanTheDefaults) {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.ns = {8};
  grid.topologies = {TopologyKind::kHypercube};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.relay_faults = {relay::RelayFaultKind::kSearch};
  grid.search_budgets = {};
  grid.kllo_stabs = {};
  grid.churn_rates = {0.0, 0.1};
  const auto specs = grid.expand();
  // Fault-free: static + churned; faulty search: static + churned.
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.search_budget, 8u);
    EXPECT_EQ(spec.kllo_stab, 1.0);
  }
  EXPECT_FALSE(specs[0].dynamic());
  EXPECT_TRUE(specs[1].dynamic());
  EXPECT_EQ(specs[2].relay_fault, relay::RelayFaultKind::kSearch);
  EXPECT_FALSE(specs[2].dynamic());
  EXPECT_TRUE(specs[3].dynamic());
}

// Minimal CSV reader for round-trip checks: honors RFC-4180-style quoting as
// produced by the exporter.
std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  out.push_back(field);
  return out;
}

TEST(Export, CsvRoundTripsForEveryWorldKind) {
  std::vector<ScenarioSpec> specs(3);
  specs[0].world = WorldKind::kComplete;
  specs[1].world = WorldKind::kRelay;
  specs[1].topology = TopologyKind::kRing;
  specs[1].n = 6;
  specs[1].u = 0.02;
  specs[1].u_tilde = 0.02;
  specs[1].vartheta = 1.002;
  specs[2].world = WorldKind::kTheorem5;
  specs[2].n = 3;
  specs[2].f = 1;
  specs[2].u_tilde = 0.2;
  specs[2].vartheta = 1.05;
  specs[2].rounds = 30;
  for (auto& spec : specs) {
    if (spec.rounds == 20) spec.rounds = 5;
    spec.warmup = 1;
  }

  const auto report = run_sweep(specs, {});
  std::istringstream csv(to_csv(report));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  const auto header = parse_csv_line(line);
  const auto column = [&](const std::string& name) {
    for (std::size_t i = 0; i < header.size(); ++i)
      if (header[i] == name) return i;
    ADD_FAILURE() << "missing CSV column " << name;
    return std::size_t{0};
  };
  const std::size_t world_col = column("world");
  const std::size_t topo_col = column("topology");
  const std::size_t ut_col = column("u_tilde");
  const std::size_t bound_col = column("predicted_skew");
  const std::size_t ratio_col = column("skew_ratio");

  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    const auto& spec = specs.at(rows);
    const auto& result = report.results.at(rows);
    SCOPED_TRACE(spec.name());
    ASSERT_TRUE(result.error.empty()) << result.error;
    const auto row = parse_csv_line(line);
    ASSERT_EQ(row.size(), header.size());
    EXPECT_EQ(row[world_col], to_string(spec.world));
    EXPECT_EQ(row[topo_col], spec.world == WorldKind::kRelay
                                 ? to_string(spec.topology)
                                 : "-");
    EXPECT_EQ(std::stod(row[ut_col]), spec.u_tilde);
    // Every world exports its applicable bound and realized/bound ratio.
    EXPECT_EQ(std::stod(row[bound_col]), result.predicted_skew);
    EXPECT_EQ(std::stod(row[ratio_col]), result.skew_ratio);
    ++rows;
  }
  EXPECT_EQ(rows, specs.size());
}

/// Walks one spelling table: every row's text parses to that row's value (so
/// no alias shadows a row of another value), and every enumerator up to
/// `last` has a row and round-trips through its canonical name — except
/// `refused`, whose spellings must not parse.
template <typename E, std::size_t N>
void expect_spellings_round_trip(const util::Spelling<E> (&table)[N], E last,
                                 std::optional<E> (*parse)(std::string_view),
                                 const char* (*name)(E),
                                 std::type_identity_t<std::optional<E>>
                                     refused = std::nullopt) {
  for (const auto& row : table) {
    const auto parsed = parse(row.text);
    if (row.value == refused) {
      EXPECT_FALSE(parsed.has_value()) << row.text;
      continue;
    }
    ASSERT_TRUE(parsed.has_value()) << row.text;
    EXPECT_EQ(*parsed, row.value) << row.text;
  }
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    const auto value = static_cast<E>(i);
    const std::string text = name(value);
    EXPECT_NE(text, "?") << "enumerator " << i << " has no spelling";
    if (value == refused) continue;
    EXPECT_EQ(parse(text), std::optional<E>(value)) << text;
  }
}

TEST(Cli, EveryEnumeratorReachableFromFlags) {
  expect_spellings_round_trip(kWorldSpellings, WorldKind::kTheorem5,
                              parse_world, to_string);
  expect_spellings_round_trip(kTopologySpellings,
                              TopologyKind::kRandomConnected, parse_topology,
                              to_string);
  expect_spellings_round_trip(kCryptoSpellings, CryptoMode::kAbstract,
                              parse_crypto_mode, to_string);
  expect_spellings_round_trip(baselines::kProtocolSpellings,
                              baselines::ProtocolKind::kJumpMax,
                              parse_protocol, baselines::to_string);
  expect_spellings_round_trip(sim::kDelayKindSpellings, sim::DelayKind::kSplit,
                              parse_delay_kind, sim::to_string);
  // kCustom needs a caller-built clock vector no flag can express: it keeps
  // its printed name but never parses.
  expect_spellings_round_trip(sim::kClockKindSpellings, sim::ClockKind::kCustom,
                              parse_clock_kind, sim::to_string,
                              sim::ClockKind::kCustom);
  expect_spellings_round_trip(core::kByzStrategySpellings,
                              core::ByzStrategy::kGreedySkew,
                              parse_byz_strategy, core::to_string);
  expect_spellings_round_trip(relay::kRelayFaultSpellings,
                              relay::RelayFaultKind::kSearch,
                              parse_relay_fault, relay::to_string);
  expect_spellings_round_trip(relay::kReconnectSpellings,
                              relay::ReconnectPolicy::kRingRepair,
                              parse_reconnect, relay::to_string);
  // The byz strategy registry and the enum agree on the last enumerator.
  EXPECT_EQ(core::all_byz_strategies().back(), core::ByzStrategy::kGreedySkew);
}

/// The message set_axis throws for `flag`=`list`, or "" when it accepts it.
std::string axis_error(SweepGrid& grid, std::string_view flag,
                       std::string_view list) {
  try {
    EXPECT_TRUE(grid.set_axis(flag, list)) << flag;
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, SetAxisReadsEveryAxisFlagAndNoOther) {
  SweepGrid grid;
  EXPECT_FALSE(grid.set_axis("gate", "1.0"));
  EXPECT_FALSE(grid.set_axis("rounds", "4"));
  EXPECT_FALSE(grid.set_axis("protocol", "cps"));  // the flag is --protocols

  EXPECT_EQ(axis_error(grid, "protocols", "Lynch-Welch,st"), "");
  EXPECT_EQ(grid.protocols,
            (std::vector<baselines::ProtocolKind>{
                baselines::ProtocolKind::kLynchWelch,
                baselines::ProtocolKind::kSrikanthToueg}));
  EXPECT_EQ(axis_error(grid, "faults", "max,,2,"), "");  // empty items drop
  EXPECT_EQ(grid.fault_loads,
            (std::vector<std::int64_t>{SweepGrid::kMaxResilience, 2}));
  EXPECT_EQ(axis_error(grid, "delay", "max,custom:alternate"), "");
  EXPECT_EQ(grid.delays, std::vector<sim::DelayKind>{sim::DelayKind::kMax});
  ASSERT_EQ(grid.custom_delays.size(), 1u);
  EXPECT_EQ(grid.custom_delays[0].kind, CustomDelaySpec::Kind::kAlternate);
  EXPECT_EQ(axis_error(grid, "kllo_stab", "2.5"), "");
  EXPECT_EQ(grid.kllo_stabs, std::vector<double>{2.5});

  // Parse errors echo the flag as typed; range and empty-list errors name
  // its dash spelling.
  EXPECT_EQ(axis_error(grid, "join_batch", "x"),
            "bad numeric value for --join_batch: 'x'");
  EXPECT_EQ(axis_error(grid, "churn_rate", "2"),
            "--churn-rate takes rates in [0,1], got '2'");
  EXPECT_EQ(axis_error(grid, "vartheta", "1.01,1"),
            "--vartheta takes drift bounds > 1, got '1'");
  EXPECT_EQ(axis_error(grid, "u", "-0.5"),
            "--u takes uncertainties >= 0, got '-0.5'");
  EXPECT_EQ(axis_error(grid, "u", "0"), "");  // u = 0 is in the model
  // ũ keeps its documented clamp into [u, d]: no value is out of range.
  EXPECT_EQ(axis_error(grid, "u_tilde", "-1,5"), "");
  EXPECT_EQ(axis_error(grid, "world", "mars"), "unknown world 'mars'");
  EXPECT_EQ(axis_error(grid, "clocks", "custom"),
            "unknown clock kind 'custom'");
  EXPECT_EQ(axis_error(grid, "delay", ""), "--delays needs at least one value");
  EXPECT_EQ(axis_error(grid, "search_budget", ","),
            "--search-budget needs at least one value");
  for (const char* flag :
       {"world", "protocols", "n", "topology", "faults", "vartheta", "u",
        "clocks", "crypto", "byz", "relay-fault", "reconnect"})
    EXPECT_EQ(axis_error(grid, flag, ""),
              std::string("--") + flag + " needs at least one value");
  // ũ alone gives the empty list a meaning: track u.
  EXPECT_EQ(axis_error(grid, "u-tilde", ""), "");
  EXPECT_TRUE(grid.u_tildes.empty());
}

TEST(Scenario, StAcceleratorCellsFollowEveryOtherCell) {
  SweepGrid grid = small_grid();
  const auto plain = grid.expand();
  ASSERT_TRUE(grid.set_axis("byz", "split,st-accel"));
  EXPECT_TRUE(grid.st_accelerator);
  EXPECT_EQ(grid.strategies,
            std::vector<core::ByzStrategy>{core::ByzStrategy::kSplit});
  const auto specs = grid.expand();
  // The split cells first, in expansion order; then one accelerator copy of
  // each faulty ST cell among them, in the same order.
  SweepGrid split = small_grid();
  split.strategies = {core::ByzStrategy::kSplit};
  const auto base = split.expand();
  ASSERT_EQ(plain.size(), base.size());
  ASSERT_GT(specs.size(), base.size());
  std::size_t extra = base.size();
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(specs[i].key(), base[i].key());
    if (base[i].protocol != baselines::ProtocolKind::kSrikanthToueg ||
        base[i].f_actual == 0)
      continue;
    ASSERT_LT(extra, specs.size());
    auto attack = base[i];
    attack.st_accelerator = true;
    EXPECT_EQ(specs[extra++].key(), attack.key());
  }
  EXPECT_EQ(extra, specs.size());

  // "st-accel" alone keeps the crash strategy; a later --byz resets it.
  ASSERT_TRUE(grid.set_axis("byz", "st-accel"));
  EXPECT_EQ(grid.strategies,
            std::vector<core::ByzStrategy>{core::ByzStrategy::kCrash});
  ASSERT_TRUE(grid.set_axis("byz", "crash"));
  EXPECT_FALSE(grid.st_accelerator);
}

TEST(Cli, ParsersRejectUnknownSpellings) {
  EXPECT_FALSE(parse_world("mesh").has_value());
  EXPECT_FALSE(parse_topology("torus").has_value());
  EXPECT_FALSE(parse_topology("chordal_ring").has_value());  // dash, not _
  EXPECT_FALSE(parse_relay_fault("equivocate").has_value());
  EXPECT_FALSE(parse_relay_fault("maxdelay").has_value());
  EXPECT_FALSE(parse_relay_fault("").has_value());
  EXPECT_FALSE(parse_delay_kind("uniform").has_value());
  EXPECT_FALSE(parse_byz_strategy("st-accel").has_value());  // flag, not enum
  EXPECT_FALSE(parse_crypto_mode("symbolic").has_value());  // Pki kind, not mode
  EXPECT_FALSE(parse_crypto_mode("fast").has_value());
}

TEST(Cli, CustomDelaySpellingsRoundTrip) {
  // Every accepted spelling parses, and the parsed spec prints itself back.
  const auto fixed = parse_custom_delay("custom:fixed:0.25");
  ASSERT_TRUE(fixed.has_value());
  EXPECT_EQ(fixed->kind, CustomDelaySpec::Kind::kFixed);
  EXPECT_EQ(fixed->fraction, 0.25);
  EXPECT_EQ(fixed->spelling(), "custom:fixed:0.25");
  ASSERT_TRUE(parse_custom_delay(fixed->spelling()).has_value());

  const auto alternate = parse_custom_delay("custom:alternate");
  ASSERT_TRUE(alternate.has_value());
  EXPECT_EQ(alternate->kind, CustomDelaySpec::Kind::kAlternate);
  EXPECT_EQ(alternate->spelling(), "custom:alternate");

  const auto target = parse_custom_delay("custom:target:3");
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->kind, CustomDelaySpec::Kind::kTarget);
  EXPECT_EQ(target->target, 3u);
  EXPECT_EQ(target->spelling(), "custom:target:3");

  // The factory builds a live policy honoring the spec.
  util::Rng rng(1);
  sim::Message m{};
  auto policy = fixed->factory()();
  EXPECT_DOUBLE_EQ(policy->delay(0, 1, 0.0, m, 1.0, 2.0, rng), 1.25);
  auto targeted = target->factory()();
  EXPECT_DOUBLE_EQ(targeted->delay(0, 3, 0.0, m, 1.0, 2.0, rng), 2.0);
  EXPECT_DOUBLE_EQ(targeted->delay(0, 1, 0.0, m, 1.0, 2.0, rng), 1.0);
}

TEST(Cli, CustomDelayRejectsMalformedSpellings) {
  EXPECT_FALSE(parse_custom_delay("fixed:0.25").has_value());  // no custom:
  EXPECT_FALSE(parse_custom_delay("custom:").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:fixed").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:fixed:").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:fixed:abc").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:fixed:0.5x").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:fixed:1.5").has_value());   // > 1
  EXPECT_FALSE(parse_custom_delay("custom:fixed:-0.1").has_value());  // < 0
  EXPECT_FALSE(parse_custom_delay("custom:alternate:1").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:target").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:target:").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:target:-1").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:target:x").has_value());
  EXPECT_FALSE(parse_custom_delay("custom:jitter").has_value());
}

TEST(Cli, StrictNumericParsers) {
  // The CLI's numeric flags must reject what bare std::stod/std::stoul
  // accept: partial parses, wrapped negatives, inf/nan, and empties.
  EXPECT_EQ(parse_double_strict("1.5"), 1.5);
  EXPECT_EQ(parse_double_strict("-0.5"), -0.5);
  EXPECT_EQ(parse_double_strict("1e-3"), 1e-3);
  EXPECT_FALSE(parse_double_strict("").has_value());
  EXPECT_FALSE(parse_double_strict("abc").has_value());
  EXPECT_FALSE(parse_double_strict("1.5x").has_value());
  EXPECT_FALSE(parse_double_strict("1.5 ").has_value());
  EXPECT_FALSE(parse_double_strict("inf").has_value());
  EXPECT_FALSE(parse_double_strict("nan").has_value());

  EXPECT_EQ(parse_u64_strict("42"), 42u);
  EXPECT_EQ(parse_u64_strict("0"), 0u);
  EXPECT_FALSE(parse_u64_strict("").has_value());
  EXPECT_FALSE(parse_u64_strict("-3").has_value());  // stoul would wrap this
  EXPECT_FALSE(parse_u64_strict("+3").has_value());
  EXPECT_FALSE(parse_u64_strict("3.5").has_value());
  EXPECT_FALSE(parse_u64_strict("12,3").has_value());
  EXPECT_FALSE(parse_u64_strict("99999999999999999999999").has_value());
}

TEST(Scenario, CustomDelayAxisExpandsAndForksSeeds) {
  SweepGrid grid = small_grid();
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {4};
  grid.fault_loads = {0};
  grid.delays = {sim::DelayKind::kRandom};
  grid.custom_delays = {
      *parse_custom_delay("custom:fixed:0.25"),
      *parse_custom_delay("custom:alternate"),
  };
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 3u);  // random + 2 customs
  EXPECT_FALSE(specs[0].custom_delay.has_value());
  ASSERT_TRUE(specs[1].custom_delay.has_value());
  EXPECT_EQ(specs[1].custom_delay->kind, CustomDelaySpec::Kind::kFixed);
  ASSERT_TRUE(specs[2].custom_delay.has_value());
  EXPECT_EQ(specs[2].custom_delay->kind, CustomDelaySpec::Kind::kAlternate);

  // Digests (hence seeds) fork on the custom axis, including its params.
  std::set<std::uint64_t> keys;
  for (const auto& spec : specs) keys.insert(spec.key());
  EXPECT_EQ(keys.size(), specs.size());
  ScenarioSpec half = specs[1];
  half.custom_delay->fraction = 0.5;
  EXPECT_NE(half.key(), specs[1].key());

  // The spec names (CSV keys) carry the spelling, and so does the CSV's
  // delay column — the placeholder DelayKind underneath must never leak
  // and misattribute the adversary.
  EXPECT_NE(specs[1].name().find("delay=custom:fixed:0.25"),
            std::string::npos);
  {
    SweepReport report;
    report.results.emplace_back();
    report.results.back().spec = specs[1];
    const std::string csv = to_csv(report);
    EXPECT_NE(csv.find("custom:fixed:0.25"), std::string::npos);
    EXPECT_EQ(csv.find(",random,"), std::string::npos);
  }

  // And the scenarios actually run under the custom policy.
  const auto result = run_scenario(specs[1]);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.within_bound);
}

TEST(Scenario, RelayFaultAndNewTopologiesForkDistinctSeeds) {
  ScenarioSpec base;
  base.world = WorldKind::kRelay;
  base.topology = TopologyKind::kChordalRing;
  base.f = 1;
  base.f_actual = 1;

  ScenarioSpec delayed = base;
  delayed.relay_fault = relay::RelayFaultKind::kMaxDelay;
  EXPECT_NE(base.key(), delayed.key());
  EXPECT_NE(scenario_seed(base, 1), scenario_seed(delayed, 1));

  ScenarioSpec cliques = base;
  cliques.topology = TopologyKind::kRingOfCliques;
  EXPECT_NE(base.key(), cliques.key());
  EXPECT_NE(scenario_seed(base, 1), scenario_seed(cliques, 1));
}

TEST(Scenario, MaxTopologyFaultsForNewFamilies) {
  EXPECT_EQ(max_topology_faults(TopologyKind::kChordalRing, 8), 3u);
  EXPECT_EQ(max_topology_faults(TopologyKind::kChordalRing, 4), 2u);
  // n = 3 degenerates to the triangle K3: buildable and survives 1 fault.
  EXPECT_EQ(max_topology_faults(TopologyKind::kChordalRing, 3), 1u);
  EXPECT_EQ(max_topology_faults(TopologyKind::kRingOfCliques, 8), 3u);
  EXPECT_EQ(max_topology_faults(TopologyKind::kRingOfCliques, 12), 3u);
  // Shapes the factory rejects resolve to zero survivable faults.
  EXPECT_EQ(max_topology_faults(TopologyKind::kRingOfCliques, 10), 0u);
  EXPECT_EQ(max_topology_faults(TopologyKind::kRingOfCliques, 4), 0u);
}

TEST(Export, JsonWellFormedEnough) {
  ScenarioSpec spec;  // default CPS fault-free
  spec.rounds = 4;
  spec.warmup = 1;
  SweepReport report;
  report.results.push_back(run_scenario(spec));
  std::ostringstream os;
  write_json(os, report);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"protocol\": \"CPS\""), std::string::npos);
  EXPECT_NE(json.find("\"within_bound\": 1"), std::string::npos);
}

}  // namespace
}  // namespace crusader::runner
