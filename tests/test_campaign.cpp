// Streamed, resumable sweep campaigns: ordered streaming sink, CSV +
// manifest reconciliation after a kill, timed_out row round-trips, the relay
// analysis memo cache, and the skew_ratio history / trend gate.

#include "runner/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "relay/flood_world.hpp"
#include "relay/topology.hpp"
#include "runner/export.hpp"
#include "runner/history.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"

namespace crusader::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Small mixed-world grid (complete + relay) — quick, but exercises both
/// result shapes through the campaign files.
std::vector<ScenarioSpec> campaign_specs() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete, WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kCps,
                    baselines::ProtocolKind::kSrikanthToueg};
  grid.ns = {4, 6};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.topologies = {TopologyKind::kRing};
  grid.us = {0.02};
  grid.varthetas = {1.002};
  grid.rounds = 4;
  grid.warmup = 1;
  return grid.expand();
}

struct Paths {
  std::string csv;
  std::string manifest;
};

Paths temp_paths(const std::string& stem) {
  const std::string dir = ::testing::TempDir();
  return {dir + "/" + stem + ".csv", dir + "/" + stem + ".manifest"};
}

void remove_paths(const Paths& paths) {
  std::filesystem::remove(paths.csv);
  std::filesystem::remove(paths.manifest);
}

/// Complete campaign run in one go; returns the CSV bytes.
std::string run_full_campaign(const std::vector<ScenarioSpec>& specs,
                              const Paths& paths, unsigned threads) {
  remove_paths(paths);
  RunnerOptions options;
  options.threads = threads;
  CsvCampaign campaign({paths.csv, paths.manifest, 2, options.base_seed},
                       specs);
  run_sweep_streamed(specs, options,
                     [&](const ScenarioResult& r) { campaign.append(r); });
  campaign.finish();
  return slurp(paths.csv);
}

TEST(Stream, SinkSeesSpecOrderOnEveryThreadCount) {
  const auto specs = campaign_specs();
  ASSERT_GE(specs.size(), 6u);
  for (const unsigned threads : {1u, 4u}) {
    RunnerOptions options;
    options.threads = threads;
    std::vector<std::uint64_t> seen;
    run_sweep_streamed(specs, options, [&](const ScenarioResult& r) {
      seen.push_back(r.spec.key());
    });
    ASSERT_EQ(seen.size(), specs.size()) << threads << " threads";
    for (std::size_t i = 0; i < specs.size(); ++i)
      EXPECT_EQ(seen[i], specs[i].key()) << "position " << i;
  }
}

TEST(Stream, StreamedCsvMatchesAccumulatedReport) {
  const auto specs = campaign_specs();
  std::ostringstream streamed;
  streamed << csv_header() << '\n';
  run_sweep_streamed(specs, {}, [&](const ScenarioResult& r) {
    write_csv_row(streamed, r);
  });
  std::ostringstream whole;
  write_csv(whole, run_sweep(specs, {}));
  EXPECT_EQ(streamed.str(), whole.str());
}

TEST(Campaign, ResumeAfterKillIsByteIdentical) {
  const auto specs = campaign_specs();
  ASSERT_GE(specs.size(), 8u);

  const auto clean_paths = temp_paths("campaign_clean");
  const std::string clean = run_full_campaign(specs, clean_paths, 1);

  // Interrupted run: record 5 rows with a 2-row checkpoint interval, then
  // "die" without finish() — the manifest is left one checkpoint (4 rows)
  // behind the CSV (5 rows), exactly the torn state a kill produces.
  const auto paths = temp_paths("campaign_killed");
  remove_paths(paths);
  {
    CsvCampaign campaign({paths.csv, paths.manifest, 2, 1}, specs);
    for (std::size_t i = 0; i < 5; ++i)
      campaign.append(run_scenario(specs[i]));
    // no finish(): simulated kill
  }
  EXPECT_NE(slurp(paths.csv), clean);

  // Resume: reconcile (trim the CSV back to the checkpoint), then run the
  // remainder on 4 threads. The final file must match the uninterrupted
  // 1-thread run byte for byte.
  std::size_t replayed = 0;
  CsvCampaign resumed({paths.csv, paths.manifest, 2, 1}, specs,
                      [&](const ScenarioResult&) { ++replayed; });
  EXPECT_EQ(resumed.resume_index(), 4u);  // 5 rows, checkpoint at 4
  EXPECT_EQ(replayed, 4u);
  RunnerOptions options;
  options.threads = 4;
  const std::vector<ScenarioSpec> todo(specs.begin() + resumed.resume_index(),
                                       specs.end());
  run_sweep_streamed(todo, options, [&](const ScenarioResult& r) {
    resumed.append(r);
  });
  resumed.finish();
  EXPECT_EQ(slurp(paths.csv), clean);
  remove_paths(paths);
  remove_paths(clean_paths);
}

TEST(Campaign, ResumeAfterExternalCsvTruncation) {
  const auto specs = campaign_specs();
  const auto clean_paths = temp_paths("campaign_clean2");
  const std::string clean = run_full_campaign(specs, clean_paths, 1);

  const auto paths = temp_paths("campaign_truncated");
  run_full_campaign(specs, paths, 1);
  // Truncate the CSV mid-file (mid-row, even): the manifest now claims more
  // rows than the CSV holds; resume must trust the shorter prefix.
  std::filesystem::resize_file(paths.csv, clean.size() / 2);

  std::size_t replayed = 0;
  CsvCampaign resumed({paths.csv, paths.manifest, 2, 1}, specs,
                      [&](const ScenarioResult&) { ++replayed; });
  EXPECT_LT(resumed.resume_index(), specs.size());
  EXPECT_EQ(replayed, resumed.resume_index());
  const std::vector<ScenarioSpec> todo(specs.begin() + resumed.resume_index(),
                                       specs.end());
  run_sweep_streamed(todo, {}, [&](const ScenarioResult& r) {
    resumed.append(r);
  });
  resumed.finish();
  EXPECT_EQ(slurp(paths.csv), clean);
  remove_paths(paths);
  remove_paths(clean_paths);
}

TEST(Campaign, TornManifestTailIsDiscardedNotMisparsed) {
  // A kill mid-checkpoint can leave a digest torn mid-write (no newline).
  // The truncated number must not be parsed as a real digest — that would
  // fail the prefix check and refuse a perfectly resumable campaign.
  const auto specs = campaign_specs();
  const auto clean_paths = temp_paths("campaign_clean3");
  const std::string clean = run_full_campaign(specs, clean_paths, 1);

  const auto paths = temp_paths("campaign_torn");
  run_full_campaign(specs, paths, 1);
  {
    std::ofstream manifest(paths.manifest, std::ios::app | std::ios::binary);
    manifest << "1234";  // torn: no terminating newline
  }
  CsvCampaign resumed({paths.csv, paths.manifest, 2, 1}, specs);
  EXPECT_EQ(resumed.resume_index(), specs.size());  // all rows intact
  resumed.finish();
  EXPECT_EQ(slurp(paths.csv), clean);
  remove_paths(paths);
  remove_paths(clean_paths);
}

TEST(Campaign, EmptyManifestMeansZeroRecordedRows) {
  // A kill between the fresh CSV header flush and the manifest header flush
  // leaves an empty manifest file next to a header-only CSV; the campaign
  // must restart cleanly, not refuse forever.
  const auto specs = campaign_specs();
  const auto clean_paths = temp_paths("campaign_clean4");
  const std::string clean = run_full_campaign(specs, clean_paths, 1);

  const auto paths = temp_paths("campaign_emptymanifest");
  remove_paths(paths);
  {
    std::ofstream csv(paths.csv, std::ios::binary);
    csv << csv_header() << '\n';
    std::ofstream manifest(paths.manifest, std::ios::binary);  // empty
  }
  CsvCampaign resumed({paths.csv, paths.manifest, 2, 1}, specs);
  EXPECT_EQ(resumed.resume_index(), 0u);
  run_sweep_streamed(specs, {}, [&](const ScenarioResult& r) {
    resumed.append(r);
  });
  resumed.finish();
  EXPECT_EQ(slurp(paths.csv), clean);
  remove_paths(paths);
  remove_paths(clean_paths);
}

TEST(Campaign, RejectsMismatchedGridSeedAndSchema) {
  const auto specs = campaign_specs();
  const auto paths = temp_paths("campaign_guard");
  run_full_campaign(specs, paths, 1);

  // Different grid: recorded digests are not a prefix of it.
  auto other = specs;
  other[0].rounds += 1;
  EXPECT_THROW(CsvCampaign({paths.csv, paths.manifest, 2, 1}, other),
               std::runtime_error);

  // Different base seed: the manifest header remembers.
  EXPECT_THROW(CsvCampaign({paths.csv, paths.manifest, 2, 7}, specs),
               std::runtime_error);

  // Missing manifest next to an existing CSV: refuse to guess.
  std::filesystem::remove(paths.manifest);
  EXPECT_THROW(CsvCampaign({paths.csv, paths.manifest, 2, 1}, specs),
               std::runtime_error);
  remove_paths(paths);
}

TEST(Budget, TimedOutRowsRoundTripThroughCsvAndReplay) {
  ScenarioSpec spec;  // default CPS fault-free n=4
  spec.rounds = 500;  // plenty of work to outlast a microscopic budget
  RunnerOptions options;
  options.budget_ms = 0.001;
  const auto result = run_scenario(spec, options);
  ASSERT_TRUE(result.timed_out);
  EXPECT_TRUE(result.error.empty());  // a budget abort is not a world error
  EXPECT_EQ(result.rounds_completed, 0u);
  EXPECT_TRUE(violates_gate(result, 1e9));  // gates never go green on it

  // CSV round trip.
  SweepReport report;
  report.results.push_back(result);
  std::ostringstream os;
  write_csv(os, report);
  const auto csv = os.str();
  const auto ends = csv_record_ends(csv);
  ASSERT_EQ(ends.size(), 2u);
  const auto header = parse_csv_fields(
      std::string_view(csv).substr(0, ends[0] - 1));
  const auto row = parse_csv_fields(
      std::string_view(csv).substr(ends[0], ends[1] - ends[0] - 1));
  ASSERT_EQ(header.size(), row.size());
  std::optional<std::size_t> timed_out_col;
  std::optional<std::size_t> max_skew_col;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "timed_out") timed_out_col = i;
    if (header[i] == "max_skew") max_skew_col = i;
  }
  ASSERT_TRUE(timed_out_col.has_value());
  ASSERT_TRUE(max_skew_col.has_value());
  EXPECT_EQ(row[*timed_out_col], "1");
  EXPECT_EQ(row[*max_skew_col], "");  // aborted runs export no metrics

  // A recorded timed_out row is retryable: resume cuts the prefix at it
  // (see Budget.ResumeRetriesTimedOutRowsInsteadOfBakingThemIn for the
  // full retry round trip).
  const auto paths = temp_paths("campaign_timeout");
  remove_paths(paths);
  const std::vector<ScenarioSpec> specs{spec};
  {
    CsvCampaign campaign({paths.csv, paths.manifest, 1, 1}, specs);
    campaign.append(result);
    campaign.finish();
  }
  std::vector<ScenarioResult> replayed;
  CsvCampaign resumed({paths.csv, paths.manifest, 1, 1}, specs,
                      [&](const ScenarioResult& r) { replayed.push_back(r); });
  EXPECT_EQ(resumed.resume_index(), 0u);  // the timed-out cell re-runs
  EXPECT_TRUE(replayed.empty());
  remove_paths(paths);
}

TEST(Budget, ResumeRetriesTimedOutRowsInsteadOfBakingThemIn) {
  // A timed_out row records a scheduling accident, not a measurement; a
  // campaign resumed later (lighter load, bigger budget) must re-run it
  // rather than replay the failure forever.
  const auto specs = campaign_specs();
  const auto paths = temp_paths("campaign_retry");
  remove_paths(paths);
  {
    CsvCampaign campaign({paths.csv, paths.manifest, 1, 1}, specs);
    campaign.append(run_scenario(specs[0]));
    campaign.append(run_scenario(specs[1]));
    auto hung = run_scenario(specs[2]);  // forge a budget abort at row 2
    hung.timed_out = true;
    hung.error.clear();
    campaign.append(hung);
    campaign.append(run_scenario(specs[3]));
    campaign.finish();
  }
  std::size_t replayed = 0;
  CsvCampaign resumed({paths.csv, paths.manifest, 1, 1}, specs,
                      [&](const ScenarioResult& r) {
                        EXPECT_FALSE(r.timed_out);
                        ++replayed;
                      });
  EXPECT_EQ(resumed.resume_index(), 2u);  // cut at the timed_out row
  EXPECT_EQ(replayed, 2u);

  // Completing the resume yields the clean-run bytes: the retried cell's
  // real result replaces the timeout.
  const std::vector<ScenarioSpec> todo(specs.begin() + resumed.resume_index(),
                                       specs.end());
  run_sweep_streamed(todo, {}, [&](const ScenarioResult& r) {
    resumed.append(r);
  });
  resumed.finish();
  const auto clean_paths = temp_paths("campaign_retry_clean");
  const std::string clean = run_full_campaign(specs, clean_paths, 1);
  EXPECT_EQ(slurp(paths.csv), clean);
  remove_paths(paths);
  remove_paths(clean_paths);
}

TEST(Budget, GenerousBudgetChangesNothing) {
  ScenarioSpec spec;
  spec.rounds = 4;
  spec.warmup = 1;
  RunnerOptions with_budget;
  with_budget.budget_ms = 60000.0;
  const auto budgeted = run_scenario(spec, with_budget);
  const auto plain = run_scenario(spec, {});
  EXPECT_FALSE(budgeted.timed_out);
  EXPECT_EQ(budgeted.max_skew, plain.max_skew);
  EXPECT_EQ(budgeted.messages, plain.messages);
}

TEST(MemoCache, HitReturnsIdenticalEffectiveOnRandomFamily) {
  // The random family is the cache's sharp edge: the realized graph depends
  // on the seed, so the key folds it in and a hit must reproduce the
  // uncached analysis exactly.
  relay::RelayConfig config;
  config.topology = relay::Topology::random_connected(8, 2, 12345);
  config.hop_model.n = 8;
  config.hop_model.f = 2;
  config.hop_model.d = 1.0;
  config.hop_model.u = 0.01;
  config.hop_model.u_tilde = 0.01;
  config.hop_model.vartheta = 1.001;
  config.faulty = {0, 1};

  const auto uncached = relay::compute_effective(config);
  relay::EffectiveCache cache;
  const auto miss = cache.get(42, config);
  const auto hit = cache.get(42, config);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  for (const auto& eff : {miss, hit}) {
    EXPECT_EQ(eff.worst_hops, uncached.worst_hops);
    EXPECT_EQ(eff.model.d, uncached.model.d);
    EXPECT_EQ(eff.model.u, uncached.model.u);
    EXPECT_EQ(eff.model.u_tilde, uncached.model.u_tilde);
    EXPECT_EQ(eff.model.vartheta, uncached.model.vartheta);
  }

  // A different key (different seed's graph) re-analyzes.
  relay::RelayConfig other = config;
  other.topology = relay::Topology::random_connected(8, 2, 999);
  const auto fresh = cache.get(43, other);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(fresh.worst_hops, relay::compute_effective(other).worst_hops);
}

TEST(MemoCache, ConcurrentGetsAreRaceFreeAndConsistent) {
  // Regression for the cache's lock discipline (shared access from sweep
  // workers): hammer one cache from several threads with a mix of repeated
  // and distinct keys. Under TSan this is the race probe; on a plain build
  // it still checks the counter bookkeeping stays exact (misses == number
  // of distinct keys, every other lookup a hit) and that hot-key results
  // match the uncached analysis bit-for-bit.
  constexpr int kThreads = 4;
  constexpr int kRepeats = 8;
  constexpr int kDistinct = 3;

  std::vector<relay::RelayConfig> configs(kDistinct);
  for (int k = 0; k < kDistinct; ++k) {
    auto& config = configs[k];
    config.topology = relay::Topology::random_connected(8, 2, 1000 + k);
    config.hop_model.n = 8;
    config.hop_model.f = 2;
    config.hop_model.d = 1.0;
    config.hop_model.u = 0.01;
    config.hop_model.u_tilde = 0.01;
    config.hop_model.vartheta = 1.001;
    config.faulty = {0, 1};
  }
  const auto expected = relay::compute_effective(configs[0]);

  relay::EffectiveCache cache;
  std::vector<relay::RelayEffective> hot(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        for (int k = 0; k < kDistinct; ++k) {
          const auto eff =
              cache.get(static_cast<std::uint64_t>(k), configs[k]);
          if (k == 0) hot[t] = eff;
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kRepeats * kDistinct);
  // Concurrent first lookups may each miss-and-analyze before the winner's
  // emplace lands, so misses can exceed kDistinct — but never the first
  // wave of lookups, and the steady state must be all hits.
  EXPECT_GE(cache.misses(), static_cast<std::uint64_t>(kDistinct));
  EXPECT_LE(cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kDistinct);
  for (const auto& eff : hot) {
    EXPECT_EQ(eff.worst_hops, expected.worst_hops);
    EXPECT_EQ(eff.model.d, expected.model.d);
    EXPECT_EQ(eff.model.u, expected.model.u);
    EXPECT_EQ(eff.model.u_tilde, expected.model.u_tilde);
    EXPECT_EQ(eff.model.vartheta, expected.model.vartheta);
  }
}

TEST(MemoCache, CachedSweepCsvIdenticalToUncached) {
  // Runner-level identity: the cache must be invisible in the results, on a
  // grid that mixes the seed-grown random family with a deterministic one
  // and multiplies the relay-fault axis (where the sharing happens).
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {6};
  grid.fault_loads = {SweepGrid::kMaxResilience};
  grid.topologies = {TopologyKind::kRing, TopologyKind::kRandomConnected};
  grid.relay_faults = {relay::RelayFaultKind::kCrash,
                       relay::RelayFaultKind::kMaxDelay,
                       relay::RelayFaultKind::kReorder};
  grid.us = {0.01};
  grid.varthetas = {1.001};
  grid.rounds = 4;
  grid.warmup = 1;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 6u);

  // The hit/miss counts are read off a 1-thread pass: with several workers,
  // whether a lookup lands after the insert of its key depends on
  // scheduling (two workers may both miss on one key).
  RunnerOptions serial;
  serial.threads = 1;
  relay::EffectiveCache cache;
  serial.shared_relay_cache = &cache;
  RunnerOptions cached;
  cached.threads = 4;
  relay::EffectiveCache pooled_cache;
  cached.shared_relay_cache = &pooled_cache;
  RunnerOptions uncached;
  uncached.threads = 4;
  uncached.relay_cache = false;

  std::ostringstream serial_cached;
  write_csv(serial_cached, run_sweep(specs, serial));
  std::ostringstream with_cache;
  write_csv(with_cache, run_sweep(specs, cached));
  std::ostringstream without_cache;
  write_csv(without_cache, run_sweep(specs, uncached));
  EXPECT_EQ(with_cache.str(), without_cache.str());
  EXPECT_EQ(serial_cached.str(), with_cache.str());
  // The ring's three fault kinds share one analysis key; the random family
  // keys on the cell seed, which differs per fault kind. So the grid holds
  // 1 + 3 distinct analysis keys: four misses, the ring's other two cells
  // hits.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LT(cache.misses(), specs.size());
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(History, LineFormatRoundTrips) {
  HistoryEntry entry;
  entry.seed = 7;
  entry.grid = 0xdeadbeefULL;
  entry.cells = 36;
  entry.errors = 1;
  entry.timed_out = 2;
  entry.worlds.push_back({WorldKind::kComplete, {{{0.8125, 0.5, 30}}}});
  entry.worlds.push_back({WorldKind::kTheorem5, {{{1.0625, 1.03125, 3}}}});

  const auto line = format_history_line(entry);
  const auto parsed = parse_history_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->grid, 0xdeadbeefULL);
  EXPECT_EQ(parsed->cells, 36u);
  EXPECT_EQ(parsed->errors, 1u);
  EXPECT_EQ(parsed->timed_out, 2u);
  ASSERT_EQ(parsed->worlds.size(), 2u);
  EXPECT_EQ(parsed->worlds[0].world, WorldKind::kComplete);
  EXPECT_EQ(parsed->worlds[0].series[0].max, 0.8125);
  EXPECT_EQ(parsed->worlds[0].series[0].mean, 0.5);
  EXPECT_EQ(parsed->worlds[0].series[0].count, 30u);
  EXPECT_EQ(parsed->worlds[1].world, WorldKind::kTheorem5);
  EXPECT_EQ(parsed->worlds[1].series[0].max, 1.0625);

  EXPECT_FALSE(parse_history_line("").has_value());
  EXPECT_FALSE(parse_history_line("# comment").has_value());
  EXPECT_FALSE(parse_history_line("seed=x cells=3").has_value());
  EXPECT_FALSE(parse_history_line("cells=3").has_value());  // no seed
  EXPECT_FALSE(
      parse_history_line("seed=1 cells=3 mars:max=1,mean=1,count=1")
          .has_value());
  EXPECT_FALSE(
      parse_history_line("seed=1 cells=3 complete:max=1,mean=1").has_value());
}

// History lines as sweep_cli wrote them in each era of the format, two
// worlds each: the global triple only, then with the gradient l* triple,
// with l* and the KLLO k* triple, with the adaptive a* triple, and all four.
// Files recorded in any era must keep parsing to the same bytes.
constexpr const char* kEraLines[] = {
    "seed=1 grid=14596161924237567885 cells=3 errors=0 timed_out=0 "
    "complete:max=1,mean=1,count=2 "
    "theorem5:max=0.9999999999999964,mean=0.9999999999999964,count=1",
    "seed=1 grid=10292039787394580311 cells=6 errors=0 timed_out=0 "
    "complete:max=1.0000000000000142,mean=0.9620240908973354,count=2 "
    "relay:max=0.8333333333333647,mean=0.7119076320726612,count=4,"
    "lmax=0.6683168316831947,lmean=0.5320204914868397,lcount=2",
    "seed=1 grid=10292039787394580311 cells=6 errors=0 timed_out=0 "
    "complete:max=1.0000000000000142,mean=0.9620240908973354,count=2 "
    "relay:max=0.8333333333333647,mean=0.7119076320726612,count=4,"
    "lmax=0.6683168316831947,lmean=0.5320204914868397,lcount=2,"
    "kmax=0.12530940594059156,kmean=0.09975384215377872,kcount=2",
    "seed=1 grid=4530513747570822969 cells=6 errors=0 timed_out=0 "
    "complete:max=1,mean=0.9776922191311752,count=2 "
    "relay:max=0.034966996699669295,mean=0.02500329803022927,count=4,"
    "amax=0.034966996699669295,amean=0.02500329803022927,acount=4",
    "seed=1 grid=17227247125159295871 cells=24 errors=0 timed_out=0 "
    "complete:max=1.0000000000000142,mean=0.5112392397134882,count=8 "
    "relay:max=5.5555555555555545,mean=0.674599718629748,count=16,"
    "lmax=5.5555555555555545,lmean=0.9463960264923794,lcount=8,"
    "kmax=1.0416666666666663,kmean=0.2555292293834627,kcount=8,"
    "amax=5.5555555555555545,amean=0.9587119885196487,acount=8",
};

TEST(History, EveryEraLineFormatsByteIdentically) {
  for (const std::string line : kEraLines) {
    const auto parsed = parse_history_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_EQ(parsed->worlds.size(), 2u) << line;
    EXPECT_EQ(format_history_line(*parsed), line);
  }
}

TEST(History, AdaptiveRegressionTripsTrendGateByName) {
  const auto baseline = parse_history_line(kEraLines[3]);
  ASSERT_TRUE(baseline.has_value());
  // The same line with amax doubled (global max and mean untouched).
  std::string doubled = kEraLines[3];
  const std::string amax = "amax=0.034966996699669295";
  doubled.replace(doubled.find(amax), amax.size(), "amax=0.06993399339933859");
  const auto regressed = parse_history_line(doubled);
  ASSERT_TRUE(regressed.has_value());

  const auto failures = check_trend(baseline, *regressed, 5.0);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0],
            "relay: max adaptive skew_ratio 0.06993399339933859 regressed > "
            "5% over baseline 0.034966996699669295");
  EXPECT_TRUE(check_trend(baseline, *baseline, 0.0).empty());
}

TEST(History, LoadLastEntrySkipsHeaderAndGarbage) {
  std::istringstream is(
      "# crusader skew_ratio history v1\n"
      "seed=1 cells=4 errors=0 timed_out=0 complete:max=0.5,mean=0.4,count=4\n"
      "garbage line\n"
      "seed=1 cells=4 errors=0 timed_out=0 complete:max=0.7,mean=0.6,count=4\n");
  const auto last = load_last_entry(is);
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->worlds.size(), 1u);
  EXPECT_EQ(last->worlds[0].series[0].max, 0.7);
}

TEST(History, BaselineSelectionSkipsOtherGridsAndIncompleteRuns) {
  // The CLI's trend baseline is the last COMPARABLE and COMPLETE entry:
  // lines from other grids (different axes or seed) and lines with
  // errors/timeouts must never become the bar a healthy run is judged by.
  std::istringstream is(
      "seed=1 grid=111 cells=4 errors=0 timed_out=0 "
      "complete:max=0.5,mean=0.4,count=4\n"
      "seed=1 grid=222 cells=8 errors=0 timed_out=0 "
      "complete:max=0.2,mean=0.1,count=8\n"
      "seed=1 grid=111 cells=4 errors=1 timed_out=0 "
      "complete:max=0.1,mean=0.1,count=2\n");
  const auto baseline = load_baseline(is, 111);
  ASSERT_TRUE(baseline.has_value());
  // Not the other grid's 0.2, not the errored run's 0.1.
  EXPECT_EQ(baseline->worlds[0].series[0].max, 0.5);

  std::istringstream none(
      "seed=1 grid=222 cells=8 errors=0 timed_out=0 "
      "complete:max=0.2,mean=0.1,count=8\n");
  EXPECT_FALSE(load_baseline(none, 111).has_value());

  // Two grids differing in any axis (or seed) digest differently.
  SweepGrid a;
  a.rounds = 4;
  SweepGrid b;
  b.rounds = 5;
  EXPECT_NE(grid_digest(a.expand(), 1), grid_digest(b.expand(), 1));
  EXPECT_NE(grid_digest(a.expand(), 1), grid_digest(a.expand(), 2));
  EXPECT_EQ(grid_digest(a.expand(), 1), grid_digest(a.expand(), 1));
}

TEST(Runner, OutOfRangeCustomTargetErrorsTheCell) {
  // custom:target:<node> past the cluster would silently run the trivial
  // all-minimum policy; the runner must error the cell instead.
  ScenarioSpec spec;
  spec.n = 4;
  spec.rounds = 3;
  spec.custom_delay = *parse_custom_delay("custom:target:7");
  const auto result = run_scenario(spec);
  EXPECT_FALSE(result.error.empty());
  EXPECT_NE(result.error.find("out of range"), std::string::npos)
      << result.error;
  EXPECT_TRUE(violates_gate(result, 1e9));

  spec.custom_delay = *parse_custom_delay("custom:target:3");  // n-1: fine
  const auto in_range = run_scenario(spec);
  EXPECT_TRUE(in_range.error.empty()) << in_range.error;
}

TEST(History, TrendGateFailsOnRegressionAndIncompleteRuns) {
  HistoryEntry baseline;
  baseline.seed = 1;
  baseline.cells = 10;
  baseline.worlds.push_back({WorldKind::kComplete, {{{0.8, 0.5, 10}}}});

  HistoryEntry same = baseline;
  EXPECT_TRUE(check_trend(baseline, same, 0.0).empty());

  HistoryEntry within = baseline;
  within.worlds[0].series[0].max = 0.82;  // +2.5% under a 5% gate
  EXPECT_TRUE(check_trend(baseline, within, 5.0).empty());

  HistoryEntry regressed = baseline;
  regressed.worlds[0].series[0].max = 0.9;  // +12.5%
  EXPECT_FALSE(check_trend(baseline, regressed, 5.0).empty());
  EXPECT_TRUE(check_trend(baseline, regressed, 20.0).empty());

  // A world with no baseline passes (nothing to regress against) — and so
  // does the very first run.
  HistoryEntry new_world = baseline;
  new_world.worlds[0].world = WorldKind::kRelay;
  EXPECT_TRUE(check_trend(baseline, new_world, 0.0).empty());
  EXPECT_TRUE(check_trend(std::nullopt, regressed, 0.0).empty());

  // Errors and timeouts fail the trend gate regardless of ratios: the run
  // did not fully execute.
  HistoryEntry errored = baseline;
  errored.errors = 1;
  EXPECT_FALSE(check_trend(baseline, errored, 5.0).empty());
  HistoryEntry hung = baseline;
  hung.timed_out = 1;
  EXPECT_FALSE(check_trend(std::nullopt, hung, 5.0).empty());
}

TEST(History, SummaryFeedsEntryAndAppendLoadsBack) {
  const auto specs = campaign_specs();
  SweepSummary summary;
  summary.gate_ratio = 1.0;
  run_sweep_streamed(specs, {}, [&](const ScenarioResult& r) {
    summary.add(r);
  });
  EXPECT_EQ(summary.scenarios, specs.size());
  EXPECT_EQ(summary.errors, 0u);
  ASSERT_GE(summary.worlds.size(), 2u);  // complete + relay

  const auto entry = make_history_entry(summary, 1);
  EXPECT_EQ(entry.cells, specs.size());

  const std::string path = ::testing::TempDir() + "/history_roundtrip.txt";
  std::filesystem::remove(path);
  append_history(path, entry);
  append_history(path, entry);
  std::ifstream is(path);
  const auto last = load_last_entry(is);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->cells, entry.cells);
  ASSERT_EQ(last->worlds.size(), entry.worlds.size());
  EXPECT_EQ(last->worlds[0].series[0].max, entry.worlds[0].series[0].max);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace crusader::runner
