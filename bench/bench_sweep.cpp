// E11 — the sweep runner as an experiment harness: the paper's headline
// comparison (CPS vs Lynch–Welch vs Srikanth–Toueg) across n × faults ×
// delay policies in one declarative grid, plus a thread-scaling measurement
// of the runner itself.
//
// E12 — the flood-overlay hot path under Byzantine relay adversaries: every
// RelayFaultKind over the four sparse topology families at max fault load,
// with per-cell wall clock so the perf trajectory of the relay world is
// tracked alongside its bound conformance.
//
// E13 — the per-sweep relay analysis memo cache: large-n sparse families ×
// the full relay-fault axis, timing the topology analysis (connectivity +
// worst-case distance BFS walk) uncached per cell vs. memoized, plus the
// end-to-end run_sweep wall clock with the cache on and off.
//
// E14 — engine fast-path throughput: one broadcast-heavy complete-world CPS
// cell measured as events/sec through three configurations (per-receiver
// reference; batched delivery; batched delivery on an abstract-crypto row,
// which runs the same signature scheme and so times like the batched row),
// the reference and batched rows again under random delays (one delivery
// segment per receiver, all walked by one queue entry per broadcast), the
// pair again on a max-fault cell whose Byzantine echoes are batched once the
// Dolev–Yao check passes, then one 2^20-node hypercube flood-probe cell
// under a wall budget. With
// --json the E14 numbers are written as a BENCH_*.json artifact; with
// --history/--gate-trend the dimensionless cost ratio (fast seconds /
// reference seconds) rides the runner's skew-ratio history machinery so CI
// can fail when the speedup regresses.
//
// E15 — dynamic-network overhead: one flood-probe hypercube cell replayed
// at increasing churn rates (seeded topology schedules), reporting
// events/sec alongside the realized local (gradient) vs global skew — the
// cost and the correctness story of churn in one table.
//
// E16 — adaptive vs oblivious relay adversaries: the witness hypercube cell
// (ST at n=32, max fault load, worst-case delays) replayed under every
// oblivious fault kind, the traffic-observing greedy-skew policy, and the
// budgeted random search — the realized skew_ratio gap quantifies what
// observation buys the adversary while every row stays inside the
// Theorem-17 bound at (d_eff, u_eff).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "relay/adversary.hpp"
#include "relay/flood_world.hpp"
#include "relay/topology.hpp"
#include "runner/history.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"

namespace crusader {
namespace {

double seconds_to_run(const std::vector<runner::ScenarioSpec>& specs,
                      unsigned threads) {
  runner::RunnerOptions options;
  options.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  const auto report = runner::run_sweep(specs, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  (void)report;
  return std::chrono::duration<double>(elapsed).count();
}

/// One timed scenario run: (result, wall seconds).
struct TimedRun {
  runner::ScenarioResult result;
  double seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(result.events) / std::max(seconds, 1e-9);
  }
};

TimedRun timed_scenario(const runner::ScenarioSpec& spec,
                        const runner::RunnerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  TimedRun run;
  run.result = runner::run_scenario(spec, options);
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

/// One E14 table row: `run` with its speedup over the per-receiver
/// `reference` run of the same cell.
void add_speed_row(util::Table& table, const char* label, const TimedRun& run,
                   const TimedRun& reference) {
  table.add_row(
      {label, std::to_string(run.result.events),
       util::Table::num(run.seconds, 3),
       util::Table::num(run.events_per_sec(), 0),
       util::Table::num(run.events_per_sec() /
                            std::max(reference.events_per_sec(), 1e-9),
                        2) +
           "x"});
}

/// E14's machine-readable summary (the BENCH_*.json artifact).
struct E14Summary {
  double reference_events_per_sec = 0.0;
  double batched_events_per_sec = 0.0;
  double fast_events_per_sec = 0.0;  ///< batched, abstract-crypto row
  double speedup = 0.0;              ///< fast vs reference
  double cost_ratio = 1.0;           ///< fast seconds / reference seconds
  double random_reference_events_per_sec = 0.0;  ///< random-delay rows
  double random_batched_events_per_sec = 0.0;
  double random_speedup = 0.0;  ///< random batched vs random reference
  double faulty_reference_events_per_sec = 0.0;  ///< max-fault byz rows
  double faulty_batched_events_per_sec = 0.0;
  double faulty_speedup = 0.0;  ///< faulty batched vs faulty reference
  double large_n_seconds = 0.0;
  double large_n_events_per_sec = 0.0;
  std::uint64_t large_n_nodes = 0;
  bool large_n_timed_out = false;
  std::uint64_t grid = 0;  ///< digest tying history entries to this config
};

/// One E15 measurement: the probe cell at one churn rate.
struct E15Row {
  const char* protocol = "";
  double churn_rate = 0.0;
  double events_per_sec = 0.0;
  double max_skew = 0.0;
  double local_skew = 0.0;
};

/// One E16 measurement: the witness cell under one relay fault kind.
struct E16Row {
  const char* fault = "";
  bool adaptive = false;
  double skew_ratio = 0.0;
  bool within_bound = false;
  std::uint32_t attack_iters = 0;
  std::uint64_t attack_best_seed = 0;
  double seconds = 0.0;
};

void write_json(const std::string& path, const E14Summary& s,
                const std::vector<E15Row>& churn,
                const std::vector<E16Row>& adaptive) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_sweep: cannot write " << path << "\n";
    return;
  }
  out.precision(17);
  out << "{\n"
      << "  \"e14\": {\n"
      << "    \"reference_events_per_sec\": " << s.reference_events_per_sec
      << ",\n"
      << "    \"batched_events_per_sec\": " << s.batched_events_per_sec
      << ",\n"
      << "    \"fast_events_per_sec\": " << s.fast_events_per_sec << ",\n"
      << "    \"speedup\": " << s.speedup << ",\n"
      << "    \"cost_ratio\": " << s.cost_ratio << ",\n"
      << "    \"random_reference_events_per_sec\": "
      << s.random_reference_events_per_sec << ",\n"
      << "    \"random_batched_events_per_sec\": "
      << s.random_batched_events_per_sec << ",\n"
      << "    \"random_speedup\": " << s.random_speedup << ",\n"
      << "    \"faulty_reference_events_per_sec\": "
      << s.faulty_reference_events_per_sec << ",\n"
      << "    \"faulty_batched_events_per_sec\": "
      << s.faulty_batched_events_per_sec << ",\n"
      << "    \"faulty_speedup\": " << s.faulty_speedup << ",\n"
      << "    \"large_n_nodes\": " << s.large_n_nodes << ",\n"
      << "    \"large_n_seconds\": " << s.large_n_seconds << ",\n"
      << "    \"large_n_events_per_sec\": " << s.large_n_events_per_sec
      << ",\n"
      << "    \"large_n_timed_out\": "
      << (s.large_n_timed_out ? "true" : "false") << ",\n"
      << "    \"grid\": " << s.grid << "\n"
      << "  },\n"
      << "  \"e15\": [\n";
  for (std::size_t i = 0; i < churn.size(); ++i) {
    const auto& row = churn[i];
    out << "    {\"protocol\": \"" << row.protocol << "\""
        << ", \"churn_rate\": " << row.churn_rate
        << ", \"events_per_sec\": " << row.events_per_sec
        << ", \"max_skew\": " << row.max_skew
        << ", \"local_skew\": " << row.local_skew << "}"
        << (i + 1 < churn.size() ? ",\n" : "\n");
  }
  out << "  ],\n"
      << "  \"e16\": [\n";
  for (std::size_t i = 0; i < adaptive.size(); ++i) {
    const auto& row = adaptive[i];
    out << "    {\"fault\": \"" << row.fault << "\""
        << ", \"adaptive\": " << (row.adaptive ? "true" : "false")
        << ", \"skew_ratio\": " << row.skew_ratio
        << ", \"within_bound\": " << (row.within_bound ? "true" : "false")
        << ", \"attack_iters\": " << row.attack_iters
        << ", \"attack_best_seed\": " << row.attack_best_seed
        << ", \"seconds\": " << row.seconds << "}"
        << (i + 1 < adaptive.size() ? ",\n" : "\n");
  }
  out << "  ]\n"
      << "}\n";
}

}  // namespace

int run_bench(const std::optional<std::string>& json_path,
              const std::optional<std::string>& history_path,
              std::optional<double> gate_trend, bool skip_large) {
  runner::SweepGrid grid;
  grid.protocols = {baselines::ProtocolKind::kCps,
                    baselines::ProtocolKind::kLynchWelch,
                    baselines::ProtocolKind::kSrikanthToueg};
  grid.ns = {4, 7, 9};
  grid.fault_loads = {0, runner::SweepGrid::kMaxResilience};
  grid.delays = {sim::DelayKind::kRandom, sim::DelayKind::kSplit};
  grid.strategies = {core::ByzStrategy::kCrash, core::ByzStrategy::kSplit};
  grid.rounds = 16;
  grid.warmup = 4;
  const auto specs = grid.expand();

  const auto report = runner::run_sweep(specs, {});

  util::Table table("E11: sweep summary — " + std::to_string(specs.size()) +
                    " scenarios (n in {4,7,9}, fault-free and max "
                    "resilience, random/split delays)");
  table.set_header({"protocol", "scenarios", "infeasible", "errors",
                    "bound violations", "steady skew mean", "steady skew max",
                    "messages mean"});
  for (const auto& s : report.by_protocol()) {
    table.add_row(
        {baselines::to_string(s.protocol), std::to_string(s.scenarios),
         std::to_string(s.infeasible), std::to_string(s.errors),
         std::to_string(s.bound_violations),
         s.steady_skew.count() ? util::Table::num(s.steady_skew.mean(), 4) : "-",
         s.steady_skew.count() ? util::Table::num(s.steady_skew.max(), 4) : "-",
         s.messages.count() ? util::Table::num(s.messages.mean(), 1) : "-"});
  }
  bench::print(table);

  // Thread scaling of the runner itself (same grid, same seeds, identical
  // results — only wall clock changes).
  util::Table scaling("E11b: runner thread scaling (same grid)");
  scaling.set_header({"threads", "seconds", "speedup"});
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double base = 0.0;
  for (unsigned threads : {1u, 2u, hw}) {
    const double secs = seconds_to_run(specs, threads);
    if (threads == 1) base = secs;
    scaling.add_row({std::to_string(threads), util::Table::num(secs, 3),
                     util::Table::num(base / std::max(secs, 1e-9), 2) + "x"});
    if (threads == hw) break;  // avoid duplicate row when hw <= 2
  }
  bench::print(scaling);

  // E12: the relay world's flood overlay under Byzantine relay adversaries.
  runner::SweepGrid relay_grid;
  relay_grid.worlds = {runner::WorldKind::kRelay};
  relay_grid.protocols = {baselines::ProtocolKind::kCps};
  relay_grid.ns = {8};
  relay_grid.fault_loads = {runner::SweepGrid::kMaxResilience};
  relay_grid.topologies = {
      runner::TopologyKind::kRing, runner::TopologyKind::kChordalRing,
      runner::TopologyKind::kRingOfCliques, runner::TopologyKind::kHypercube};
  relay_grid.relay_faults = {
      relay::RelayFaultKind::kCrash, relay::RelayFaultKind::kMaxDelay,
      relay::RelayFaultKind::kReorder, relay::RelayFaultKind::kSelectiveDrop};
  relay_grid.us = {0.01};
  relay_grid.varthetas = {1.001};
  relay_grid.rounds = 16;
  relay_grid.warmup = 4;
  const auto relay_specs = relay_grid.expand();

  util::Table relay_table(
      "E12: Byzantine relay adversaries — flood overlay hot path (" +
      std::to_string(relay_specs.size()) +
      " cells: fault kind x topology at max fault load, n=8)");
  relay_table.set_header({"scenario", "steady skew", "bound", "ratio", "ok",
                         "physical msgs", "seconds"});
  for (const auto& spec : relay_specs) {
    const auto start = std::chrono::steady_clock::now();
    const auto r = runner::run_scenario(spec, {});
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    relay_table.add_row(
        {spec.name(),
         r.rounds_completed ? util::Table::num(r.steady_skew, 4) : "-",
         r.feasible ? util::Table::num(r.predicted_skew, 4) : "-",
         r.rounds_completed ? util::Table::num(r.skew_ratio, 3) : "-",
         r.rounds_completed ? (r.within_bound ? "yes" : "no") : "-",
         std::to_string(r.messages), util::Table::num(secs, 3)});
  }
  bench::print(relay_table);

  // E13: the relay analysis memo cache. Cells sharing (topology family, n,
  // f, faulty set) reuse one BFS walk; the relay-fault axis (4 kinds per
  // family) is exactly such sharing, so the expected setup cut is ~4× per
  // family. Measured two ways: the analysis alone (uncached per cell vs.
  // memoized), and the end-to-end sweep.
  runner::SweepGrid cache_grid;
  cache_grid.worlds = {runner::WorldKind::kRelay};
  cache_grid.protocols = {baselines::ProtocolKind::kCps};
  cache_grid.ns = {32};
  cache_grid.fault_loads = {runner::SweepGrid::kMaxResilience};
  cache_grid.topologies = {runner::TopologyKind::kChordalRing,
                           runner::TopologyKind::kRingOfCliques};
  cache_grid.relay_faults = {
      relay::RelayFaultKind::kCrash, relay::RelayFaultKind::kMaxDelay,
      relay::RelayFaultKind::kReorder, relay::RelayFaultKind::kSelectiveDrop};
  cache_grid.us = {0.001};
  cache_grid.varthetas = {1.0001};
  cache_grid.rounds = 2;
  cache_grid.warmup = 0;
  const auto cache_specs = cache_grid.expand();

  // Analysis-only comparison over the expanded cells (n = 32 at f = 3 is
  // past the exhaustive subset budget, so each analysis is the sampled BFS
  // walk — the expensive regime the cache exists for).
  auto cell_config = [](const runner::ScenarioSpec& spec) {
    relay::RelayConfig config;
    config.topology =
        spec.topology == runner::TopologyKind::kChordalRing
            ? relay::Topology::chordal_ring(spec.n, 2)
            : relay::Topology::ring_of_cliques(spec.n / 4, 4, 2);
    config.hop_model = bench::bench_model(spec.n, spec.f, spec.u,
                                          spec.vartheta, spec.d);
    config.faulty = sim::default_faulty_set(spec.f_actual);
    config.fault_kind = spec.relay_fault;
    return config;
  };
  const auto uncached_start = std::chrono::steady_clock::now();
  for (const auto& spec : cache_specs)
    (void)relay::compute_effective(cell_config(spec));
  const double uncached_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    uncached_start)
          .count();
  relay::EffectiveCache analysis_cache;
  const auto cached_start = std::chrono::steady_clock::now();
  for (const auto& spec : cache_specs) {
    // Key shape mirrors the runner's: family, n, f, faulty set (seed only
    // matters for the random family, absent from this grid).
    const std::uint64_t key =
        (static_cast<std::uint64_t>(spec.topology) << 32) ^
        (spec.n << 16) ^ (spec.f << 8) ^ spec.f_actual;
    (void)analysis_cache.get(key, cell_config(spec));
  }
  const double cached_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cached_start)
          .count();

  // End-to-end: same grid through run_sweep with the cache off and on.
  runner::RunnerOptions no_cache;
  no_cache.relay_cache = false;
  const auto off_start = std::chrono::steady_clock::now();
  (void)runner::run_sweep(cache_specs, no_cache);
  const double sweep_off = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - off_start)
                               .count();
  const auto on_start = std::chrono::steady_clock::now();
  (void)runner::run_sweep(cache_specs, {});
  const double sweep_on = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - on_start)
                              .count();

  util::Table cache_table(
      "E13: relay compute_effective memo cache (" +
      std::to_string(cache_specs.size()) +
      " cells: 2 sparse families x 4 relay faults, n=32 at max fault load)");
  cache_table.set_header(
      {"path", "seconds", "speedup", "analyses", "cache hits"});
  cache_table.add_row({"analysis uncached", util::Table::num(uncached_secs, 3),
                       "1x", std::to_string(cache_specs.size()), "-"});
  cache_table.add_row(
      {"analysis memoized", util::Table::num(cached_secs, 3),
       util::Table::num(uncached_secs / std::max(cached_secs, 1e-9), 2) + "x",
       std::to_string(analysis_cache.misses()),
       std::to_string(analysis_cache.hits())});
  cache_table.add_row({"run_sweep cache off", util::Table::num(sweep_off, 3),
                       "1x", std::to_string(cache_specs.size()), "-"});
  cache_table.add_row(
      {"run_sweep cache on", util::Table::num(sweep_on, 3),
       util::Table::num(sweep_off / std::max(sweep_on, 1e-9), 2) + "x", "-",
       "-"});
  bench::print(cache_table);

  // E14: engine fast-path throughput. Broadcast-heavy complete-world cell:
  // CPS at n=192, fault-free, split delays — every broadcast is two
  // delivery segments on one queue entry on the fast path versus 191
  // per-receiver events on the reference path. The abstract-crypto row runs
  // the same signature scheme as real crypto (payload digests are memoized either way), so it
  // repeats the batched measurement under the `abstract` label. Same seeds,
  // byte-identical results; only wall clock may differ.
  runner::SweepGrid fp_grid;
  fp_grid.protocols = {baselines::ProtocolKind::kCps};
  fp_grid.ns = {192};
  fp_grid.fault_loads = {0};
  fp_grid.delays = {sim::DelayKind::kSplit};
  fp_grid.us = {0.01};
  fp_grid.varthetas = {1.001};
  fp_grid.rounds = 8;
  fp_grid.warmup = 2;
  const auto fp_specs = fp_grid.expand();
  auto fp_spec = fp_specs.at(0);

  runner::RunnerOptions reference_options;
  reference_options.fast_path = false;
  const auto reference = timed_scenario(fp_spec, reference_options);
  const auto batched = timed_scenario(fp_spec, {});
  auto abstract_spec = fp_spec;
  abstract_spec.crypto = runner::CryptoMode::kAbstract;
  const auto fast = timed_scenario(abstract_spec, {});

  E14Summary summary;
  summary.reference_events_per_sec = reference.events_per_sec();
  summary.batched_events_per_sec = batched.events_per_sec();
  summary.fast_events_per_sec = fast.events_per_sec();
  summary.speedup = fast.events_per_sec() /
                    std::max(reference.events_per_sec(), 1e-9);
  summary.cost_ratio = fast.seconds / std::max(reference.seconds, 1e-9);
  summary.grid = runner::grid_digest(fp_specs, 1);

  util::Table fp_table(
      "E14: engine fast path — broadcast-heavy complete cell (CPS n=192, "
      "fault-free, split delays; identical results, wall clock only)");
  fp_table.set_header(
      {"configuration", "events", "seconds", "events/sec", "speedup"});
  add_speed_row(fp_table, "per-receiver reference", reference, reference);
  add_speed_row(fp_table, "batched delivery", batched, reference);
  add_speed_row(fp_table, "batched delivery, abstract label", fast,
                reference);
  bench::print(fp_table);

  // The same cell under random delays: nearly every receiver is its own
  // delivery segment, so the fast path saves queue entries (one per
  // broadcast instead of one per receiver), not pops. Two rounds (one
  // warmup) keep the pair to ~20 s on a 4-core x86 host. Reported only; the
  // grid digest and the gated cost ratio stay on the split-delay rows above.
  auto random_spec = fp_spec;
  random_spec.delay = sim::DelayKind::kRandom;
  random_spec.rounds = 2;
  random_spec.warmup = 1;
  const auto random_reference = timed_scenario(random_spec, reference_options);
  const auto random_batched = timed_scenario(random_spec, {});
  summary.random_reference_events_per_sec = random_reference.events_per_sec();
  summary.random_batched_events_per_sec = random_batched.events_per_sec();
  summary.random_speedup =
      random_batched.events_per_sec() /
      std::max(random_reference.events_per_sec(), 1e-9);

  util::Table random_table(
      "E14r: engine fast path — the same cell under random delays, 2 "
      "rounds (identical results, wall clock only)");
  random_table.set_header(
      {"configuration", "events", "seconds", "events/sec", "speedup"});
  add_speed_row(random_table, "per-receiver reference", random_reference,
                random_reference);
  add_speed_row(random_table, "batched delivery", random_batched,
                random_reference);
  bench::print(random_table);

  // A max-fault cell: CPS n=64 with f = 31 split-strategy Byzantine nodes.
  // Their echoes are broadcasts of signatures they received, so once the
  // Dolev–Yao check passes they ride the segment walk like honest ones;
  // their own deviant pulses stay per-receiver sends. The pair takes about
  // 0.5 s in Release on a 4-core x86 host. Reported only, like E14r.
  runner::SweepGrid faulty_grid = fp_grid;
  faulty_grid.ns = {64};
  faulty_grid.fault_loads = {runner::SweepGrid::kMaxResilience};
  faulty_grid.strategies = {core::ByzStrategy::kSplit};
  faulty_grid.rounds = 4;
  faulty_grid.warmup = 1;
  const auto faulty_spec = faulty_grid.expand().at(0);
  const auto faulty_reference = timed_scenario(faulty_spec, reference_options);
  const auto faulty_batched = timed_scenario(faulty_spec, {});
  summary.faulty_reference_events_per_sec = faulty_reference.events_per_sec();
  summary.faulty_batched_events_per_sec = faulty_batched.events_per_sec();
  summary.faulty_speedup = faulty_batched.events_per_sec() /
                           std::max(faulty_reference.events_per_sec(), 1e-9);

  util::Table faulty_table(
      "E14f: engine fast path — max-fault cell (CPS n=64, f=" +
      std::to_string(faulty_spec.f_actual) +
      ", byz=split, split delays, 4 rounds; identical results, wall clock "
      "only)");
  faulty_table.set_header(
      {"configuration", "events", "seconds", "events/sec", "speedup"});
  add_speed_row(faulty_table, "per-receiver reference", faulty_reference,
                faulty_reference);
  add_speed_row(faulty_table, "batched delivery", faulty_batched,
                faulty_reference);
  bench::print(faulty_table);

  // E15: the dynamic-network world's price tag. The same flood-probe
  // hypercube cell at rising churn rates — churn 0 is the static engine
  // path (schedule machinery bypassed entirely), so the throughput delta is
  // the full cost of epoch deltas, flood re-forwarding, and retained-flood
  // bookkeeping. local vs global skew shows what the gradient metric buys:
  // the global max is dominated by transients a local (per-edge) lens
  // filters out.
  std::vector<E15Row> churn_rows;
  {
    runner::SweepGrid churn_grid;
    churn_grid.worlds = {runner::WorldKind::kRelay};
    churn_grid.protocols = {baselines::ProtocolKind::kFloodProbe};
    churn_grid.topologies = {runner::TopologyKind::kHypercube};
    churn_grid.cryptos = {runner::CryptoMode::kAbstract};
    churn_grid.ns = {1024};
    churn_grid.fault_loads = {0};
    churn_grid.delays = {sim::DelayKind::kSplit};
    churn_grid.rounds = 8;
    churn_grid.warmup = 2;
    churn_grid.churn_rates = {0.0, 0.02, 0.1};
    auto churn_specs = churn_grid.expand();

    // One gradient-protocol row at the heaviest churn rate: neighbor-cast
    // (no re-flooding) against the probe's full flood on the same churned
    // cell — the throughput headroom the bounded-rate protocol buys.
    churn_grid.protocols = {baselines::ProtocolKind::kGradient};
    churn_grid.churn_rates = {0.1};
    for (auto& spec : churn_grid.expand()) churn_specs.push_back(spec);

    util::Table churn_table(
        "E15: churned flood (hypercube 2^10, abstract crypto, 8 rounds; "
        "churn = fraction of edges rewired per round)");
    churn_table.set_header({"protocol", "churn", "live", "events", "seconds",
                            "events/sec", "max skew", "local skew"});
    for (const auto& spec : churn_specs) {
      const auto run = timed_scenario(spec, {});
      churn_rows.push_back({baselines::to_string(spec.protocol),
                            spec.churn_rate, run.events_per_sec(),
                            run.result.max_skew, run.result.local_skew});
      churn_table.add_row(
          {baselines::to_string(spec.protocol),
           util::Table::num(spec.churn_rate, 2),
           run.result.live ? "yes" : "NO",
           std::to_string(run.result.events),
           util::Table::num(run.seconds, 3),
           util::Table::num(run.events_per_sec(), 0),
           util::Table::num(run.result.max_skew, 4),
           util::Table::num(run.result.local_skew, 4)});
    }
    bench::print(churn_table);
  }

  // E16: what does observing the traffic buy the adversary? The witness
  // cell (ST over the 2^5 hypercube at max fault load, worst-case
  // deterministic delays) under every oblivious fault kind, then the
  // traffic-observing greedy-skew policy and the budgeted random search
  // (budget 8). Same topology, faulty set, and seed per row — only the
  // adversary's information changes, so the skew_ratio column is a direct
  // measurement of the adaptive gap. Every row must stay inside the
  // Theorem-17 bound at (d_eff, u_eff): adaptivity sharpens the attack, it
  // never escapes the model.
  std::vector<E16Row> adaptive_rows;
  {
    auto witness_spec = [](relay::RelayFaultKind fault) {
      runner::ScenarioSpec spec;
      spec.world = runner::WorldKind::kRelay;
      spec.topology = runner::TopologyKind::kHypercube;
      spec.protocol = baselines::ProtocolKind::kSrikanthToueg;
      spec.n = 32;
      spec.f = runner::max_topology_faults(runner::TopologyKind::kHypercube,
                                           32);
      spec.f_actual = spec.f;
      spec.u = 0.05;
      spec.u_tilde = 0.05;
      spec.vartheta = 1.01;
      spec.delay = sim::DelayKind::kMax;
      spec.relay_fault = fault;
      spec.rounds = 10;
      spec.warmup = 3;
      return spec;
    };
    const relay::RelayFaultKind kinds[] = {
        relay::RelayFaultKind::kCrash, relay::RelayFaultKind::kMaxDelay,
        relay::RelayFaultKind::kReorder, relay::RelayFaultKind::kSelectiveDrop,
        relay::RelayFaultKind::kGreedySkew, relay::RelayFaultKind::kSearch};

    util::Table adaptive_table(
        "E16: adaptive vs oblivious relay adversaries (ST, hypercube 2^5 at "
        "max fault load, worst-case delays; search budget 8)");
    adaptive_table.set_header({"fault kind", "adaptive", "ratio", "ok",
                               "attack iters", "best seed", "seconds"});
    for (const auto kind : kinds) {
      auto spec = witness_spec(kind);
      if (kind == relay::RelayFaultKind::kSearch) spec.search_budget = 8;
      const auto run = timed_scenario(spec, {});
      adaptive_rows.push_back({relay::to_string(kind),
                               relay::adaptive(kind), run.result.skew_ratio,
                               run.result.within_bound,
                               run.result.attack_iters,
                               run.result.attack_best_seed, run.seconds});
      adaptive_table.add_row(
          {relay::to_string(kind), relay::adaptive(kind) ? "yes" : "no",
           util::Table::num(run.result.skew_ratio, 4),
           run.result.within_bound ? "yes" : "NO",
           std::to_string(run.result.attack_iters),
           std::to_string(run.result.attack_best_seed),
           util::Table::num(run.seconds, 3)});
    }
    bench::print(adaptive_table);
  }

  // E14b: one 2^20-node hypercube flood-probe cell (sparse world at the
  // million-node mark) under a hard wall budget — the cell must finish, not
  // just start.
  if (!skip_large) {
    runner::SweepGrid large_grid;
    large_grid.worlds = {runner::WorldKind::kRelay};
    large_grid.protocols = {baselines::ProtocolKind::kFloodProbe};
    large_grid.topologies = {runner::TopologyKind::kHypercube};
    large_grid.cryptos = {runner::CryptoMode::kAbstract};
    large_grid.ns = {1u << 20};
    large_grid.fault_loads = {0};
    large_grid.delays = {sim::DelayKind::kSplit};
    large_grid.rounds = 2;
    large_grid.warmup = 0;
    runner::RunnerOptions large_options;
    large_options.budget_ms = 300000.0;
    const auto large = timed_scenario(large_grid.expand().at(0),
                                      large_options);
    summary.large_n_nodes = 1u << 20;
    summary.large_n_seconds = large.seconds;
    summary.large_n_events_per_sec = large.events_per_sec();
    summary.large_n_timed_out = large.result.timed_out;

    util::Table large_table(
        "E14b: million-node flood (hypercube 2^20, probe, abstract crypto, "
        "2 rounds, 300 s budget)");
    large_table.set_header(
        {"nodes", "events", "seconds", "events/sec", "within budget"});
    large_table.add_row({std::to_string(1u << 20),
                         std::to_string(large.result.events),
                         util::Table::num(large.seconds, 1),
                         util::Table::num(large.events_per_sec(), 0),
                         large.result.timed_out ? "NO" : "yes"});
    bench::print(large_table);
    if (large.result.timed_out) return 1;
  }

  if (json_path) write_json(*json_path, summary, churn_rows, adaptive_rows);

  // Trend gate on the dimensionless cost ratio (fast/reference wall clock):
  // machine speed cancels out, so a rising ratio means the fast path itself
  // regressed. Rides the sweep history machinery — same file format, same
  // baseline/comparability rules (keyed by the E14 grid digest).
  if (history_path) {
    runner::HistoryEntry entry;
    entry.seed = 1;
    entry.grid = summary.grid;
    entry.cells = 3;
    entry.worlds.push_back({runner::WorldKind::kComplete,
                            {{{summary.cost_ratio, summary.cost_ratio, 1}}}});
    if (gate_trend) {
      std::ifstream in(*history_path);
      const auto baseline = runner::load_baseline(in, entry.grid);
      const auto failures = runner::check_trend(baseline, entry, *gate_trend);
      if (!failures.empty()) {
        for (const auto& f : failures)
          std::cerr << "bench_sweep: trend gate: " << f << "\n";
        return 1;  // baseline preserved: the regressed run is not appended
      }
    }
    runner::append_history(*history_path, entry);
  }
  return 0;
}

}  // namespace crusader

int main(int argc, char** argv) {
  std::optional<std::string> json_path;
  std::optional<std::string> history_path;
  std::optional<double> gate_trend;
  bool skip_large = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--json=", 0) == 0) {
      json_path = value("--json=");
    } else if (arg.rfind("--history=", 0) == 0) {
      history_path = value("--history=");
    } else if (arg.rfind("--gate-trend=", 0) == 0) {
      const auto pct =
          crusader::runner::parse_double_strict(value("--gate-trend="));
      if (!pct || *pct < 0.0) {
        std::cerr << "bench_sweep: --gate-trend takes a percentage >= 0\n";
        return 2;
      }
      gate_trend = *pct;
    } else if (arg == "--skip-large") {
      skip_large = true;
    } else {
      std::cerr << "bench_sweep: unknown flag " << arg
                << " (flags: --json=PATH --history=PATH --gate-trend=PCT "
                   "--skip-large)\n";
      return 2;
    }
  }
  return crusader::run_bench(json_path, history_path, gate_trend, skip_large);
}
