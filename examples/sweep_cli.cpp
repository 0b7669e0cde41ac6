// sweep_cli — run a declarative scenario sweep from one invocation.
//
//   $ ./sweep_cli                                # default 36-scenario sweep
//   $ ./sweep_cli --protocols=cps,st --n=4,5 --faults=0 --rounds=6
//                 --threads=2 --format=table     # CI smoke sweep (one line)
//   $ ./sweep_cli --world relay --topology hypercube --format=csv
//   $ ./sweep_cli --world theorem5 --u-tilde 0.2
//   $ ./sweep_cli --format=csv --out=camp.csv --resume=camp.manifest
//                 --budget-ms=2000 --history=ratios.txt --gate-trend=5
//
// Flags take `--key=value` or `--key value`. Axes (comma-separated lists
// expand to the cross product; SweepGrid::set_axis reads them, one row of
// kAxisRows in runner/scenario.cpp per axis). Every axis list needs at least
// one value — an empty one exits 2 rather than silently dropping the cells
// that read the axis — except --u-tilde, where empty means ũ = u. Enum
// values also take the names the output prints (CPS, Lynch-Welch,
// Srikanth-Toueg):
//   --world=complete,relay,theorem5  simulation worlds (complete graph /
//                                    Appendix-A sparse relay / Theorem-5
//                                    lower-bound construction)
//   --protocols=cps,lw,st,probe,gradient,jump-max  protocol kinds (probe =
//                              the flood-probe transport conformance check;
//                              gradient/jump-max = the one-hop KLLO-style
//                              pair — bounded-rate vs jump-to-max clock
//                              adjustment over current neighbors only;
//                              theorem5 skips all three)
//   --n=4,7,9                  cluster sizes (relay: topology size;
//                              theorem5 pins n=3)
//   --faults=0,max             faulty-node counts ("max" = the protocol's
//                              optimal resilience at that n, capped by the
//                              topology's connectivity for relay worlds)
//   --vartheta=1.01            clock drift bounds (each > 1)
//   --u=0.05                   delay uncertainties (per-hop u_hop for relay;
//                              each in [0, --d/2), which the echo guard
//                              d - 2u > 0 needs)
//   --u-tilde=0.1,0.2          faulty-link uncertainties ũ (default: ũ = u);
//                              the Theorem-5 construction's ũ
//   --topology=ring,hypercube  relay topology families (complete|ring|
//                              chordal-ring|ring-of-cliques|hypercube|random)
//   --relay-fault=crash,reorder  faulty-relay behaviors for relay worlds
//                              (crash|max-delay|reorder|selective-drop|
//                              greedy-skew|search); only multiplies faulty
//                              relay grid points. greedy-skew/search are
//                              adaptive (traffic-observing) and additionally
//                              multiply the churn axes
//   --delays=random,split      delay policies (max|min|random|split), plus
//                              custom spellings: custom:fixed:<fraction>,
//                              custom:alternate, custom:target:<node>
//                              (--delay is accepted as an alias)
//   --clocks=spread,random-walk  clock assignments (nominal|spread|random-walk)
//   --crypto=real,abstract     crypto row labels; both run the same
//                              digest-memoized signature registry, so
//                              results are identical (theorem5 collapses
//                              the axis)
//   --byz=crash,split          Byzantine strategies (only for faults > 0);
//                              also accepts st-accel
//   --churn-rate=0,0.05        per-epoch edge-rewire rates (fraction of the
//                              live edge set rewired each round; relay-only,
//                              fault-free cells — a rate of 0 is the static
//                              network and collapses with the other dynamic
//                              axes into the classic cell)
//   --join-batch=0,2           nodes leaving/rejoining per epoch (relay-only;
//                              node n-1 anchors the beacon and never leaves)
//   --reconnect=random,repair  reconnect policies for churned edges
//                              (random|preferential|ring-repair)
//   --kllo-stab=1,4            KLLO stabilization-time multipliers: the
//                              per-edge-age envelope declares an edge
//                              settled after ceil(mult·(1+log2 n)) rounds
//                              (relay-only; multiplies churned cells only —
//                              static cells pin the multiplier to 1)
//   --search-budget=8,32       candidate schedules per search-fault cell
//                              (multiplies relay-fault=search cells only;
//                              candidate 0 replays the greedy policy, so
//                              search weakly dominates greedy-skew)
// Scalars:
//   --d=1.0 --rounds=20 --warmup=5 --seed=1 --threads=1 --slack=1.0
//                  (--d > 0, --slack >= 1, --rounds >= 1, --warmup <
//                  --rounds, --threads <= 1024; every --u < --d/2)
//   --gate=RATIO   fail (exit 1) when any scenario errored/timed out or any
//                  feasible completed scenario has max_skew/bound > RATIO —
//                  or, for theorem5 scenarios, fails to realize its lower
//                  bound
//   --gate-local=RATIO  fail (exit 1) when any scenario's local (gradient)
//                  skew ratio local_skew/bound exceeds RATIO; the natural
//                  gate for dynamic (churned) cells, where the global gate
//                  is dominated by partition-transient rounds
//   --gate-kllo=RATIO  fail (exit 1) when any relay scenario's kllo_ratio —
//                  worst per-edge skew over the per-edge-AGE envelope
//                  (runner/kllo.hpp) — exceeds RATIO. 1.0 gates on the
//                  envelope itself: fresh edges get the settling allowance,
//                  settled edges must sit inside the O(log n) band, which is
//                  exactly where jump-to-max fails and gradient passes.
//                  Every gate RATIO is >= 0 (0 is legal: any positive
//                  ratio trips it)
//   --budget-ms=N  per-scenario wall-clock budget: a cell that exhausts it
//                  is aborted and exported with timed_out=1 instead of
//                  hanging the sweep
// Campaigns (streamed, resumable CSV):
//   --resume=FILE  checkpoint manifest path; requires --format=csv --out.
//                  Results stream to the CSV as they complete (memory stays
//                  O(threads) however large the grid) and completed spec
//                  digests checkpoint to FILE every --checkpoint-every=N
//                  rows (default 32). Re-running the same command after a
//                  kill resumes: already-recorded rows are skipped and the
//                  final CSV is byte-identical to an uninterrupted run.
// skew_ratio history:
//   --history=FILE    append one summary line per run (max/mean skew_ratio
//                     per world, tagged with a digest of the grid + seed)
//                     to FILE
//   --gate-trend=PCT  fail (exit 1) when any world's max skew_ratio
//                     regressed more than PCT percent over the baseline, or
//                     when any cell errored/timed out. The baseline is the
//                     last --history entry for the SAME grid + seed that
//                     completed cleanly (entries from other grids and
//                     errored/timed-out runs are never a baseline; with no
//                     comparable entry the trend check passes). A regressed
//                     run is NOT appended, so the baseline stays.
// Output:
//   --format=csv|json|table (default table)   --out=FILE (default stdout)
//
// Exit status is non-zero if any scenario errored or timed out, any feasible
// fault-free CPS scenario exceeded its Theorem-17 skew bound, or the --gate
// or --gate-trend tripped. Malformed flag values exit 2 naming the flag.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/export.hpp"
#include "runner/history.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

using namespace crusader;

namespace {

int fail(const std::string& msg) {
  std::cerr << "sweep_cli: " << msg << "\n";
  return 2;
}

/// A value that parsed but lies outside the flag's range.
int out_of_range(const std::string& flag, const std::string& what,
                 const std::string& value) {
  return fail("--" + flag + " takes " + what + ", got '" + value + "'");
}

/// Strict numeric scalar flags: anything std::from_chars does not consume
/// completely — "abc", "1.5x", "-3" for unsigned flags, inf/nan, overflow —
/// throws, and main exits 2 naming the flag. (Bare std::stod/std::stoul
/// accept partial parses and wrap negatives, which is how "--gate=1.0x" used
/// to gate at 1.0 silently.)
double need_double(const std::string& key, const std::string& value) {
  const auto parsed = runner::parse_double_strict(value);
  if (!parsed)
    throw std::invalid_argument("bad numeric value for --" + key + ": '" +
                                value + "'");
  return *parsed;
}

std::uint64_t need_u64(const std::string& key, const std::string& value) {
  const auto parsed = runner::parse_u64_strict(value);
  if (!parsed)
    throw std::invalid_argument("bad numeric value for --" + key + ": '" +
                                value + "'");
  return *parsed;
}

/// The kRatioGates row that `key` (a dash or underscore spelling of its
/// flag) names, or std::size(runner::kRatioGates) when none does.
std::size_t ratio_gate_row(std::string key) {
  std::replace(key.begin(), key.end(), '_', '-');
  std::size_t g = 0;
  while (g < std::size(runner::kRatioGates) &&
         runner::kRatioGates[g].flag != key)
    ++g;
  return g;
}

void print_table(std::ostream& os, const runner::SweepReport& report) {
  util::Table table("scenario sweep (" +
                    std::to_string(report.results.size()) + " scenarios)");
  table.set_header({"scenario", "feasible", "live", "steady skew", "bound",
                    "ratio", "ok", "messages", "violations", "error"});
  for (const auto& r : report.results) {
    table.add_row({r.spec.name(), util::Table::boolean(r.feasible),
                   util::Table::boolean(r.live),
                   r.rounds_completed ? util::Table::num(r.steady_skew, 4) : "-",
                   r.feasible ? util::Table::num(r.predicted_skew, 4) : "-",
                   r.rounds_completed ? util::Table::num(r.skew_ratio, 3) : "-",
                   util::Table::boolean(r.within_bound),
                   std::to_string(r.messages), std::to_string(r.violations),
                   r.timed_out ? "TIMED OUT"
                               : (r.error.empty() ? "-" : r.error)});
  }
  table.print(os);

  util::Table summary("per-protocol summary (feasible, error-free scenarios)");
  summary.set_header({"protocol", "scenarios", "infeasible", "errors",
                      "timed out", "bound violations", "steady skew mean",
                      "steady skew max", "messages mean"});
  for (const auto& s : report.by_protocol()) {
    summary.add_row(
        {baselines::to_string(s.protocol), std::to_string(s.scenarios),
         std::to_string(s.infeasible), std::to_string(s.errors),
         std::to_string(s.timed_out), std::to_string(s.bound_violations),
         s.steady_skew.count() ? util::Table::num(s.steady_skew.mean(), 4) : "-",
         s.steady_skew.count() ? util::Table::num(s.steady_skew.max(), 4) : "-",
         s.messages.count() ? util::Table::num(s.messages.mean(), 1) : "-"});
  }
  os << '\n';
  summary.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  runner::SweepGrid grid;
  // Default sweep: the paper's headline comparison across n, f, and delay
  // policies — 3 protocols × 3 n × {fault-free, max resilience} × 2 delay
  // policies = 36 scenarios.
  grid.protocols = {baselines::ProtocolKind::kCps,
                    baselines::ProtocolKind::kLynchWelch,
                    baselines::ProtocolKind::kSrikanthToueg};
  grid.ns = {};  // set after the flags: the default depends on --world
  grid.fault_loads = {0, runner::SweepGrid::kMaxResilience};
  grid.delays = {sim::DelayKind::kRandom, sim::DelayKind::kSplit};
  grid.strategies = {core::ByzStrategy::kCrash};

  runner::RunnerOptions options;
  std::string format = "table";
  std::string out_path;
  std::string resume_path;
  std::string history_path;
  std::size_t checkpoint_every = 32;
  std::optional<double> gate;
  std::optional<double> gate_trend;
  // Streaming accumulators: the gate, the history line, and the fault-free
  // CPS auto-gate are all computed row by row, so the campaign path never
  // retains a report. The ratio-gate thresholds land here as flags are read.
  runner::SweepSummary summary;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      return fail("expected --key=value or --key value, got '" + arg + "'");
    const auto eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      key = arg.substr(2);
      if (i + 1 >= argc)
        return fail("missing value for --" + key);
      value = argv[++i];
    }
    try {
      if (grid.set_axis(key, value)) continue;
      if (key == "d") {
        grid.d = need_double(key, value);
        if (grid.d <= 0.0) return out_of_range("d", "a delay > 0", value);
      } else if (key == "rounds") {
        const auto rounds = need_u64(key, value);
        if (rounds == 0) return out_of_range("rounds", "a count >= 1", value);
        grid.rounds = static_cast<std::size_t>(rounds);
      } else if (key == "warmup") {
        grid.warmup = static_cast<std::size_t>(need_u64(key, value));
      } else if (key == "slack") {
        grid.slack = need_double(key, value);
        if (grid.slack < 1.0)
          return out_of_range("slack", "a factor >= 1", value);
      } else if (key == "seed") {
        options.base_seed = need_u64(key, value);
      } else if (key == "threads") {
        const auto threads = need_u64(key, value);
        if (threads > 1024)
          return out_of_range("threads", "a count <= 1024", value);
        options.threads = static_cast<unsigned>(threads);
      } else if (key == "gate") {
        gate = need_double(key, value);
        if (*gate < 0.0) return out_of_range("gate", "a ratio >= 0", value);
      } else if (const auto g = ratio_gate_row(key);
                 g < std::size(runner::kRatioGates)) {
        const double ratio = need_double(key, value);
        if (ratio < 0.0)
          return out_of_range(std::string(runner::kRatioGates[g].flag),
                              "a ratio >= 0", value);
        summary.ratio_gates[g] = ratio;
      } else if (key == "gate-trend" || key == "gate_trend") {
        const double pct = need_double(key, value);
        if (pct < 0.0)
          return out_of_range("gate-trend", "a percentage >= 0", value);
        gate_trend = pct;
      } else if (key == "budget-ms" || key == "budget_ms") {
        const double budget = need_double(key, value);
        if (budget < 0.0)
          return out_of_range("budget-ms", "milliseconds >= 0", value);
        options.budget_ms = budget;
      } else if (key == "resume") {
        resume_path = value;
      } else if (key == "checkpoint-every" || key == "checkpoint_every") {
        const auto every = need_u64(key, value);
        if (every == 0)
          return fail("--checkpoint-every takes a row count >= 1");
        checkpoint_every = static_cast<std::size_t>(every);
      } else if (key == "history") {
        history_path = value;
      } else if (key == "format") {
        if (value != "csv" && value != "json" && value != "table")
          return fail("unknown format '" + value + "'");
        format = value;
      } else if (key == "out") {
        out_path = value;
      } else {
        return fail("unknown option '--" + key + "'");
      }
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    } catch (const std::exception&) {
      return fail("bad value for --" + key + ": '" + value + "'");
    }
  }

  if (!resume_path.empty() && (format != "csv" || out_path.empty()))
    return fail("--resume requires --format=csv and --out=FILE");
  if (gate_trend && history_path.empty())
    return fail("--gate-trend requires --history=FILE");
  // Steady-state statistics read rounds [warmup, rounds); an empty window
  // would leave steady_skew and the percentiles blank on every row.
  if (grid.warmup >= grid.rounds)
    return out_of_range("warmup",
                        "a count < --rounds (" + std::to_string(grid.rounds) +
                            ")",
                        std::to_string(grid.warmup));
  // Every world's model needs the echo guard d - 2u > 0 (--d may follow
  // --u, so this waits for the last flag); the --u reader refused u < 0.
  for (const double u : grid.us)
    if (2.0 * u >= grid.d)
      return out_of_range("u",
                          "uncertainties < --d/2 (" +
                              util::fmt_double(grid.d / 2.0) + ")",
                          util::fmt_double(u));

  // The flat-world default n axis {4,7,9} makes poor sparse topologies (a
  // hypercube needs a power of two). When every requested world is
  // relay/theorem5 and no --n was given, default to one topology-friendly
  // size instead. (--n never leaves the axis empty: set_axis refuses that.)
  if (grid.ns.empty()) {
    const bool any_complete =
        std::find(grid.worlds.begin(), grid.worlds.end(),
                  runner::WorldKind::kComplete) != grid.worlds.end();
    grid.ns = any_complete ? std::vector<std::uint32_t>{4, 7, 9}
                           : std::vector<std::uint32_t>{8};
  }

  const auto specs = grid.expand();
  if (specs.empty()) return fail("empty grid");

  summary.gate_ratio = gate;
  bool cps_bound_violated = false;
  auto note = [&](const runner::ScenarioResult& r) {
    summary.add(r);
    // Dynamic cells are excluded from the CPS auto-gate: the Theorem-17
    // bound is derived for a fixed topology, and a churned cell answers to
    // liveness plus the local (gradient) gate instead.
    if (r.spec.protocol == baselines::ProtocolKind::kCps && r.feasible &&
        r.spec.world != runner::WorldKind::kTheorem5 && r.spec.f_actual == 0 &&
        !r.spec.dynamic() && r.rounds_completed > 0 && !r.within_bound)
      cps_bound_violated = true;
  };

  if (!resume_path.empty()) {
    // Campaign mode: ordered CSV append + checkpoint manifest + resume.
    std::optional<runner::CsvCampaign> campaign;
    try {
      campaign.emplace(
          runner::CsvCampaign::Options{out_path, resume_path, checkpoint_every,
                                       options.base_seed},
          specs, note);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
    const std::size_t done = campaign->resume_index();
    const std::vector<runner::ScenarioSpec> todo(specs.begin() + done,
                                                 specs.end());
    try {
      runner::run_sweep_streamed(todo, options,
                                 [&](const runner::ScenarioResult& r) {
                                   campaign->append(r);
                                   note(r);
                                 });
      campaign->finish();
    } catch (const std::exception& e) {
      return fail(e.what());
    }
    std::cerr << "sweep_cli: campaign " << out_path << ": " << done
              << " row(s) resumed, " << todo.size() << " run\n";
  } else if (format == "csv") {
    // Plain CSV streams too — a 10k-cell grid to stdout/file needs no
    // report either.
    std::ofstream file;
    if (!out_path.empty()) {
      file.open(out_path);
      if (!file) return fail("cannot open '" + out_path + "'");
    }
    std::ostream& os = out_path.empty() ? std::cout : file;
    os << runner::csv_header() << '\n';
    runner::run_sweep_streamed(specs, options,
                               [&](const runner::ScenarioResult& r) {
                                 runner::write_csv_row(os, r);
                                 note(r);
                               });
    if (!os) return fail("cannot write '" + out_path + "'");
  } else {
    // table/json render the whole report; accumulate it.
    const auto report = runner::run_sweep(specs, options);
    for (const auto& r : report.results) note(r);

    std::ofstream file;
    if (!out_path.empty()) {
      file.open(out_path);
      if (!file) return fail("cannot open '" + out_path + "'");
    }
    std::ostream& os = out_path.empty() ? std::cout : file;
    if (format == "json")
      runner::write_json(os, report);
    else
      print_table(os, report);
  }

  // Gates: no errors or budget timeouts; fault-free CPS always within the
  // Theorem-17 bound; the optional --gate ratio over every world's
  // realized-vs-bound ratio; and the optional --gate-trend regression check
  // against the recorded history baseline.
  int status = 0;
  if (summary.errors > 0 || summary.timed_out > 0) status = 1;
  if (cps_bound_violated) status = 1;
  if (gate && summary.gate_violations > 0) {
    std::cerr << "sweep_cli: --gate=" << *gate << " tripped by "
              << summary.gate_violations << " scenario(s)\n";
    status = 1;
  }
  for (std::size_t g = 0; g < std::size(runner::kRatioGates); ++g) {
    if (!summary.ratio_gates[g] || summary.ratio_gate_violations[g] == 0)
      continue;
    std::cerr << "sweep_cli: --" << runner::kRatioGates[g].flag << "="
              << *summary.ratio_gates[g] << " tripped by "
              << summary.ratio_gate_violations[g] << " scenario(s)\n";
    status = 1;
  }

  if (!history_path.empty()) {
    // The grid digest keys trend comparability: a baseline from a
    // different grid (or seed) is not a baseline for this run.
    const auto grid_key = runner::grid_digest(specs, options.base_seed);
    const auto entry =
        runner::make_history_entry(summary, options.base_seed, grid_key);
    try {
      bool append = true;
      if (gate_trend) {
        std::optional<runner::HistoryEntry> baseline;
        std::ifstream history(history_path);
        if (history) baseline = runner::load_baseline(history, grid_key);
        const auto failures =
            runner::check_trend(baseline, entry, *gate_trend);
        if (!failures.empty()) {
          for (const auto& failure : failures)
            std::cerr << "sweep_cli: --gate-trend=" << *gate_trend
                      << " failed: " << failure << "\n";
          // Keep the last good run as the baseline: a regressed run must
          // not ratchet the bar down for the next one.
          append = false;
          status = 1;
        }
      }
      if (append) runner::append_history(history_path, entry);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }

  if (status != 0)
    std::cerr
        << "sweep_cli: FAILED (errors, timeouts, bound violations, or gate)\n";
  return status;
}
