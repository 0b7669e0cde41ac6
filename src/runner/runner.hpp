#pragma once
// Scenario-sweep runner: executes a list of ScenarioSpecs on a worker-thread
// pool and aggregates per-scenario metrics. Results are deterministic in the
// spec list and base seed — each scenario derives its own RNG stream via
// Rng::fork keyed by the spec digest, and results land in spec order — so a
// sweep's CSV is byte-identical whether it ran on 1 thread or N.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace crusader::relay {
class EffectiveCache;
}  // namespace crusader::relay

namespace crusader::runner {

struct RunnerOptions {
  /// Root of the sweep's seed tree; scenario seeds are
  /// Rng(base_seed).fork(spec.key()).
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 1;
  /// Absolute tolerance when checking measured skew against the theoretical
  /// bound, and a ratio against its gate (floating-point headroom, not a
  /// semantic slack).
  static constexpr double bound_tolerance = 1e-9;
  /// Per-scenario wall-clock budget in milliseconds; 0 = unlimited. A
  /// scenario that exhausts it is aborted mid-run and reported with
  /// timed_out = true (metrics NaN) instead of hanging the sweep.
  double budget_ms = 0.0;
  /// Memoize the relay worlds' topology analysis (connectivity + worst-case
  /// hop distance) across the sweep — cells sharing (topology family, n, f,
  /// faulty set, topology seed) reuse one BFS walk, which is the ~4× setup
  /// cut on relay-fault axes. Off = recompute per scenario (bench baseline).
  bool relay_cache = true;
  /// Externally-owned cache (share across sweeps, inspect hit counts);
  /// overrides relay_cache when set. Not owned.
  relay::EffectiveCache* shared_relay_cache = nullptr;
  /// Engine fast path: batched broadcast/flood delivery through the message
  /// arena (WorldConfig::batch / RelayConfig::batch). Results are identical
  /// on or off — the toggle exists for the differential tests and the bench
  /// baseline, so it is an option, not a ScenarioSpec axis (no key/CSV
  /// impact).
  bool fast_path = true;
};

/// Everything measured for one scenario. Doubles are NaN when the scenario
/// was infeasible, errored, or produced no complete rounds.
struct ScenarioResult {
  static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  ScenarioSpec spec;
  std::uint64_t seed = 0;  ///< derived world seed (recorded for replay)
  bool feasible = false;
  bool live = false;  ///< every honest node completed `rounds` pulses
  std::size_t rounds_completed = 0;
  double max_skew = kNan;     ///< over all complete rounds
  double steady_skew = kNan;  ///< over rounds >= warmup
  double skew_p50 = kNan;
  double skew_p99 = kNan;
  double min_period = kNan;
  double max_period = kNan;
  /// The world's applicable theoretical bound: the protocol's skew upper
  /// bound (S, S_lw, or d-scale) for kComplete, the same bound computed from
  /// the effective (d_eff, u_eff) for kRelay, and the 2ũ/3 skew LOWER bound
  /// for kTheorem5.
  double predicted_skew = kNan;
  /// max_skew / predicted_skew. For upper-bound worlds ≤ 1 means conformant;
  /// for kTheorem5 ≥ 1 means the construction realized the bound.
  double skew_ratio = kNan;
  /// Gradient (KLLO-style) metric: max over rounds of the round's worst
  /// |p_i − p_j| over *currently live* edges of that round's graph. For
  /// kComplete/kTheorem5 every pair is an edge, so it equals max_skew; for
  /// kRelay it is at most max_skew and the correctness lens for dynamic
  /// cells, where the global bound's premises lapse mid-churn.
  double local_skew = kNan;
  /// local_skew / predicted_skew (same denominator as skew_ratio).
  double local_skew_ratio = kNan;
  /// KLLO per-edge-age envelope conformance (runner/kllo.hpp), kRelay only
  /// (NaN elsewhere): the worst, over complete rounds and live measured
  /// edges, of |p_v − p_w| divided by the envelope at that edge's current
  /// age. ≤ 1 means every edge sat inside the envelope — including fresh
  /// edges graded against the wide settling allowance — which is the
  /// transient-vs-violation distinction a flat local ratio cannot make.
  double kllo_ratio = kNan;
  /// Round-edge pairs whose envelope ratio exceeded 1 (kRelay, else 0).
  std::size_t kllo_violations = 0;
  /// Minimum age (rounds since appearance) over the live measured edges of
  /// the last complete round — the youngest edge the verdict rests on. For a
  /// static relay cell this is simply rounds − 1; NaN outside kRelay.
  double edge_age_min = kNan;
  /// Effective complete-graph model the relay overlay presented to the
  /// protocol (NaN for other worlds).
  double d_eff = kNan;
  double u_eff = kNan;
  std::uint32_t worst_hops = 0;  ///< relay D_f (0 elsewhere)
  /// Relay only: whether worst_hops came from the exhaustive walk (true) or
  /// the budget-bounded sample (false) — the CSV column history analytics
  /// use to segment sampled cells.
  bool d_eff_exact = false;
  /// kComplete/kRelay: max_skew <= predicted_skew (+tolerance).
  /// kTheorem5: the realized skew reached the lower bound (bound_holds).
  /// Only meaningful within the protocol's resilience; recorded regardless.
  bool within_bound = false;
  /// Adaptive relay adversaries only (relay::adaptive(spec.relay_fault) and
  /// f_actual > 0; 0/null elsewhere): how many candidate attack schedules
  /// the cell ran (1 for greedy-skew, spec.search_budget for search) and the
  /// winning candidate's attack seed (0 = the greedy baseline candidate).
  /// Replaying the cell with RelayConfig::attack_seed = attack_best_seed
  /// reproduces the winning skew_ratio bit-for-bit.
  std::uint32_t attack_iters = 0;
  std::uint64_t attack_best_seed = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t signatures_carried = 0;
  std::size_t violations = 0;
  /// The scenario exhausted RunnerOptions::budget_ms and was aborted
  /// mid-run; metrics are NaN and error stays empty (a budget abort is a
  /// scheduling outcome, not a world failure) but the gate counts it.
  bool timed_out = false;
  /// Non-empty when the world threw (the sweep keeps going).
  std::string error;
};

/// util::stats-backed cross-scenario aggregate for one protocol.
struct ProtocolSummary {
  baselines::ProtocolKind protocol = baselines::ProtocolKind::kCps;
  std::size_t scenarios = 0;
  std::size_t infeasible = 0;
  std::size_t errors = 0;
  std::size_t timed_out = 0;         ///< aborted by the wall-clock budget
  std::size_t bound_violations = 0;  ///< feasible, ran, and exceeded bound
  util::OnlineStats steady_skew;     ///< over feasible error-free scenarios
  util::OnlineStats messages;
};

struct SweepReport {
  std::vector<ScenarioResult> results;  ///< same order as the input specs

  [[nodiscard]] std::vector<ProtocolSummary> by_protocol() const;
  [[nodiscard]] std::size_t error_count() const;
};

/// Derive the world seed for `spec` under `base_seed` (exposed for tests and
/// for reproducing a single scenario out of a sweep).
[[nodiscard]] std::uint64_t scenario_seed(const ScenarioSpec& spec,
                                          std::uint64_t base_seed) noexcept;

/// Builds and runs the complete world of `spec` (spec.world is not read)
/// under `setup` at world seed `seed`: the world model (f = max(f, f_actual)),
/// horizon, faulty set, PKI kind, custom delay and Byzantine or ST-accelerator
/// factory. `max_rounds` caps honest pulses as in make_protocol_factory (0 =
/// run to the horizon, a few rounds past spec.rounds). run_scenario passes
/// (scenario_seed, spec.rounds, fast_path). Throws on a model violation.
[[nodiscard]] sim::RunResult run_complete_world(
    const ScenarioSpec& spec, const baselines::ProtocolSetup& setup,
    std::uint64_t seed, Round max_rounds = 0, bool batch = true);

/// Run one scenario to completion. Never throws: failures are reported in
/// ScenarioResult::error.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const RunnerOptions& options = {});

/// Streaming result consumer: invoked exactly once per spec, in spec order,
/// never concurrently (calls are serialized under the runner's flush lock).
using ResultSink = std::function<void(const ScenarioResult&)>;

/// Run every spec, farming scenarios out to `options.threads` workers, and
/// stream each result through `sink` in spec order as soon as it (and every
/// earlier spec) has completed. Memory stays O(threads): out-of-order
/// completions wait in a bounded reorder window and workers block when it
/// fills, so a 10k-scenario campaign never accumulates its report. A sink
/// exception aborts the sweep (no further scenarios start) and is rethrown
/// on the calling thread.
void run_sweep_streamed(const std::vector<ScenarioSpec>& specs,
                        const RunnerOptions& options, const ResultSink& sink);

/// Run every spec and accumulate the full report (run_sweep_streamed with an
/// accumulating sink — fine for grids that fit in memory).
[[nodiscard]] SweepReport run_sweep(const std::vector<ScenarioSpec>& specs,
                                    const RunnerOptions& options = {});

/// Per-round local skew: for each complete round r, the worst |p_i(r) −
/// p_j(r)| over edges of the round-r graph (schedule.at_epoch(r), down
/// nodes and metrics-excluded nodes skipped). Static topologies pass a
/// degenerate schedule. edge_metrics(...).local_skew (runner/kllo.hpp) over
/// the whole schedule; exposed for the dynamic-world tests, which assert
/// the series exists for every complete round and never exceeds the global
/// per-round skew.
[[nodiscard]] std::vector<double> local_skew_series(
    const sim::PulseTrace& trace, const relay::TopologySchedule& schedule);

/// Regression-gate predicate for one row: errored and timed-out scenarios
/// always violate (a green gate means every cell actually ran); infeasible
/// rows never do (the protocol provably cannot run there); dynamic cells
/// violate by failing liveness (Theorem 17's premises lapse mid-churn, so
/// the ratio is diagnostic, not a gate — use kRatioGates' local gate for
/// that); completed static rows violate when their realized-vs-bound ratio
/// is out of spec — skew_ratio > max_ratio for upper-bound worlds, bound
/// not realized (within_bound == false) for kTheorem5.
[[nodiscard]] bool violates_gate(const ScenarioResult& result,
                                 double max_ratio);

/// violates_gate summed over a report.
[[nodiscard]] std::size_t count_gate_violations(const SweepReport& report,
                                                double max_ratio);

/// One per-world trend series: a ratio summarized as (max, mean, count) over
/// the rows a filter admits. SweepSummary accumulates every series, each
/// history line carries each one as a `<prefix>max=..,<prefix>mean=..,
/// <prefix>count=..` triple, and the trend gate compares each one's max.
struct TrendSeries {
  /// Which feasible, error-free, in-budget rows feed the series.
  enum class Rows {
    kAll,
    /// Churned cells only: static cells would append the series' tokens to
    /// every existing history line.
    kDynamic,
    /// Relay cells with faults under an adaptive (greedy-skew or search)
    /// relay-fault kind — the empirical worst-case trend signal.
    kAdaptive,
  };
  std::string_view prefix;  ///< history token prefix
  std::string_view name;    ///< metric name in trend-gate messages
  Rows rows;
  double ScenarioResult::*value;
  /// The triple is always written and required on parse, and the trend gate
  /// skips a world whose count is 0 on either side. Optional series are
  /// written only when their count is above 0, so history lines of grids
  /// that never feed them keep their bytes.
  bool required;
};

/// Every trend series, in history-token and trend-message order. Adding a
/// series is one new row.
inline constexpr TrendSeries kTrendSeries[] = {
    {"", "skew_ratio", TrendSeries::Rows::kAll, &ScenarioResult::skew_ratio,
     true},
    {"l", "local_skew_ratio", TrendSeries::Rows::kDynamic,
     &ScenarioResult::local_skew_ratio, false},
    {"k", "kllo_ratio", TrendSeries::Rows::kDynamic,
     &ScenarioResult::kllo_ratio, false},
    {"a", "adaptive skew_ratio", TrendSeries::Rows::kAdaptive,
     &ScenarioResult::skew_ratio, false},
};

/// A per-row ratio gate beside --gate: `--<flag>=R` fails the sweep when any
/// row's `value` exceeds R. It binds on every row where the value is finite —
/// dynamic cells included, where the --gate ratio is suspended — and a NaN
/// row (errored, timed out, or outside the worlds that define the metric)
/// never counts: errors and timeouts are the main gate's business. Unlike
/// kTrendSeries there is no row filter.
struct RatioGate {
  std::string_view flag;  ///< without "--"; sweep_cli also takes '_' for '-'
  double ScenarioResult::*value;
};

/// Every ratio gate, in flag-reading and stderr-report order. Adding a gate
/// is one new row.
inline constexpr RatioGate kRatioGates[] = {
    // The world-aware gradient gate: local_skew / bound.
    {"gate-local", &ScenarioResult::local_skew_ratio},
    // The per-edge-age envelope gate (1.0 = the KLLO envelope itself),
    // defined on relay rows with completed rounds.
    {"gate-kllo", &ScenarioResult::kllo_ratio},
};

/// Streaming cross-scenario aggregate for the gate, the history file, and
/// the trend check: per-world trend-series stats plus failure counters,
/// accumulable one result at a time so large campaigns never retain rows.
struct SweepSummary {
  /// When set, add() also counts violates_gate(result, *gate_ratio).
  std::optional<double> gate_ratio;
  /// Per kRatioGates row: when set, add() counts the rows whose finite value
  /// exceeds it in the same row of ratio_gate_violations.
  std::array<std::optional<double>, std::size(kRatioGates)> ratio_gates;

  std::size_t scenarios = 0;
  std::size_t errors = 0;
  std::size_t timed_out = 0;
  std::size_t infeasible = 0;
  std::size_t gate_violations = 0;
  std::array<std::size_t, std::size(kRatioGates)> ratio_gate_violations{};

  struct WorldStats {
    WorldKind world = WorldKind::kComplete;
    /// One accumulator per kTrendSeries row, over the rows it admits that
    /// carry a finite value.
    std::array<util::OnlineStats, std::size(kTrendSeries)> series;
    /// Completed rows whose within_bound check failed.
    std::size_t bound_misses = 0;
  };
  /// Ordered by first appearance — deterministic for a fixed spec order.
  std::vector<WorldStats> worlds;

  void add(const ScenarioResult& result);
};

}  // namespace crusader::runner
