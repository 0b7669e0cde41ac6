#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "lowerbound/theorem5.hpp"
#include "runner/kllo.hpp"
#include "sim/engine.hpp"
#include "relay/flood_world.hpp"
#include "relay/topology.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"

namespace crusader::runner {

namespace {

/// Liveness, round count, skew statistics and the bound check of one run,
/// shared by the complete and relay paths.
void fill_trace_metrics(const sim::PulseTrace& trace, const ScenarioSpec& spec,
                        ScenarioResult& result) {
  result.live = trace.live(spec.rounds);
  result.rounds_completed = trace.complete_rounds();
  if (result.rounds_completed == 0) return;
  result.max_skew = trace.max_skew();
  result.min_period = trace.min_period();
  result.max_period = trace.max_period();
  util::Samples steady;
  const auto skews = trace.skews();
  for (std::size_t r = spec.warmup; r < skews.size(); ++r) steady.add(skews[r]);
  if (!steady.empty()) {
    result.steady_skew = steady.max();
    result.skew_p50 = steady.median();
    result.skew_p99 = steady.quantile(0.99);
  }
  result.within_bound =
      result.max_skew <= result.predicted_skew + RunnerOptions::bound_tolerance;
}

/// The settings the complete and relay worlds read straight off the spec:
/// clocks, delays, the first f_actual nodes as the faulty set, and the PKI.
template <typename Config>
void configure_world(const ScenarioSpec& spec, std::uint64_t seed, bool batch,
                     Config& config) {
  config.seed = seed;
  config.clock_kind = spec.clocks;
  config.delay_kind = spec.delay;
  if (spec.custom_delay) config.custom_delay = spec.custom_delay->factory();
  config.faulty = sim::default_faulty_set(spec.f_actual);
  config.pki_kind = spec.crypto == CryptoMode::kAbstract
                        ? crypto::Pki::Kind::kAbstract
                        : crypto::Pki::Kind::kSymbolic;
  config.batch = batch;
}

/// The complete world's model: protocol constants are solved for spec.f, and
/// the world additionally admits f_actual faulty nodes when a scenario probes
/// beyond-resilience behavior (f_actual > f).
sim::ModelParams world_model(const ScenarioSpec& spec) {
  auto model = spec.model();
  model.f = std::max(spec.f, spec.f_actual);
  return model;
}

/// Complete-world row: solve the protocol for spec.f, run the world capped
/// at spec.rounds pulses, and fill the row from the run.
void run_complete_cell(const ScenarioSpec& spec, const RunnerOptions& options,
                       ScenarioResult& result) {
  // Covers spec.model() too: the checks only tighten as f grows.
  world_model(spec).validate();
  const auto setup =
      baselines::make_setup(spec.protocol, spec.model(), spec.slack);
  result.feasible = setup.feasible;
  if (!setup.feasible) return;  // predicted_skew stays NaN
  result.predicted_skew = setup.predicted_skew;

  const sim::RunResult run =
      run_complete_world(spec, setup, result.seed,
                         static_cast<Round>(spec.rounds), options.fast_path);

  result.messages = run.messages;
  result.events = run.events;
  result.sign_ops = run.sign_ops;
  result.verify_ops = run.verify_ops;
  result.signatures_carried = run.signatures_carried;
  result.violations = run.violations.size();
  fill_trace_metrics(run.trace, spec, result);
}

/// Digest of exactly the inputs relay::analyze_worst_hops reads — topology
/// family, n, f, the instantiated faulty-set size, and the topology seed for
/// the seed-grown random family (deterministic families realize the same
/// graph at every seed, so folding the seed in would kill sharing; the
/// random family realizes a different graph per seed, so leaving it out
/// would alias distinct analyses). The relay fault kind is deliberately
/// absent: the analysis never reads it, and sharing D_f across the
/// relay-fault axis is the cache's whole point.
std::uint64_t relay_analysis_key(const ScenarioSpec& spec,
                                 std::uint64_t seed) noexcept {
  std::uint64_t h = util::mix64(0x52454C4159ULL ^
                                static_cast<std::uint64_t>(spec.topology));
  h = util::mix64(h ^ spec.n);
  h = util::mix64(h ^ spec.f);
  h = util::mix64(h ^ spec.f_actual);
  if (spec.topology == TopologyKind::kRandomConnected)
    h = util::mix64(h ^ seed);
  return h;
}

/// The graph a relay cell of `spec` floods over: the spec.topology family at
/// spec.n. Random topologies are grown for spec.f from the scenario `seed`,
/// so the realized graph is a pure function of (base_seed, spec) —
/// independent of threads and grid position. Throws util::CheckFailure for a
/// size the family does not come in.
relay::Topology relay_topology(const ScenarioSpec& spec, std::uint64_t seed) {
  switch (spec.topology) {
    case TopologyKind::kComplete:
      return relay::Topology::complete(spec.n);
    case TopologyKind::kRing:
      return relay::Topology::ring(spec.n);
    case TopologyKind::kChordalRing:
      CS_CHECK_MSG(spec.n >= 3,
                   "chordal-ring topology requires n >= 3");
      return relay::Topology::chordal_ring(spec.n, 2);
    case TopologyKind::kRingOfCliques:
      CS_CHECK_MSG(spec.n >= 8 && spec.n % 4 == 0,
                   "ring-of-cliques topology requires n to be a multiple of "
                   "4 with at least two cliques");
      return relay::Topology::ring_of_cliques(spec.n / 4, 4, 2);
    case TopologyKind::kHypercube: {
      CS_CHECK_MSG(spec.n >= 2 && (spec.n & (spec.n - 1)) == 0,
                   "hypercube topology requires n to be a power of two");
      std::uint32_t dim = 0;
      while ((1u << dim) < spec.n) ++dim;
      return relay::Topology::hypercube(dim);
    }
    case TopologyKind::kRandomConnected:
      return relay::Topology::random_connected(spec.n, spec.f,
                                               seed ^ 0x70701063ULL);
  }
  CS_CHECK_MSG(false, "unknown topology kind");
  return relay::Topology::complete(spec.n);
}

/// Appendix-A path: flood the protocol over a sparse (f+1)-connected
/// topology; the bound is Theorem 17 evaluated at the effective model. A
/// dynamic spec additionally generates the churn schedule from the scenario
/// seed and gains the per-epoch d_eff recomputation and the local-skew
/// series over the round-by-round graphs.
void run_relay_world(const ScenarioSpec& spec, const RunnerOptions& options,
                     relay::EffectiveCache* cache, ScenarioResult& result) {
  const auto hop_model = spec.model();  // spec.d/u are per-hop here
  hop_model.validate();

  relay::RelayConfig config;
  config.topology = relay_topology(spec, result.seed);
  config.hop_model = hop_model;
  configure_world(spec, result.seed, options.fast_path, config);
  // Faulty relays misbehave per the spec's relay-fault axis: crash (drop
  // everything) or the signature-legal Byzantine behaviors — max-delay,
  // reorder, selective-drop, plus the adaptive greedy-skew/search pair
  // (relay/adversary.hpp).
  config.fault_kind = spec.relay_fault;

  std::shared_ptr<const relay::TopologySchedule> schedule;
  if (spec.dynamic()) {
    CS_CHECK_MSG(spec.f_actual == 0 ||
                     spec.relay_fault != relay::RelayFaultKind::kCrash,
                 "dynamic relay cells need participating fault kinds: a "
                 "crashed relay under churn is a leave the schedule never "
                 "recorded");
    relay::ChurnPolicy policy;
    policy.churn_rate = spec.churn_rate;
    policy.join_batch = spec.join_batch;
    policy.reconnect = spec.reconnect;
    if (spec.f_actual > 0) {
      // Faulty relays are pinned against churn: a leave/rejoin of a
      // Byzantine node would be a crash-and-restart, a strictly weaker
      // adversary than the persistent one this cell claims to run.
      policy.pinned.assign(spec.n, false);
      for (const NodeId v : config.faulty) policy.pinned[v] = true;
    }
    // One epoch per round (plus the horizon's tail). Generation is
    // timing-free — real-time alignment happens below once the round length
    // is known.
    schedule = std::make_shared<relay::TopologySchedule>(
        relay::TopologySchedule::generate(
            config.topology, policy,
            static_cast<std::uint32_t>(spec.rounds + 2),
            result.seed ^ 0x5c4ed7ULL));
  }
  const bool dynamic = schedule != nullptr && schedule->dynamic();
  // A targeted custom delay aimed at a node that churns would silently
  // change meaning mid-run (the target is torn down and restarted, its
  // in-flight deliveries dropped); error the cell instead — target a stable
  // node (n−1 never leaves) to combine targeted delays with churn.
  if (dynamic && spec.custom_delay &&
      spec.custom_delay->kind == CustomDelaySpec::Kind::kTarget) {
    const std::vector<bool> churned = schedule->ever_churned();
    CS_CHECK_MSG(!churned[spec.custom_delay->target],
                 "custom:target node " << spec.custom_delay->target
                                       << " churns under this schedule; "
                                          "target a stable node instead");
  }
  // Gradient/jump-max are one-hop protocols: messages reach current
  // neighbors only (no flood), and the effective model IS the hop model —
  // constructed directly because effective_from_hops() would reject a
  // one-hop overlay (d_eff > 2·u_eff is a flood-specific requirement).
  const bool ncast = baselines::neighbor_cast(spec.protocol);
  config.neighbor_cast = ncast;

  // One topology analysis per scenario (memoized across the sweep when a
  // cache is supplied): the RelayEffective feeds the feasibility check, the
  // CSV columns, and (passed through) the world's hold schedule. Dynamic
  // cells bypass the memo — their analysis spans every epoch graph of a
  // seed-specific schedule, which the static key must never alias (the
  // cache CS_CHECKs this) — and recompute D_f per epoch instead.
  const auto effective =
      ncast   ? relay::RelayEffective{hop_model, 1, true}
      : dynamic ? relay::effective_from_hops(
                    hop_model,
                    relay::analyze_schedule_worst_hops(*schedule, spec.f))
      : cache ? cache->get(relay_analysis_key(spec, result.seed), config)
              : relay::compute_effective(config);
  result.d_eff = effective.model.d;
  result.u_eff = effective.model.u;
  // Alongside d_eff/u_eff (not after the run): infeasible rows must still
  // satisfy d_eff = worst_hops · d_hop.
  result.worst_hops = effective.worst_hops;
  result.d_eff_exact = effective.exact;

  const auto setup =
      baselines::make_setup(spec.protocol, effective.model, spec.slack);
  result.feasible = setup.feasible;
  if (!setup.feasible) return;
  result.predicted_skew = setup.predicted_skew;

  config.initial_offset = setup.initial_offset;
  config.horizon = setup.horizon(spec.rounds);
  if (dynamic) {
    // Delta e applies at the end of (0-based) round e, so round r runs on
    // schedule->at_epoch(r) — the same mapping local_skew_series uses.
    config.schedule = schedule;
    config.epoch_start = setup.initial_offset + setup.round_length;
    config.epoch_length = setup.round_length;
  }

  // One world run under a given attack seed: fills `out` (a copy of the
  // NaN-initialized base result) with the counts and the global skew fields
  // and returns the trace for grade_edges. Oblivious kinds ignore the attack
  // seed entirely, so seed 0 is the historical single run.
  auto run_candidate = [&](std::uint64_t attack_seed, ScenarioResult& out) {
    relay::RelayConfig candidate = config;
    candidate.attack_seed = attack_seed;
    relay::RelayWorld world(candidate,
                            baselines::make_protocol_factory(
                                setup, static_cast<Round>(spec.rounds)),
                            effective);
    relay::RelayRunResult run = world.run();

    out.messages = run.physical_messages;
    out.events = run.events;
    out.sign_ops = run.sign_ops;
    out.verify_ops = run.verify_ops;
    fill_trace_metrics(run.trace, spec, out);
    return std::move(run.trace);
  };

  // The kept candidate's edge metrics, from one replay of the schedule: the
  // per-round local skew and the per-edge-age envelope conformance. sigma is
  // the per-round uncertainty an adjacent pair accumulates under the
  // effective model; the global allowance n·sigma is what a node that just
  // (re)connected may lag by before the protocol has had any rounds to pull
  // it in.
  auto grade_edges = [&](const sim::PulseTrace& trace, ScenarioResult& out) {
    if (out.rounds_completed == 0) return;
    KlloEnvelopeParams params;
    params.sigma = effective.model.u +
                   (effective.model.vartheta - 1.0) * setup.round_length;
    params.global = static_cast<double>(spec.n) * params.sigma;
    params.stab_mult = spec.kllo_stab;
    const EdgeMetrics metrics =
        dynamic ? edge_metrics(trace, schedule->initial(), schedule->deltas(),
                               params)
                : edge_metrics(trace, config.topology, {}, params);
    out.local_skew =
        *std::max_element(metrics.local_skew.begin(), metrics.local_skew.end());
    out.kllo_ratio = metrics.kllo.ratio;
    out.kllo_violations = metrics.kllo.violations;
    out.edge_age_min = metrics.kllo.edge_age_min;
  };

  const bool adaptive = relay::adaptive(spec.relay_fault) && spec.f_actual > 0;
  if (!adaptive) {
    // attack_iters/attack_best_seed stay 0
    grade_edges(run_candidate(0, result), result);
    return;
  }

  // Adaptive kinds: candidate 0 plays the greedy policy; search replays the
  // cell under budget−1 further seeded attack schedules and keeps the argmax
  // max_skew (≡ argmax skew_ratio — the denominator is per-cell constant;
  // strict > keeps the earliest candidate on ties, so search with any budget
  // weakly dominates greedy by construction). Only the kept candidate's
  // edges are graded. Candidate seeds derive from the scenario seed, never
  // wall-clock, so a killed campaign resumes to the byte-identical row.
  const std::uint32_t budget =
      spec.relay_fault == relay::RelayFaultKind::kSearch
          ? std::max(spec.search_budget, 1u)
          : 1u;
  const ScenarioResult base = result;
  std::optional<ScenarioResult> best;
  sim::PulseTrace best_trace;
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint64_t best_seed = 0;
  for (std::uint32_t k = 0; k < budget; ++k) {
    std::uint64_t attack_seed = 0;
    if (k > 0) {
      attack_seed = util::Rng(result.seed ^ 0xa77ac4ULL).fork(k).next_u64();
      if (attack_seed == 0) attack_seed = 1;  // 0 is the greedy sentinel
    }
    ScenarioResult candidate = base;
    sim::PulseTrace trace = run_candidate(attack_seed, candidate);
    const double score =
        candidate.rounds_completed > 0 && std::isfinite(candidate.max_skew)
            ? candidate.max_skew
            : -std::numeric_limits<double>::infinity();
    if (!best || score > best_score) {
      best = std::move(candidate);
      best_trace = std::move(trace);
      best_score = score;
      best_seed = attack_seed;
    }
  }
  result = *best;
  grade_edges(best_trace, result);
  result.attack_iters = budget;
  result.attack_best_seed = best_seed;
}

/// Theorem-5 path: the three-execution adversary. predicted_skew is the
/// 2ũ/3 LOWER bound; within_bound records whether the construction realized
/// it (bound_holds).
void run_theorem5_world(const ScenarioSpec& spec, ScenarioResult& result) {
  const auto model = spec.model();
  CS_CHECK_MSG(model.n == 3, "theorem5 world requires n = 3");
  model.validate();

  const auto report =
      lowerbound::run_theorem5(spec.protocol, model, spec.rounds);
  result.feasible = report.feasible;
  if (!report.feasible) return;

  result.predicted_skew = report.bound;
  result.rounds_completed = report.rounds;
  result.live = report.rounds >= spec.rounds;
  if (report.rounds > 0) {
    result.max_skew = report.max_skew;
    // The construction reports its post-ramp maximum; that is the
    // steady-state figure for this world.
    result.steady_skew = report.max_skew;
    result.within_bound = report.bound_holds;
  }
}

/// run_scenario with an optional sweep-scoped relay analysis cache.
ScenarioResult run_scenario_cached(const ScenarioSpec& spec,
                                   const RunnerOptions& options,
                                   relay::EffectiveCache* cache) {
  ScenarioResult result;
  result.spec = spec;
  result.seed = scenario_seed(spec, options.base_seed);

  try {
    // A targeted custom delay aimed past the cluster would silently
    // degenerate to the all-minimum policy (no receiver ever matches);
    // error the cell instead so the adversary the row claims is the one
    // that actually ran.
    if (spec.custom_delay &&
        spec.custom_delay->kind == CustomDelaySpec::Kind::kTarget)
      CS_CHECK_MSG(spec.custom_delay->target < spec.n,
                   "custom:target node " << spec.custom_delay->target
                                         << " is out of range for n="
                                         << spec.n);
    // Arms this thread's wall-clock budget for the duration of the world
    // run; every engine the world builds (including the Theorem-5 triple
    // execution's) checks it.
    std::optional<sim::WallBudget> budget;
    if (options.budget_ms > 0.0) budget.emplace(options.budget_ms);
    switch (spec.world) {
      case WorldKind::kComplete:
        run_complete_cell(spec, options, result);
        break;
      case WorldKind::kRelay:
        run_relay_world(spec, options, cache, result);
        break;
      case WorldKind::kTheorem5:
        run_theorem5_world(spec, result);
        break;
    }
    // Complete/Theorem-5 worlds are fully connected: every pair is a live
    // edge, so the gradient metric degenerates to the global one.
    if (spec.world != WorldKind::kRelay && result.rounds_completed > 0)
      result.local_skew = result.max_skew;
    if (result.rounds_completed > 0 && std::isfinite(result.max_skew) &&
        std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
      result.skew_ratio = result.max_skew / result.predicted_skew;
    if (result.rounds_completed > 0 && std::isfinite(result.local_skew) &&
        std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
      result.local_skew_ratio = result.local_skew / result.predicted_skew;
  } catch (const sim::BudgetExceeded&) {
    // Everything the aborted run measured is discarded, so the row's
    // content does not depend on where the budget happened to trip.
    result.timed_out = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  return result;
}

/// Whether a feasible, error-free, in-budget row feeds a trend series.
bool admits(TrendSeries::Rows rows, const ScenarioSpec& spec) {
  switch (rows) {
    case TrendSeries::Rows::kAll:
      return true;
    case TrendSeries::Rows::kDynamic:
      return spec.dynamic();
    case TrendSeries::Rows::kAdaptive:
      return spec.world == WorldKind::kRelay && spec.f_actual > 0 &&
             relay::adaptive(spec.relay_fault);
  }
  return false;
}

}  // namespace

std::uint64_t scenario_seed(const ScenarioSpec& spec,
                            std::uint64_t base_seed) noexcept {
  return util::Rng(base_seed).fork(spec.key()).next_u64();
}

sim::RunResult run_complete_world(const ScenarioSpec& spec,
                                  const baselines::ProtocolSetup& setup,
                                  std::uint64_t seed, Round max_rounds,
                                  bool batch) {
  auto honest = baselines::make_protocol_factory(setup, max_rounds);

  sim::WorldConfig config;
  config.model = world_model(spec);
  configure_world(spec, seed, batch, config);
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.horizon(spec.rounds);

  sim::ByzantineFactory byz;
  if (spec.f_actual > 0) {
    byz = spec.st_accelerator
              ? core::make_st_accelerator_factory(spec.n - 1)
              : core::make_byzantine_factory(spec.strategy, honest, seed,
                                             spec.late_shift,
                                             spec.split_shift);
  }

  sim::World world(config, std::move(honest), std::move(byz));
  return world.run();
}

std::vector<double> local_skew_series(const sim::PulseTrace& trace,
                                      const relay::TopologySchedule& schedule) {
  return edge_metrics(trace, schedule.initial(), schedule.deltas(), {})
      .local_skew;
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunnerOptions& options) {
  return run_scenario_cached(spec, options, options.shared_relay_cache);
}

void run_sweep_streamed(const std::vector<ScenarioSpec>& specs,
                        const RunnerOptions& options, const ResultSink& sink) {
  // One relay-analysis memo per sweep (scenario seeds and results are
  // unaffected — the cache only short-circuits a pure function).
  std::optional<relay::EffectiveCache> owned_cache;
  relay::EffectiveCache* cache = options.shared_relay_cache;
  if (cache == nullptr && options.relay_cache) cache = &owned_cache.emplace();

  unsigned threads = options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(specs.size(), 1)));

  if (threads <= 1) {
    for (const auto& spec : specs)
      sink(run_scenario_cached(spec, options, cache));
    return;
  }

  // Work stealing via a shared index plus an ordered flush: scenario i's
  // seed comes from its spec digest (not the schedule), and completed
  // results wait in a bounded reorder window until every earlier index has
  // flushed — so the sink sees the exact single-thread sequence while memory
  // stays O(threads). All cross-thread state lives in ReorderWindow with its
  // lock discipline machine-checked (CS_GUARDED_BY + clang -Wthread-safety);
  // only the work-stealing index stays a bare atomic.
  struct ReorderWindow {
    util::Mutex mu;
    /// Signaled when the window advances (a flush) or the sweep aborts.
    /// _any because it waits on the annotated util::Mutex directly.
    std::condition_variable_any window_open;
    std::map<std::size_t, ScenarioResult> pending CS_GUARDED_BY(mu);
    std::size_t next_flush CS_GUARDED_BY(mu) = 0;
    std::exception_ptr failure CS_GUARDED_BY(mu);
  };
  std::atomic<std::size_t> next{0};
  ReorderWindow win;
  const std::size_t window = 2 * static_cast<std::size_t>(threads) + 8;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      auto result = run_scenario_cached(specs[i], options, cache);

      util::MutexLock lock(win.mu);
      // Explicit wait loop (not the predicate overload): the condition
      // reads guarded state, and here the analysis can see the lock is
      // held around every read. wait() releases and reacquires win.mu.
      while (win.failure == nullptr && i >= win.next_flush + window)
        win.window_open.wait(win.mu);
      if (win.failure != nullptr) return;  // sweep aborted: drop the result
      win.pending.emplace(i, std::move(result));
      while (!win.pending.empty() &&
             win.pending.begin()->first == win.next_flush) {
        // Sink runs under the lock: serialized, strictly ordered.
        try {
          sink(win.pending.begin()->second);
        } catch (...) {
          win.failure = std::current_exception();
          next.store(specs.size(), std::memory_order_relaxed);
          win.window_open.notify_all();
          return;
        }
        win.pending.erase(win.pending.begin());
        ++win.next_flush;
        win.window_open.notify_all();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  std::exception_ptr failure;
  {
    util::MutexLock lock(win.mu);
    failure = win.failure;
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

SweepReport run_sweep(const std::vector<ScenarioSpec>& specs,
                      const RunnerOptions& options) {
  SweepReport report;
  report.results.reserve(specs.size());
  run_sweep_streamed(specs, options, [&](const ScenarioResult& result) {
    report.results.push_back(result);
  });
  return report;
}

bool violates_gate(const ScenarioResult& result, double max_ratio) {
  // A cell that crashed or ran out of budget did not demonstrate anything —
  // a green gate must mean every cell actually ran.
  if (!result.error.empty() || result.timed_out) return true;
  if (!result.feasible) return false;
  // Dynamic cells: Theorem 17's premises lapse mid-churn (a re-forwarded
  // flood can exceed d_eff), so the ratio is diagnostic only; the cell
  // demonstrates correctness by surviving the churn live — which also makes
  // a fully stalled cell (0 rounds) a violation, unlike static infeasible
  // shapes.
  if (result.spec.dynamic()) return !result.live;
  if (result.rounds_completed == 0) return false;
  if (result.spec.world == WorldKind::kTheorem5) return !result.within_bound;
  // Same floating-point headroom as within_bound: a protocol that realizes
  // its bound exactly (the flood probe's skew is exactly u under split
  // delays) must not trip a --gate=1.0 on the last ulp of the division.
  return std::isfinite(result.skew_ratio) &&
         result.skew_ratio > max_ratio + RunnerOptions::bound_tolerance;
}

std::size_t count_gate_violations(const SweepReport& report,
                                  double max_ratio) {
  std::size_t count = 0;
  for (const auto& r : report.results)
    if (violates_gate(r, max_ratio)) ++count;
  return count;
}

void SweepSummary::add(const ScenarioResult& result) {
  ++scenarios;
  if (gate_ratio && violates_gate(result, *gate_ratio)) ++gate_violations;
  for (std::size_t g = 0; g < std::size(kRatioGates); ++g) {
    const double value = result.*kRatioGates[g].value;
    if (ratio_gates[g] && std::isfinite(value) &&
        value > *ratio_gates[g] + RunnerOptions::bound_tolerance)
      ++ratio_gate_violations[g];
  }
  if (result.timed_out) ++timed_out;
  if (!result.error.empty()) {
    ++errors;
    return;
  }
  if (result.timed_out) return;
  if (!result.feasible) {
    ++infeasible;
    return;
  }
  auto& world = [&]() -> WorldStats& {
    for (auto& w : worlds)
      if (w.world == result.spec.world) return w;
    worlds.emplace_back();
    worlds.back().world = result.spec.world;
    return worlds.back();
  }();
  for (std::size_t s = 0; s < std::size(kTrendSeries); ++s) {
    const double value = result.*kTrendSeries[s].value;
    if (admits(kTrendSeries[s].rows, result.spec) && std::isfinite(value))
      world.series[s].add(value);
  }
  if (result.rounds_completed > 0 && !result.within_bound)
    ++world.bound_misses;
}

std::vector<ProtocolSummary> SweepReport::by_protocol() const {
  std::vector<ProtocolSummary> summaries;
  auto find = [&](baselines::ProtocolKind kind) -> ProtocolSummary& {
    for (auto& s : summaries)
      if (s.protocol == kind) return s;
    summaries.emplace_back();
    summaries.back().protocol = kind;
    return summaries.back();
  };
  for (const auto& r : results) {
    ProtocolSummary& s = find(r.spec.protocol);
    ++s.scenarios;
    if (!r.error.empty()) {
      ++s.errors;
      continue;
    }
    if (r.timed_out) {
      ++s.timed_out;
      continue;
    }
    if (!r.feasible) {
      ++s.infeasible;
      continue;
    }
    if (r.rounds_completed > 0) {
      if (std::isfinite(r.steady_skew)) s.steady_skew.add(r.steady_skew);
      s.messages.add(static_cast<double>(r.messages));
      if (!r.within_bound) ++s.bound_violations;
    }
  }
  return summaries;
}

std::size_t SweepReport::error_count() const {
  std::size_t count = 0;
  for (const auto& r : results)
    if (!r.error.empty()) ++count;
  return count;
}

}  // namespace crusader::runner
