// crusader_bench — runs one workload of the repository benchmark and prints
// the result as one JSON line. benchmark/run.py builds and drives it;
// benchmark/README.md documents the workloads, every metric, and the checks.
//
//   crusader_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --workdir=DIR [--check]
//
// --trace=0 measures the end-to-end metrics. The workload's grid is swept
// through the public runner (run_sweep_streamed on one thread, every row
// appended to a CsvCampaign) again and again until S seconds have passed, and
// at least twice, so that every pass's CSV can be checked against the others.
//
// --trace=1 measures the per-layer profile. Every cell is rebuilt from the
// layers' public calls with a timer around each call, alternating with
// untraced sweeps on one and on two threads; all three CSVs must be equal
// byte for byte.
//
// --check shrinks every grid, for a correctness-only run.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "lowerbound/theorem5.hpp"
#include "relay/flood_world.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "runner/campaign.hpp"
#include "runner/kllo.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "sim/world.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace crusader;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using baselines::ProtocolKind;
using runner::ScenarioResult;
using runner::ScenarioSpec;
using runner::SweepGrid;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------
// Each grid is given in README.md in its sweep_cli spelling.

std::vector<ScenarioSpec> complete_mix(bool check) {
  SweepGrid g;
  g.protocols = {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
                 ProtocolKind::kSrikanthToueg};
  g.ns = check ? std::vector<std::uint32_t>{7}
               : std::vector<std::uint32_t>{7, 16, 31};
  g.fault_loads = {0, SweepGrid::kMaxResilience};
  g.delays = {sim::DelayKind::kRandom, sim::DelayKind::kSplit,
              sim::DelayKind::kMax};
  g.strategies = {core::ByzStrategy::kCrash, core::ByzStrategy::kSplit,
                  core::ByzStrategy::kGreedySkew};
  g.rounds = check ? 8 : 10;
  return g.expand();
}

std::vector<ScenarioSpec> relay_adversarial(bool check) {
  SweepGrid g;
  g.worlds = {runner::WorldKind::kRelay};
  g.protocols = {ProtocolKind::kSrikanthToueg};
  g.topologies = {runner::TopologyKind::kRing,
                  runner::TopologyKind::kChordalRing,
                  runner::TopologyKind::kRingOfCliques,
                  runner::TopologyKind::kHypercube};
  g.ns = check ? std::vector<std::uint32_t>{8, 16}
               : std::vector<std::uint32_t>{16, 32};
  g.fault_loads = {SweepGrid::kMaxResilience};
  g.relay_faults = {relay::RelayFaultKind::kCrash,
                    relay::RelayFaultKind::kMaxDelay,
                    relay::RelayFaultKind::kReorder,
                    relay::RelayFaultKind::kSelectiveDrop,
                    relay::RelayFaultKind::kGreedySkew,
                    relay::RelayFaultKind::kSearch};
  g.search_budgets = {check ? 4u : 8u};
  g.us = {0.01};
  g.varthetas = {1.001};
  g.delays = {sim::DelayKind::kMax};
  g.rounds = check ? 6 : 10;
  return g.expand();
}

std::vector<ScenarioSpec> churn_dynamic(bool check) {
  SweepGrid g;
  g.worlds = {runner::WorldKind::kRelay};
  g.protocols = {ProtocolKind::kFloodProbe, ProtocolKind::kGradient};
  g.topologies = {runner::TopologyKind::kHypercube};
  g.ns = {check ? 128u : 512u};
  g.fault_loads = {0};
  g.cryptos = {runner::CryptoMode::kAbstract};
  g.delays = {sim::DelayKind::kSplit};
  g.churn_rates = {0.02, 0.1};
  g.join_batches = {0, 4};
  g.reconnects = {relay::ReconnectPolicy::kRandom,
                  relay::ReconnectPolicy::kRingRepair};
  g.rounds = check ? 6 : 12;
  g.warmup = 3;
  return g.expand();
}

std::vector<ScenarioSpec> large_n_flood(bool check) {
  SweepGrid g;
  g.worlds = {runner::WorldKind::kRelay};
  g.protocols = {ProtocolKind::kFloodProbe};
  g.topologies = {runner::TopologyKind::kHypercube};
  g.ns = {check ? 2048u : 8192u};
  g.fault_loads = {0};
  g.cryptos = {runner::CryptoMode::kAbstract};
  g.delays = {sim::DelayKind::kSplit, sim::DelayKind::kMax};
  g.rounds = 4;
  g.warmup = 1;
  return g.expand();
}

/// Two grids in one campaign: small complete cells over every model axis,
/// then the Theorem-5 construction over its ũ axis (at ϑ ≥ 1.01 and 20
/// rounds, where the construction realizes its bound on every cell).
std::vector<ScenarioSpec> campaign_resume(bool check) {
  SweepGrid cells;
  cells.protocols = {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
                     ProtocolKind::kSrikanthToueg};
  cells.ns = check ? std::vector<std::uint32_t>{4}
                   : std::vector<std::uint32_t>{4, 5, 6, 7};
  cells.fault_loads = {0, SweepGrid::kMaxResilience};
  cells.varthetas = {1.001, 1.01, 1.05};
  cells.us = {0.01, 0.05, 0.1};
  cells.delays = {sim::DelayKind::kRandom, sim::DelayKind::kSplit,
                  sim::DelayKind::kMax, sim::DelayKind::kMin};
  cells.clock_kinds = {sim::ClockKind::kSpread, sim::ClockKind::kNominal,
                       sim::ClockKind::kRandomWalk};
  cells.strategies = {core::ByzStrategy::kCrash, core::ByzStrategy::kSplit,
                      core::ByzStrategy::kGreedySkew};
  cells.rounds = 8;
  cells.warmup = 2;

  SweepGrid lower;
  lower.worlds = {runner::WorldKind::kTheorem5};
  lower.protocols = cells.protocols;
  lower.varthetas = {1.01, 1.05};
  lower.us = {0.01, 0.05, 0.1};
  lower.u_tildes = {0.1, 0.2, 0.3};
  lower.rounds = 20;
  lower.warmup = 2;

  std::vector<ScenarioSpec> specs = cells.expand();
  const std::vector<ScenarioSpec> tail = lower.expand();
  specs.insert(specs.end(), tail.begin(), tail.end());
  return specs;
}

struct Workload {
  const char* name;
  std::vector<ScenarioSpec> (*specs)(bool check);
  /// Crypto mode of the grid's cells, for the sign/verify microbench.
  crypto::Pki::Kind pki;
  /// Quantile of the cell latencies reported as cell_tail_ms: it leaves at
  /// least ten of the grid's cells beyond it, or is 1.0 (the slowest cell)
  /// where the grid has too few cells for that.
  double tail_q;
  /// The first third of the grid is written before anything is timed, and
  /// every sweep resumes that campaign.
  bool resume;
};

constexpr Workload kWorkloads[] = {
    {"complete_mix", complete_mix, crypto::Pki::Kind::kSymbolic, 0.90, false},
    {"relay_adversarial", relay_adversarial, crypto::Pki::Kind::kAbstract,
     0.75, false},
    {"churn_dynamic", churn_dynamic, crypto::Pki::Kind::kAbstract, 1.0,
     false},
    {"large_n_flood", large_n_flood, crypto::Pki::Kind::kAbstract, 1.0,
     false},
    {"campaign_resume", campaign_resume, crypto::Pki::Kind::kSymbolic, 0.99,
     true},
};

/// The benchmark's gate on one row: errors, timeouts, static rows over
/// their bound, Theorem-5 rows that miss theirs, and dynamic rows that are
/// not live (runner::violates_gate at ratio 1.0), plus gradient rows outside
/// the KLLO envelope.
bool cell_failed(const ScenarioResult& r) {
  if (runner::violates_gate(r, 1.0)) return true;
  return r.spec.protocol == ProtocolKind::kGradient &&
         std::isfinite(r.kllo_ratio) && r.kllo_ratio > 1.0 + 1e-9;
}

struct Context {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool check = false;
  fs::path workdir;
};

std::string file_sha256(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << is.rdbuf();
  return crypto::to_hex(crypto::Sha256::hash(os.str()));
}

// --- Sweeps ------------------------------------------------------------------

/// An opened campaign over the workload's grid.
struct Sweep {
  std::vector<ScenarioSpec> specs;
  std::unique_ptr<runner::CsvCampaign> campaign;
  fs::path csv;
  std::size_t replayed = 0;  ///< rows read back from the resumed prefix
  double expand_s = 0.0;     ///< grid expansion
  double open_s = 0.0;       ///< spec digests + campaign open (+ resume)
};

fs::path csv_path(const Context& ctx, const std::string& tag) {
  return ctx.workdir / (tag + ".csv");
}
fs::path manifest_path(const Context& ctx, const std::string& tag) {
  return ctx.workdir / (tag + ".manifest");
}

/// Clears `tag`'s files; for a resuming workload, seeds them with the
/// prefilled campaign. Not part of any timing.
void prepare_files(const Context& ctx, const std::string& tag) {
  fs::remove(csv_path(ctx, tag));
  fs::remove(manifest_path(ctx, tag));
  if (!ctx.workload->resume) return;
  fs::copy_file(csv_path(ctx, "prefill"), csv_path(ctx, tag));
  fs::copy_file(manifest_path(ctx, "prefill"), manifest_path(ctx, tag));
}

/// The set-up a sweep pays before its first cell: grid expansion, the spec
/// digests, and opening the campaign (for a resumed one, the read path:
/// reconcile, verify, replay).
Sweep open_sweep(const Context& ctx, const std::string& tag) {
  Sweep s;
  s.csv = csv_path(ctx, tag);
  const auto t0 = Clock::now();
  s.specs = ctx.workload->specs(ctx.check);
  s.expand_s = seconds_since(t0);
  const auto t1 = Clock::now();
  std::size_t replayed = 0;
  s.campaign = std::make_unique<runner::CsvCampaign>(
      runner::CsvCampaign::Options{s.csv.string(),
                                   manifest_path(ctx, tag).string(), 32,
                                   ctx.seed},
      s.specs, [&replayed](const ScenarioResult&) { ++replayed; });
  s.open_s = seconds_since(t1);
  s.replayed = replayed;
  return s;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
};

/// Writes the first third of a resuming workload's grid (untimed).
void prefill(const Context& ctx, Tally& tally) {
  fs::remove(csv_path(ctx, "prefill"));
  fs::remove(manifest_path(ctx, "prefill"));
  Sweep s = open_sweep(ctx, "prefill");
  const std::vector<ScenarioSpec> head(
      s.specs.begin(),
      s.specs.begin() + static_cast<std::ptrdiff_t>(s.specs.size() / 3));
  runner::RunnerOptions options;
  options.base_seed = ctx.seed;
  runner::run_sweep_streamed(head, options, [&](const ScenarioResult& r) {
    s.campaign->append(r);
    ++tally.attempted;
    if (cell_failed(r)) ++tally.failed;
  });
  s.campaign->finish();
}

struct PassStats {
  double setup_s = 0.0;  ///< open_sweep
  double sweep_s = 0.0;  ///< first cell to finish()
  std::size_t cells = 0;
  std::uint64_t events = 0;
  std::size_t failed = 0;
  std::vector<double> latencies_ms;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t replayed = 0;
  std::uintmax_t csv_bytes = 0;
  std::string digest;
};

/// One sweep exactly as a user runs it: run_sweep_streamed into a
/// CsvCampaign. A cell's latency is the interval between consecutive sink
/// calls, so on one thread it includes the row append.
PassStats untraced_pass(const Context& ctx, const std::string& tag,
                        unsigned threads) {
  prepare_files(ctx, tag);
  PassStats p;
  const auto t_setup = Clock::now();
  Sweep s = open_sweep(ctx, tag);
  p.setup_s = seconds_since(t_setup);
  p.replayed = s.replayed;
  const std::vector<ScenarioSpec> todo(
      s.specs.begin() +
          static_cast<std::ptrdiff_t>(s.campaign->resume_index()),
      s.specs.end());
  relay::EffectiveCache cache;
  runner::RunnerOptions options;
  options.base_seed = ctx.seed;
  options.threads = threads;
  options.shared_relay_cache = &cache;
  p.latencies_ms.reserve(todo.size());

  const auto t0 = Clock::now();
  auto last = t0;
  runner::run_sweep_streamed(todo, options, [&](const ScenarioResult& r) {
    s.campaign->append(r);
    const auto now = Clock::now();
    p.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
    ++p.cells;
    p.events += r.events;
    if (cell_failed(r)) ++p.failed;
  });
  s.campaign->finish();
  p.sweep_s = seconds_since(t0);

  p.cache_hits = cache.hits();
  p.cache_misses = cache.misses();
  s.campaign.reset();
  p.csv_bytes = fs::file_size(s.csv);
  p.digest = file_sha256(s.csv);
  return p;
}

// --- Traced rebuild ----------------------------------------------------------

enum Stage : std::size_t {
  kExpand,
  kCampaignOpen,
  kCsvAppend,
  kSkewStats,
  kScheduleCopy,
  kLocalSkew,
  kKllo,
  kBaselinesSetup,
  kRelayTopology,
  kRelaySchedule,
  kRelayAnalysis,
  kRelayWorldBuild,
  kSimWorldBuild,
  kSimRun,
  kTheorem5,
  kStageCount
};

/// Metric-name prefix of each stage (reported as `<prefix>_share`).
constexpr std::array<const char*, kStageCount> kStageNames = {
    "runner.expand",       "runner.campaign_open", "runner.csv_append",
    "runner.skew_stats",   "runner.schedule_copy", "runner.local_skew",
    "runner.kllo",         "baselines.setup",      "relay.topology",
    "relay.schedule",      "relay.analysis",       "relay.world_build",
    "sim.world_build",     "sim.run",              "lowerbound.theorem5"};

/// Wall time per stage plus the deterministic work counters of one traced
/// pass. Stages never nest, so each stage's time is its self time.
struct Profile {
  std::array<double, kStageCount> seconds{};
  std::uint64_t events = 0;  ///< engine events of every world run
  std::uint64_t messages = 0;
  std::uint64_t floods = 0;
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t analysis_calls = 0;  ///< D_f lookups, cached or not
  std::uint64_t analysis_exact = 0;
  std::uint64_t schedule_edge_changes = 0;  ///< edges added + removed
  std::uint64_t schedule_leaves = 0;
  std::uint64_t attack_candidates = 0;
  std::uint64_t search_cells = 0;
  std::uint64_t search_improved = 0;  ///< winner is not candidate 0
  std::uint64_t metric_passes = 0;
  /// World build, run and metric pass of the search candidates after the
  /// first: a part of the stages above, not a stage of its own.
  double extra_candidate_s = 0.0;

  template <class F>
  decltype(auto) time(Stage stage, F&& f) {
    struct Span {
      double& acc;
      Clock::time_point t0 = Clock::now();
      ~Span() { acc += seconds_since(t0); }
    } span{seconds[stage]};
    return f();
  }
};

// The four helpers below mirror the private ones of src/runner/runner.cpp
// (fill_skew_metrics, build_topology, pki_kind_for, relay_analysis_key), so
// that the traced pass can time each layer call from outside. The byte-for-
// byte comparison with the untraced pass catches any drift between the two.

void fill_skew_metrics(const sim::PulseTrace& trace, const ScenarioSpec& spec,
                       ScenarioResult& result) {
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
}

relay::Topology build_topology(const ScenarioSpec& spec, std::uint64_t seed) {
  switch (spec.topology) {
    case runner::TopologyKind::kComplete:
      return relay::Topology::complete(spec.n);
    case runner::TopologyKind::kRing:
      return relay::Topology::ring(spec.n);
    case runner::TopologyKind::kChordalRing:
      CS_CHECK_MSG(spec.n >= 3, "chordal-ring topology requires n >= 3");
      return relay::Topology::chordal_ring(spec.n, 2);
    case runner::TopologyKind::kRingOfCliques:
      CS_CHECK_MSG(spec.n >= 8 && spec.n % 4 == 0,
                   "ring-of-cliques topology requires n to be a multiple of "
                   "4 with at least two cliques");
      return relay::Topology::ring_of_cliques(spec.n / 4, 4, 2);
    case runner::TopologyKind::kHypercube: {
      CS_CHECK_MSG(spec.n >= 2 && (spec.n & (spec.n - 1)) == 0,
                   "hypercube topology requires n to be a power of two");
      std::uint32_t dim = 0;
      while ((1u << dim) < spec.n) ++dim;
      return relay::Topology::hypercube(dim);
    }
    case runner::TopologyKind::kRandomConnected:
      return relay::Topology::random_connected(spec.n, spec.f,
                                               seed ^ 0x70701063ULL);
  }
  CS_CHECK_MSG(false, "unknown topology kind");
  return relay::Topology::complete(spec.n);
}

crypto::Pki::Kind pki_kind_for(runner::CryptoMode mode) noexcept {
  return mode == runner::CryptoMode::kAbstract ? crypto::Pki::Kind::kAbstract
                                               : crypto::Pki::Kind::kSymbolic;
}

std::uint64_t relay_analysis_key(const ScenarioSpec& spec,
                                 std::uint64_t seed) noexcept {
  std::uint64_t h = util::mix64(0x52454C4159ULL ^
                                static_cast<std::uint64_t>(spec.topology));
  h = util::mix64(h ^ spec.n);
  h = util::mix64(h ^ spec.f);
  h = util::mix64(h ^ spec.f_actual);
  if (spec.topology == runner::TopologyKind::kRandomConnected)
    h = util::mix64(h ^ seed);
  return h;
}

const double kBoundTolerance = runner::RunnerOptions{}.bound_tolerance;

void rebuild_complete(const ScenarioSpec& spec, ScenarioResult& result,
                      Profile& prof) {
  const auto model = spec.model();
  model.validate();
  auto world_model = model;
  world_model.f = std::max(spec.f, spec.f_actual);
  world_model.validate();
  const auto setup = prof.time(kBaselinesSetup, [&] {
    return baselines::make_setup(spec.protocol, model, spec.slack);
  });
  result.feasible = setup.feasible;
  if (!setup.feasible) return;
  result.predicted_skew = setup.predicted_skew;

  sim::WorldConfig config;
  config.model = world_model;
  config.seed = result.seed;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(spec.rounds + 2) * setup.round_length;
  config.clock_kind = spec.clocks;
  config.delay_kind = spec.delay;
  if (spec.custom_delay) config.custom_delay = spec.custom_delay->factory();
  config.faulty = sim::default_faulty_set(spec.f_actual);
  config.pki_kind = pki_kind_for(spec.crypto);

  std::optional<sim::World> world;
  prof.time(kSimWorldBuild, [&] {
    auto honest = baselines::make_protocol_factory(
        setup, static_cast<Round>(spec.rounds));
    sim::ByzantineFactory byz;
    if (spec.f_actual > 0) {
      byz = spec.st_accelerator
                ? core::make_st_accelerator_factory(spec.n - 1)
                : core::make_byzantine_factory(spec.strategy, honest,
                                               result.seed, spec.late_shift,
                                               spec.split_shift);
    }
    world.emplace(config, std::move(honest), std::move(byz));
  });
  const sim::RunResult run = prof.time(kSimRun, [&] { return world->run(); });
  prof.time(kSimWorldBuild, [&] { world.reset(); });

  result.live = run.trace.live(spec.rounds);
  result.rounds_completed = run.trace.complete_rounds();
  result.messages = run.messages;
  result.events = run.events;
  result.sign_ops = run.sign_ops;
  result.verify_ops = run.verify_ops;
  result.signatures_carried = run.signatures_carried;
  result.violations = run.violations.size();
  prof.events += run.events;
  prof.messages += run.messages;
  prof.sign_ops += run.sign_ops;
  prof.verify_ops += run.verify_ops;

  if (result.rounds_completed > 0) {
    prof.time(kSkewStats, [&] { fill_skew_metrics(run.trace, spec, result); });
    result.within_bound =
        result.max_skew <= result.predicted_skew + kBoundTolerance;
    ++prof.metric_passes;
  }
}

void rebuild_relay(const ScenarioSpec& spec, relay::EffectiveCache& cache,
                   ScenarioResult& result, Profile& prof) {
  const auto hop_model = spec.model();
  hop_model.validate();

  relay::RelayConfig config;
  config.topology = prof.time(
      kRelayTopology, [&] { return build_topology(spec, result.seed); });
  config.hop_model = hop_model;
  config.seed = result.seed;
  config.clock_kind = spec.clocks;
  config.delay_kind = spec.delay;
  if (spec.custom_delay) config.custom_delay = spec.custom_delay->factory();
  config.faulty = sim::default_faulty_set(spec.f_actual);
  config.fault_kind = spec.relay_fault;
  config.pki_kind = pki_kind_for(spec.crypto);

  std::shared_ptr<const relay::TopologySchedule> schedule;
  if (spec.dynamic()) {
    relay::ChurnPolicy policy;
    policy.churn_rate = spec.churn_rate;
    policy.join_batch = spec.join_batch;
    policy.reconnect = spec.reconnect;
    if (spec.f_actual > 0) {
      policy.pinned.assign(spec.n, false);
      for (const NodeId v : config.faulty) policy.pinned[v] = true;
    }
    schedule = prof.time(kRelaySchedule, [&] {
      return std::make_shared<relay::TopologySchedule>(
          relay::TopologySchedule::generate(
              config.topology, policy,
              static_cast<std::uint32_t>(spec.rounds + 2),
              result.seed ^ 0x5c4ed7ULL));
    });
    for (const auto& delta : schedule->deltas()) {
      prof.schedule_edge_changes += delta.added.size() + delta.removed.size();
      prof.schedule_leaves += delta.leaves.size();
    }
  }
  const bool dynamic = schedule != nullptr && schedule->dynamic();
  const bool ncast = baselines::neighbor_cast(spec.protocol);
  config.neighbor_cast = ncast;

  relay::RelayEffective effective{hop_model, 1, true};
  if (!ncast) {
    effective = prof.time(kRelayAnalysis, [&] {
      return dynamic ? relay::effective_from_hops(
                           hop_model, relay::analyze_schedule_worst_hops(
                                          *schedule, spec.f))
                     : cache.get(relay_analysis_key(spec, result.seed), config);
    });
    ++prof.analysis_calls;
    if (effective.exact) ++prof.analysis_exact;
  }
  result.d_eff = effective.model.d;
  result.u_eff = effective.model.u;
  result.worst_hops = effective.worst_hops;
  result.d_eff_exact = effective.exact;

  const auto setup = prof.time(kBaselinesSetup, [&] {
    return baselines::make_setup(spec.protocol, effective.model, spec.slack);
  });
  result.feasible = setup.feasible;
  if (!setup.feasible) return;
  result.predicted_skew = setup.predicted_skew;

  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(spec.rounds + 2) * setup.round_length;
  if (dynamic) {
    config.schedule = schedule;
    config.epoch_start = setup.initial_offset + setup.round_length;
    config.epoch_length = setup.round_length;
  }

  auto run_candidate = [&](std::uint64_t attack_seed, ScenarioResult& out) {
    std::optional<relay::RelayWorld> world;
    prof.time(kRelayWorldBuild, [&] {
      relay::RelayConfig candidate = config;
      candidate.attack_seed = attack_seed;
      world.emplace(std::move(candidate),
                    baselines::make_protocol_factory(
                        setup, static_cast<Round>(spec.rounds)),
                    effective);
    });
    const relay::RelayRunResult run =
        prof.time(kSimRun, [&] { return world->run(); });
    prof.time(kRelayWorldBuild, [&] { world.reset(); });

    out.live = run.trace.live(spec.rounds);
    out.rounds_completed = run.trace.complete_rounds();
    out.messages = run.physical_messages;
    out.events = run.events;
    out.sign_ops = run.sign_ops;
    out.verify_ops = run.verify_ops;
    prof.events += run.events;
    prof.messages += run.physical_messages;
    prof.floods += run.floods;
    prof.sign_ops += run.sign_ops;
    prof.verify_ops += run.verify_ops;
    if (out.rounds_completed == 0) return;

    prof.time(kSkewStats, [&] { fill_skew_metrics(run.trace, spec, out); });
    out.within_bound = out.max_skew <= out.predicted_skew + kBoundTolerance;
    std::optional<relay::TopologySchedule> measure;
    prof.time(kScheduleCopy, [&] {
      measure.emplace(dynamic ? *schedule
                              : relay::TopologySchedule::static_schedule(
                                    config.topology));
    });
    const std::vector<double> series = prof.time(kLocalSkew, [&] {
      return runner::local_skew_series(run.trace, *measure);
    });
    if (!series.empty())
      out.local_skew = *std::max_element(series.begin(), series.end());
    runner::KlloEnvelopeParams params;
    params.sigma = effective.model.u +
                   (effective.model.vartheta - 1.0) * setup.round_length;
    params.global = static_cast<double>(spec.n) * params.sigma;
    params.stab_mult = spec.kllo_stab;
    const runner::KlloConformance kllo = prof.time(kKllo, [&] {
      return runner::kllo_conformance(run.trace, *measure, params);
    });
    out.kllo_ratio = kllo.ratio;
    out.kllo_violations = kllo.violations;
    out.edge_age_min = kllo.edge_age_min;
    prof.time(kScheduleCopy, [&] { measure.reset(); });
    ++prof.metric_passes;
  };

  const bool adaptive = relay::adaptive(spec.relay_fault) && spec.f_actual > 0;
  if (!adaptive) {
    ++prof.attack_candidates;
    run_candidate(0, result);
    return;
  }
  const bool search = spec.relay_fault == relay::RelayFaultKind::kSearch;
  const std::uint32_t budget = search ? std::max(spec.search_budget, 1u) : 1u;
  const ScenarioResult base = result;
  std::optional<ScenarioResult> best;
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint64_t best_seed = 0;
  for (std::uint32_t k = 0; k < budget; ++k) {
    std::uint64_t attack_seed = 0;
    if (k > 0) {
      attack_seed = util::Rng(result.seed ^ 0xa77ac4ULL).fork(k).next_u64();
      if (attack_seed == 0) attack_seed = 1;
    }
    ScenarioResult candidate = base;
    const auto t0 = Clock::now();
    run_candidate(attack_seed, candidate);
    if (k > 0) prof.extra_candidate_s += seconds_since(t0);
    ++prof.attack_candidates;
    const double score =
        candidate.rounds_completed > 0 && std::isfinite(candidate.max_skew)
            ? candidate.max_skew
            : -std::numeric_limits<double>::infinity();
    if (!best || score > best_score) {
      best = std::move(candidate);
      best_score = score;
      best_seed = attack_seed;
    }
  }
  result = *best;
  result.attack_iters = budget;
  result.attack_best_seed = best_seed;
  if (search) {
    ++prof.search_cells;
    if (best_seed != 0) ++prof.search_improved;
  }
}

void rebuild_theorem5(const ScenarioSpec& spec, ScenarioResult& result,
                      Profile& prof) {
  const auto model = spec.model();
  CS_CHECK_MSG(model.n == 3, "theorem5 world requires n = 3");
  model.validate();
  const auto report = prof.time(kTheorem5, [&] {
    return lowerbound::run_theorem5(spec.protocol, model, spec.rounds);
  });
  result.feasible = report.feasible;
  if (!report.feasible) return;
  result.predicted_skew = report.bound;
  result.rounds_completed = report.rounds;
  result.live = report.rounds >= spec.rounds;
  if (report.rounds > 0) {
    result.max_skew = report.max_skew;
    result.steady_skew = report.max_skew;
    result.within_bound = report.bound_holds;
  }
}

/// run_scenario, one public layer call at a time.
ScenarioResult rebuild_cell(const ScenarioSpec& spec, std::uint64_t base_seed,
                            relay::EffectiveCache& cache, Profile& prof) {
  ScenarioResult result;
  result.spec = spec;
  result.seed = runner::scenario_seed(spec, base_seed);
  result.max_skew = kNan;
  result.steady_skew = kNan;
  result.skew_p50 = kNan;
  result.skew_p99 = kNan;
  result.min_period = kNan;
  result.max_period = kNan;
  result.predicted_skew = kNan;
  result.skew_ratio = kNan;
  result.local_skew = kNan;
  result.local_skew_ratio = kNan;
  result.d_eff = kNan;
  result.u_eff = kNan;
  result.kllo_ratio = kNan;
  result.edge_age_min = kNan;
  try {
    switch (spec.world) {
      case runner::WorldKind::kComplete:
        rebuild_complete(spec, result, prof);
        break;
      case runner::WorldKind::kRelay:
        rebuild_relay(spec, cache, result, prof);
        break;
      case runner::WorldKind::kTheorem5:
        rebuild_theorem5(spec, result, prof);
        break;
    }
    if (spec.world != runner::WorldKind::kRelay && result.rounds_completed > 0)
      result.local_skew = result.max_skew;
    if (result.rounds_completed > 0 && std::isfinite(result.max_skew) &&
        std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
      result.skew_ratio = result.max_skew / result.predicted_skew;
    if (result.rounds_completed > 0 && std::isfinite(result.local_skew) &&
        std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
      result.local_skew_ratio = result.local_skew / result.predicted_skew;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  return result;
}

struct TracedPass {
  double wall_s = 0.0;  ///< open_sweep to finish(), like PassStats setup+sweep
  Profile prof;
  std::size_t cells = 0;
  std::size_t failed = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::string digest;
};

TracedPass traced_pass(const Context& ctx, const std::string& tag) {
  prepare_files(ctx, tag);
  TracedPass p;
  Profile& prof = p.prof;
  const auto t0 = Clock::now();
  Sweep s = open_sweep(ctx, tag);
  prof.seconds[kExpand] += s.expand_s;
  prof.seconds[kCampaignOpen] += s.open_s;
  relay::EffectiveCache cache;
  for (std::size_t i = s.campaign->resume_index(); i < s.specs.size(); ++i) {
    const ScenarioResult r = rebuild_cell(s.specs[i], ctx.seed, cache, prof);
    prof.time(kCsvAppend, [&] { s.campaign->append(r); });
    ++p.cells;
    if (cell_failed(r)) ++p.failed;
  }
  prof.time(kCsvAppend, [&] {
    s.campaign->finish();
    s.campaign.reset();
  });
  p.wall_s = seconds_since(t0);
  p.cache_hits = cache.hits();
  p.cache_misses = cache.misses();
  p.digest = file_sha256(s.csv);
  return p;
}

/// The first row where two CSVs differ, both versions, for the report.
std::string first_difference(const fs::path& a, const fs::path& b) {
  std::ifstream fa(a), fb(b);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(fa, la));
    const bool more_b = static_cast<bool>(std::getline(fb, lb));
    if (!more_a && !more_b) return "files are equal";
    if (!more_a || !more_b || la != lb)
      return "line " + std::to_string(line) + ": '" + (more_a ? la : "<eof>") +
             "' vs '" + (more_b ? lb : "<eof>") + "'";
  }
}

// --- Crypto microbench -------------------------------------------------------

struct CryptoCost {
  double sign_ns = 0.0;
  double verify_ns = 0.0;
};

/// Median per-operation cost of Pki::sign and Pki::verify over batches of
/// distinct value payloads — the layer's unit cost, which the cells'
/// sign/verify counts turn into an estimated share of the run.
CryptoCost crypto_microbench(crypto::Pki::Kind kind) {
  constexpr std::size_t kBatch = 256;
  constexpr int kRepeats = 31;
  crypto::Pki pki(16, kind, 1);
  std::vector<crypto::SignedPayload> payloads;
  for (Round r = 0; r < kBatch; ++r)
    payloads.push_back(crypto::make_value_payload(
        r, static_cast<NodeId>(r % 16), 0.25 * static_cast<double>(r)));
  std::vector<crypto::Signature> sigs(kBatch);
  util::Samples sign_ns, verify_ns;
  std::size_t valid = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i)
      sigs[i] = pki.sign(static_cast<NodeId>(i % 16), payloads[i]);
    sign_ns.add(seconds_since(t0) * 1e9 / kBatch);
    t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i)
      valid += pki.verify(sigs[i], payloads[i]) ? 1 : 0;
    verify_ns.add(seconds_since(t0) * 1e9 / kBatch);
  }
  if (valid != kBatch * kRepeats)
    throw std::runtime_error("crypto microbench: a signature failed to verify");
  return {sign_ns.median(), verify_ns.median()};
}

// --- Output ------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec << std::setfill(' ');
    } else {
      os << c;
    }
  }
  return os.str();
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    os_ << (os_.tellp() > 0 ? ", " : "") << '"' << name << "\": {\"value\": "
        << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value << ", \"unit\": \"" << unit << "\"}";
  }
  void count(const std::string& name, std::uint64_t value) {
    os_ << (os_.tellp() > 0 ? ", " : "") << '"' << name << "\": {\"value\": "
        << value << ", \"unit\": \"count\"}";
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
};

double ratio_or_zero(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> xs) {
  util::Samples s;
  s.add_all(xs);
  return s.median();
}

/// Passes are repeated while another one of the mean length still fits in
/// the run, and at least `min_passes` times.
bool another_pass(std::size_t passes, std::size_t min_passes,
                  double elapsed_s, double seconds) {
  if (passes < min_passes) return true;
  return elapsed_s + elapsed_s / static_cast<double>(passes) <= seconds;
}

/// End-to-end metrics: untraced sweeps, one thread.
///
/// A cell's latency is the fastest of its repeats in the run. The work of a
/// cell is fixed by its seed, but on a shared host co-tenants slow whole
/// seconds at a time by up to 2x; the fastest repeat is what the code itself
/// costs, and it is what stays put from run to run (README.md, "Noise").
std::string run_end_to_end(const Context& ctx, Tally& tally,
                           std::string& digest) {
  // Set-up is sampled in a burst of four before every pass, so the samples
  // spread over the whole run. The first of each burst only refills the
  // caches the previous pass evicted: a set-up is tens of microseconds on
  // most grids, and a cold one measures the host's cache pressure more than
  // the code.
  std::vector<double> setups;
  std::vector<PassStats> passes;
  const auto t0 = Clock::now();
  while (another_pass(passes.size(), 2, seconds_since(t0), ctx.seconds)) {
    for (int i = 0; i < 4; ++i) {
      prepare_files(ctx, "setup");
      const Sweep s = open_sweep(ctx, "setup");
      if (i > 0) setups.push_back(s.expand_s + s.open_s);
    }
    passes.push_back(untraced_pass(ctx, "pass", 1));
  }

  digest = passes.front().digest;
  const std::size_t cells = passes.front().cells;
  std::vector<double> best_ms(cells, std::numeric_limits<double>::infinity());
  for (const auto& p : passes) {
    tally.attempted += p.cells;
    tally.failed += p.failed;
    if (p.digest != digest)
      tally.problems.push_back("pass CSVs differ between repeats of one seed");
    for (std::size_t i = 0; i < cells; ++i)
      best_ms[i] = std::min(best_ms[i], p.latencies_ms[i]);
  }
  double sweep_s = 0.0;
  for (const double ms : best_ms) sweep_s += ms / 1000.0;
  util::Samples latency;
  latency.add_all(best_ms);
  std::cerr << "crusader_bench: " << ctx.workload->name << ": "
            << passes.size() << " passes of " << cells
            << " cells; sweep seconds:";
  for (const auto& p : passes) std::cerr << ' ' << p.sweep_s;
  std::cerr << "\n";

  Metrics m;
  m.add("setup_s", median(setups), "s");
  m.add("cells_per_s", static_cast<double>(cells) / sweep_s, "cells/s");
  m.add("events_per_s", static_cast<double>(passes.front().events) / sweep_s,
        "events/s");
  m.add("cell_p50_ms", latency.median(), "ms");
  m.add("cell_tail_ms", latency.quantile(ctx.workload->tail_q), "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  return m.str();
}

/// Per-layer metrics: each round runs an untraced sweep on one thread, the
/// traced rebuild, and an untraced sweep on two threads, so that all three
/// see the same stretch of host noise; ratios between them use each kind's
/// fastest pass, like the end-to-end metrics.
std::string run_traced(const Context& ctx, Tally& tally, std::string& digest) {
  std::vector<PassStats> untraced;
  std::vector<TracedPass> traced;
  double untraced_wall = std::numeric_limits<double>::infinity();
  double untraced_sweep = untraced_wall, pool_sweep = untraced_wall;
  double traced_wall = untraced_wall;
  auto record = [&](std::size_t cells, std::size_t failed,
                    const std::string& pass_digest, const char* mismatch) {
    tally.attempted += cells;
    tally.failed += failed;
    if (digest.empty()) digest = pass_digest;
    if (pass_digest != digest) tally.problems.push_back(mismatch);
  };
  const auto t0 = Clock::now();
  while (another_pass(untraced.size(), 1, seconds_since(t0), ctx.seconds)) {
    untraced.push_back(untraced_pass(ctx, "untraced", 1));
    const PassStats& u = untraced.back();
    record(u.cells, u.failed, u.digest,
           "pass CSVs differ between repeats of one seed");
    untraced_wall = std::min(untraced_wall, u.setup_s + u.sweep_s);
    untraced_sweep = std::min(untraced_sweep, u.sweep_s);

    traced.push_back(traced_pass(ctx, "traced"));
    const TracedPass& p = traced.back();
    tally.attempted += p.cells;
    tally.failed += p.failed;
    if (p.digest != digest)
      tally.problems.push_back(
          "traced rebuild differs from the runner: " +
          first_difference(csv_path(ctx, "untraced"),
                           csv_path(ctx, "traced")));
    if (p.cache_hits != u.cache_hits || p.cache_misses != u.cache_misses)
      tally.problems.push_back("traced D_f cache hits/misses differ from the "
                               "runner's shared_relay_cache");
    traced_wall = std::min(traced_wall, p.wall_s);

    const PassStats pool = untraced_pass(ctx, "pool", 2);
    record(pool.cells, pool.failed, pool.digest,
           "the 2-thread sweep's CSV differs from 1 thread");
    pool_sweep = std::min(pool_sweep, pool.sweep_s);
  }
  const PassStats& ref = untraced.front();

  const CryptoCost crypto = crypto_microbench(ctx.workload->pki);

  std::array<double, kStageCount> stage_s{};
  double wall = 0.0, sim_run_s = 0.0, extra_s = 0.0;
  std::uint64_t events = 0;
  for (const auto& p : traced) {
    for (std::size_t i = 0; i < kStageCount; ++i)
      stage_s[i] += p.prof.seconds[i];
    wall += p.wall_s;
    sim_run_s += p.prof.seconds[kSimRun];
    extra_s += p.prof.extra_candidate_s;
    events += p.prof.events;
  }
  double covered = 0.0;
  for (const double s : stage_s) covered += s;
  const Profile& c = traced.front().prof;  // counters repeat exactly per pass

  Metrics m;
  for (std::size_t i = 0; i < kStageCount; ++i)
    m.add(std::string(kStageNames[i]) + "_share", stage_s[i] / wall,
          "fraction");
  m.add("relay.extra_candidate_share", extra_s / wall, "fraction");
  m.add("trace.coverage", covered / wall, "fraction");
  m.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio");
  m.add("trace.wall_s", traced_wall, "s");
  m.add("runner.pool_speedup_2t", untraced_sweep / pool_sweep, "ratio");
  m.add("sim.busy_events_per_s", static_cast<double>(events) / sim_run_s,
        "events/s");
  m.add("crypto.sign_ns", crypto.sign_ns, "ns");
  m.add("crypto.verify_ns", crypto.verify_ns, "ns");
  m.add("crypto.est_share",
        (static_cast<double>(c.sign_ops) * crypto.sign_ns +
         static_cast<double>(c.verify_ops) * crypto.verify_ns) *
            1e-9 / traced_wall,
        "fraction");
  m.count("runner.cells", traced.front().cells);
  m.count("runner.rows_replayed", ref.replayed);
  m.count("runner.csv_bytes", ref.csv_bytes);
  m.count("runner.metric_passes", c.metric_passes);
  m.count("sim.events", c.events);
  m.count("sim.messages", c.messages);
  m.count("relay.floods", c.floods);
  m.count("crypto.sign_ops", c.sign_ops);
  m.count("crypto.verify_ops", c.verify_ops);
  m.count("relay.analysis_calls", c.analysis_calls);
  m.add("relay.analysis_exact_ratio",
        ratio_or_zero(c.analysis_exact, c.analysis_calls), "fraction");
  m.count("relay.cache_hits", ref.cache_hits);
  m.count("relay.cache_misses", ref.cache_misses);
  m.add("relay.cache_hit_ratio",
        ratio_or_zero(ref.cache_hits, ref.cache_hits + ref.cache_misses),
        "fraction");
  m.count("relay.schedule_edge_changes", c.schedule_edge_changes);
  m.count("relay.schedule_leaves", c.schedule_leaves);
  m.count("relay.attack_candidates", c.attack_candidates);
  m.add("relay.search_improved_ratio",
        ratio_or_zero(c.search_improved, c.search_cells), "fraction");
  return m.str();
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

int usage(const std::string& msg) {
  std::cerr << "crusader_bench: " << msg
            << "\nusage: crusader_bench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --workdir=DIR [--check]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      ctx.check = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      return usage("expected --key=value, got '" + arg + "'");
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      ctx.workload = find_workload(value);
      if (ctx.workload == nullptr)
        return usage("unknown workload '" + value + "'");
    } else if (key == "seed") {
      const auto seed = runner::parse_u64_strict(value);
      if (!seed) return usage("bad --seed '" + value + "'");
      ctx.seed = *seed;
    } else if (key == "seconds") {
      const auto seconds = runner::parse_double_strict(value);
      if (!seconds || *seconds < 0.0)
        return usage("bad --seconds '" + value + "'");
      ctx.seconds = *seconds;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (key == "workdir") {
      ctx.workdir = value;
    } else {
      return usage("unknown option '--" + key + "'");
    }
  }
  if (ctx.workload == nullptr) return usage("--workload is required");
  if (ctx.workdir.empty()) return usage("--workdir is required");

  // The sampled-D_f warnings would flood stderr at large n; rows are
  // unaffected by the log level.
  util::set_log_level(util::LogLevel::kError);

  try {
    fs::create_directories(ctx.workdir);
    Tally tally;
    if (ctx.workload->resume) prefill(ctx, tally);
    std::string digest;
    const std::string metrics = trace == 1
                                    ? run_traced(ctx, tally, digest)
                                    : run_end_to_end(ctx, tally, digest);
    std::cout << "{\"workload\": \"" << ctx.workload->name
              << "\", \"seed\": " << ctx.seed
              << ", \"check\": " << (ctx.check ? "true" : "false")
              << ", \"correct\": "
              << (tally.problems.empty() ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"csv_sha256\": \""
              << digest << "\", \"problems\": [";
    for (std::size_t i = 0; i < tally.problems.size(); ++i)
      std::cout << (i ? ", " : "") << '"' << json_escape(tally.problems[i])
                << '"';
    std::cout << "], \"metrics\": " << metrics << "}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "crusader_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
