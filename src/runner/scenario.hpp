#pragma once
// Declarative scenario descriptions for parameter sweeps: one ScenarioSpec
// fully determines a world (world kind × protocol × model × adversary ×
// schedule), and a SweepGrid expands axis lists into the cross-product of
// specs in a fixed, documented order so that sweep output is stable across
// runs and machines.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "relay/adversary.hpp"
#include "relay/schedule.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "util/spelling.hpp"

namespace crusader::runner {

/// Which simulation world executes a scenario.
///  * kComplete — the standard fully-connected World (PR-2 behaviour).
///  * kRelay — the Appendix-A sparse-network translation: the protocol runs
///    over a (f+1)-connected topology via path-balanced flooding, with
///    spec.d / spec.u reinterpreted as the per-hop d_hop / u_hop and the
///    protocol configured with the effective (d_eff, u_eff).
///  * kTheorem5 — the Theorem-5 lower-bound construction (three-execution
///    adversary, n = 3); spec.u_tilde is the ũ the adversary exploits and
///    spec.rounds is the construction's target round count.
enum class WorldKind { kComplete, kRelay, kTheorem5 };

inline constexpr util::Spelling<WorldKind> kWorldSpellings[] = {
    {WorldKind::kComplete, "complete"},
    {WorldKind::kComplete, "flat"},
    {WorldKind::kRelay, "relay"},
    {WorldKind::kRelay, "sparse"},
    {WorldKind::kTheorem5, "theorem5"},
    {WorldKind::kTheorem5, "thm5"},
    {WorldKind::kTheorem5, "lower-bound"},
};

/// Topology family for WorldKind::kRelay.
///  * kChordalRing — the circulant C_n(1, 2): the ring plus stride-2 chords,
///    4-connected for n ≥ 6 so it survives up to 3 faults while staying
///    degree-4 sparse.
///  * kRingOfCliques — n/4 cliques of size 4 joined by 2 disjoint bridges
///    per junction (the "balanced paths" topology of E11 in
///    bench/bench_sparse_network.cpp); requires n ≡ 0 (mod 4), n ≥ 8, and
///    survives up to 2·bridges − 1 = 3 faults.
enum class TopologyKind {
  kComplete,
  kRing,
  kChordalRing,
  kRingOfCliques,
  kHypercube,
  kRandomConnected
};

inline constexpr util::Spelling<TopologyKind> kTopologySpellings[] = {
    {TopologyKind::kComplete, "complete"},
    {TopologyKind::kRing, "ring"},
    {TopologyKind::kChordalRing, "chordal-ring"},
    {TopologyKind::kChordalRing, "chordal"},
    {TopologyKind::kRingOfCliques, "ring-of-cliques"},
    {TopologyKind::kRingOfCliques, "cliques"},
    {TopologyKind::kHypercube, "hypercube"},
    {TopologyKind::kRandomConnected, "random"},
};

/// Crypto label of a scenario.
///  * kReal — the symbolic registry scheme with SHA-256 payload digests,
///    memoized per world (the default; crypto::Pki::Kind::kSymbolic).
///  * kAbstract — a CSV and key() label only: crypto::Pki::Kind::kAbstract
///    builds the same symbolic registry scheme as kReal, so its results
///    equal kReal's by construction. Kept so abstract rows keep their
///    labels, keys, seeds and digests.
enum class CryptoMode { kReal, kAbstract };

inline constexpr util::Spelling<CryptoMode> kCryptoSpellings[] = {
    {CryptoMode::kReal, "real"},
    {CryptoMode::kAbstract, "abstract"},
};

[[nodiscard]] const char* to_string(WorldKind kind);
[[nodiscard]] const char* to_string(TopologyKind kind);
[[nodiscard]] const char* to_string(CryptoMode mode);

// CLI-facing parsers (shared by SweepGrid::set_axis, sweep_cli and the tests
// that walk every spelling table). Each accepts exactly the rows of its
// enum's spelling table; unknown strings yield nullopt.
[[nodiscard]] inline std::optional<WorldKind> parse_world(std::string_view s) {
  return util::parse_spelling(kWorldSpellings, s);
}

[[nodiscard]] inline std::optional<TopologyKind> parse_topology(
    std::string_view s) {
  return util::parse_spelling(kTopologySpellings, s);
}

[[nodiscard]] inline std::optional<baselines::ProtocolKind> parse_protocol(
    std::string_view s) {
  return util::parse_spelling(baselines::kProtocolSpellings, s);
}

[[nodiscard]] inline std::optional<sim::DelayKind> parse_delay_kind(
    std::string_view s) {
  return util::parse_spelling(sim::kDelayKindSpellings, s);
}

/// ClockKind::kCustom is intentionally not parseable: it requires a
/// caller-supplied clock vector that cannot come from a flag.
[[nodiscard]] inline std::optional<sim::ClockKind> parse_clock_kind(
    std::string_view s) {
  const auto kind = util::parse_spelling(sim::kClockKindSpellings, s);
  return kind == sim::ClockKind::kCustom ? std::nullopt : kind;
}

[[nodiscard]] inline std::optional<core::ByzStrategy> parse_byz_strategy(
    std::string_view s) {
  return util::parse_spelling(core::kByzStrategySpellings, s);
}

[[nodiscard]] inline std::optional<relay::RelayFaultKind> parse_relay_fault(
    std::string_view s) {
  return util::parse_spelling(relay::kRelayFaultSpellings, s);
}

[[nodiscard]] inline std::optional<CryptoMode> parse_crypto_mode(
    std::string_view s) {
  return util::parse_spelling(kCryptoSpellings, s);
}

[[nodiscard]] inline std::optional<relay::ReconnectPolicy> parse_reconnect(
    std::string_view s) {
  return util::parse_spelling(relay::kReconnectSpellings, s);
}

/// CLI spelling for WorldConfig::custom_delay / RelayConfig::custom_delay —
/// the delay policies that have no DelayKind enumerator:
///   "custom:fixed:<fraction>"  every delay at lo + fraction·(hi − lo),
///                              fraction ∈ [0, 1]
///   "custom:alternate"         alternate min/max per message
///   "custom:target:<node>"     one receiver at max delay, the rest at min
///                              (SecureTime-style targeted delay)
/// A parsed spec is a value (digestable, printable, comparable); factory()
/// builds the policy factory the world configs consume.
struct CustomDelaySpec {
  enum class Kind { kFixed, kAlternate, kTarget };
  Kind kind = Kind::kFixed;
  double fraction = 0.5;      ///< kFixed only
  std::uint32_t target = 0;   ///< kTarget only

  [[nodiscard]] std::string spelling() const;
  [[nodiscard]] std::function<std::unique_ptr<sim::DelayPolicy>()> factory()
      const;
  [[nodiscard]] bool operator==(const CustomDelaySpec&) const = default;
};

/// Parses the "custom:..." spellings above; nullopt for anything else
/// (unknown policy name, missing/garbage/out-of-range parameter).
[[nodiscard]] std::optional<CustomDelaySpec> parse_custom_delay(
    std::string_view s);

// Strict full-string numeric parses for CLI flags: unlike bare std::stod /
// std::stoul they reject empty strings, trailing garbage ("1.5x"), signs on
// unsigned targets ("-3" silently wraps through stoul), inf/nan, and
// overflow — returning nullopt instead of throwing or half-parsing, so the
// CLI can exit 2 naming the offending flag.
[[nodiscard]] std::optional<double> parse_double_strict(std::string_view s);
[[nodiscard]] std::optional<std::uint64_t> parse_u64_strict(
    std::string_view s);

/// One fully-specified simulation scenario. Everything influencing the run is
/// in here (plus the sweep's base seed) — two equal specs produce bitwise
/// identical results.
struct ScenarioSpec {
  WorldKind world = WorldKind::kComplete;
  baselines::ProtocolKind protocol = baselines::ProtocolKind::kCps;
  std::uint32_t n = 4;
  /// Fault tolerance the protocol is parameterized for (model.f).
  std::uint32_t f = 0;
  /// Byzantine nodes actually instantiated (usually == f; benches that probe
  /// beyond-resilience behavior set f_actual > f). Relay worlds crash these
  /// nodes (they neither relay nor speak); kTheorem5 ignores it — the
  /// construction itself realizes the faulty node.
  std::uint32_t f_actual = 0;
  /// End-to-end delay bound; per-hop d_hop when world == kRelay.
  double d = 1.0;
  /// Delay uncertainty; per-hop u_hop when world == kRelay.
  double u = 0.05;
  /// Faulty-link uncertainty ũ ∈ [u, d]; the construction's ũ for kTheorem5.
  double u_tilde = 0.05;
  double vartheta = 1.01;
  /// Relay-only: topology family the flood overlay runs on. kHypercube
  /// requires n to be a power of two; kRandomConnected draws a minimal
  /// (f+1)-connected graph from the scenario's seed.
  TopologyKind topology = TopologyKind::kComplete;
  sim::DelayKind delay = sim::DelayKind::kRandom;
  /// When set, overrides `delay` with the custom policy it describes (the
  /// CLI's "--delays=custom:..." axis values).
  std::optional<CustomDelaySpec> custom_delay;
  sim::ClockKind clocks = sim::ClockKind::kSpread;
  /// Byzantine behavior; only consulted when f_actual > 0 (kComplete only).
  core::ByzStrategy strategy = core::ByzStrategy::kCrash;
  /// Relay-only: how faulty relays misbehave (crash / max-delay / reorder /
  /// selective-drop / greedy-skew / search); only consulted when
  /// f_actual > 0.
  relay::RelayFaultKind relay_fault = relay::RelayFaultKind::kCrash;
  /// kSearch only: how many candidate attack schedules the runner tries per
  /// cell (candidate 0 plays greedy-skew, so search weakly dominates it by
  /// construction). Folds into key() only for kSearch cells — every other
  /// spec keeps its historical digest regardless of this value.
  std::uint32_t search_budget = 8;
  /// When true (and f_actual > 0), runs the ST certificate-acceleration
  /// attack (all faulty nodes target node n-1) instead of `strategy`.
  bool st_accelerator = false;
  double late_shift = 0.0;
  double split_shift = 0.0;
  /// Pulse rounds to run; the target_rounds of the kTheorem5 construction.
  std::size_t rounds = 20;
  /// Rounds skipped before steady-state metrics.
  std::size_t warmup = 5;
  /// Slack multiplier forwarded to make_setup's constant solver.
  double slack = 1.0;
  /// Crypto row label (both modes run the same signature scheme).
  /// Behaviour-preserving by construction, so the default stays
  /// kReal and only kAbstract folds into key() — existing digests, seeds,
  /// and history files are untouched.
  CryptoMode crypto = CryptoMode::kReal;
  /// Dynamic-network axes (kRelay only; inert defaults everywhere else).
  /// churn_rate is the expected fraction of live edges rewired per round and
  /// join_batch the nodes leaving (rejoining one round later) per round; the
  /// reconnect policy shapes the replacement edges. Like the crypto axis
  /// these fold into key() only when active, so every static spec keeps its
  /// historical digest, seed, and history lines bit-for-bit.
  double churn_rate = 0.0;
  std::uint32_t join_batch = 0;
  relay::ReconnectPolicy reconnect = relay::ReconnectPolicy::kRandom;
  /// KLLO stabilization-time multiplier (runner/kllo.hpp): scales the
  /// settling window the per-edge-age envelope grants a freshly (re)appeared
  /// edge. Meaningful on dynamic cells only; like the churn axes it folds
  /// into key() only when active AND non-default, so every existing digest
  /// is byte-preserved.
  double kllo_stab = 1.0;

  /// Whether this cell runs on a time-varying topology.
  [[nodiscard]] bool dynamic() const noexcept {
    return world == WorldKind::kRelay && (churn_rate > 0.0 || join_batch > 0);
  }

  [[nodiscard]] sim::ModelParams model() const;
  /// The inverse of model(): copies n, f, d, u, u_tilde and vartheta.
  void set_model(const sim::ModelParams& m);

  /// Human-readable id, e.g. "CPS n=7 f=3 vt=1.01 u=0.05 delay=random
  /// byz=split" or "relay[hypercube] CPS n=8 ...". Unique per distinct spec
  /// in practice; used as the CSV key.
  [[nodiscard]] std::string name() const;

  /// Stable 64-bit digest of every axis. Used to derive the per-scenario RNG
  /// stream, so a scenario's seed does not depend on its position in the
  /// grid (inserting scenarios never reshuffles others' randomness).
  [[nodiscard]] std::uint64_t key() const noexcept;
};

/// Axis lists expanded into the cross product of ScenarioSpecs. expand()
/// walks one table of axis rows, kAxisRows in scenario.cpp, outermost
/// first (world, protocol, n, ..., kllo_stab). Each row states which cells
/// read its axis: those fan out over the list, and cells that cannot
/// express the axis pin the field instead of multiplying (e.g. kTheorem5
/// pins n = 3, f = 1 and the delay, clock, crypto, and churn fields).
/// Collapsed duplicates are deduplicated by spec digest, first one kept.
struct SweepGrid {
  std::vector<WorldKind> worlds{WorldKind::kComplete};
  std::vector<baselines::ProtocolKind> protocols{
      baselines::ProtocolKind::kCps};
  std::vector<std::uint32_t> ns{4};
  /// Faulty-node counts. kMaxResilience means "this protocol's optimal
  /// resilience at this n": ⌈n/2⌉−1 for CPS and Srikanth–Toueg, ⌈n/3⌉−1 for
  /// Lynch–Welch — additionally capped by the topology's connectivity for
  /// relay worlds (a ring can never survive two faults).
  std::vector<std::int64_t> fault_loads{0};
  std::vector<double> varthetas{1.01};
  std::vector<double> us{0.05};
  /// ũ axis. Empty means "track u" (ũ = u at every grid point, the PR-2
  /// behaviour); explicit values are clamped up to the cell's u so every
  /// expanded spec satisfies the model's ũ ∈ [u, d] requirement.
  std::vector<double> u_tildes{};
  std::vector<sim::DelayKind> delays{sim::DelayKind::kRandom};
  /// Custom delay policies appended to the delay axis after the DelayKind
  /// values (kTheorem5 collapses them like the rest of the delay axis).
  std::vector<CustomDelaySpec> custom_delays{};
  std::vector<sim::ClockKind> clock_kinds{sim::ClockKind::kSpread};
  std::vector<TopologyKind> topologies{TopologyKind::kComplete};
  std::vector<core::ByzStrategy> strategies{core::ByzStrategy::kCrash};
  /// Relay-fault behaviors for faulty kRelay grid points. The adaptive kinds
  /// (greedy-skew, search) additionally multiply by the dynamic churn axes —
  /// an adaptive adversary under churn is exactly the regime the
  /// observation-refresh machinery exists for — while the oblivious kinds
  /// keep their historical static-only cells.
  std::vector<relay::RelayFaultKind> relay_faults{
      relay::RelayFaultKind::kCrash};
  /// Search budgets (candidate attack schedules per kSearch cell). The axis
  /// multiplies only kSearch grid points; every other kind pins the spec's
  /// search_budget to the default so the axis collapses via digest dedup.
  std::vector<std::uint32_t> search_budgets{8};
  /// Crypto-mode axis (kTheorem5 collapses to kReal — the construction's
  /// adversary forges nothing, so the axis has no effect there).
  std::vector<CryptoMode> cryptos{CryptoMode::kReal};
  /// Dynamic-network axes, expanded innermost. Fault-free kRelay grid
  /// points and adaptive faulty ones multiply by them (churn and oblivious
  /// Byzantine relays are separate regimes); every other point — and every
  /// inert combination — collapses to the single static cell.
  std::vector<double> churn_rates{0.0};
  std::vector<std::uint32_t> join_batches{0};
  std::vector<relay::ReconnectPolicy> reconnects{
      relay::ReconnectPolicy::kRandom};
  /// KLLO stabilization-multiplier axis. Multiplies only the *dynamic* churn
  /// points (the envelope's edge-age decay is degenerate on a static graph);
  /// inert combinations normalize to 1.0 and collapse via digest dedup.
  std::vector<double> kllo_stabs{1.0};
  double d = 1.0;
  std::size_t rounds = 20;
  std::size_t warmup = 5;
  double slack = 1.0;
  /// Also run the Srikanth–Toueg certificate-acceleration attack
  /// (`--byz=st-accel`): expand() appends, after every other cell, a copy
  /// with st_accelerator set of each faulty complete-world ST cell.
  bool st_accelerator = false;

  static constexpr std::int64_t kMaxResilience = -1;

  [[nodiscard]] std::vector<ScenarioSpec> expand() const;

  /// Replaces the axis whose command-line flag is `flag` (as typed: '_' may
  /// spell '-', and "delay" is "delays") with the comma-separated `list`.
  /// Returns false when `flag` names no axis. Throws std::invalid_argument
  /// naming the flag on an unknown spelling, a malformed or out-of-range
  /// number, or an empty list — except for u-tilde, where an empty list
  /// means ũ = u.
  [[nodiscard]] bool set_axis(std::string_view flag, std::string_view list);
};

/// Resilience bound for `protocol` at `n` (signed bound for CPS/ST, plain
/// bound for LW).
[[nodiscard]] std::uint32_t max_resilience(baselines::ProtocolKind protocol,
                                           std::uint32_t n) noexcept;

/// Largest f a relay world on this topology family can be asked to survive:
/// connectivity − 1 (1 for a ring, 3 for the stride-2 chordal ring and the
/// 4/2 ring of cliques, log2(n) − 1 for a hypercube, n − 2 for
/// complete/random — random graphs are grown until (f+1)-connected, so only
/// the trivial cap applies).
[[nodiscard]] std::uint32_t max_topology_faults(TopologyKind kind,
                                                std::uint32_t n) noexcept;

}  // namespace crusader::runner
