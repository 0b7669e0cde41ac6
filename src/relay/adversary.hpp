#pragma once
// Byzantine relay adversaries for the Appendix-A flood overlay.
//
// Signatures neutralize equivocation: a faulty relay cannot alter or forge
// the copies it forwards. What it CAN still do — and what the paper's
// translation must survive — is delay, reorder, or selectively drop them.
// The per-relay behaviors modeled here:
//
//  * kCrash — drop everything (the node neither speaks nor relays). This is
//    the crash-relay worst case for connectivity the overlay modeled before
//    this policy existed.
//  * kMaxDelay — forward every copy at the full per-hop bound d_hop while
//    honest hops may be faster. Legal (delays stay in [d_hop − u_hop,
//    d_hop]) but maximally skews path timing against the balancing hold.
//  * kReorder — permute deliveries inside the legal window: each forwarded
//    copy is pinned to one extreme of [d_hop − u_hop, d_hop] by a
//    seed-chosen parity, so copies of later floods overtake earlier ones and
//    the flood dedupe's implicit FIFO assumptions are stressed.
//  * kSelectiveDrop — forward to only a seed-chosen half of the neighbors
//    (⌈deg/2⌉): the connectivity-halving worst case short of crashing. The
//    surviving graph still contains every path that exists with the relay
//    deleted outright, so the D_f distance bound continues to hold.
//  * kGreedySkew — ADAPTIVE: the adversary watches the flood frontier (every
//    hop delivery feeds observe()) and estimates each node's lateness — how
//    far behind the flood's first sighting its copies arrive. A faulty relay
//    then slows the lagging side (full d_hop toward nodes at or above the
//    mean lateness, d_hop − u_hop toward the leaders) and drops the single
//    most-lagging neighbor, widening the fastest/slowest frontier gap online.
//  * kSearch — a budgeted random-search schedule: per-(relay, flood) window
//    extremes and a per-(relay, flood) drop victim, all derived from one
//    attack seed. The runner replays the cell under N candidate seeds (seed
//    0 = play greedy-skew) and keeps the argmax skew, so search weakly
//    dominates greedy by construction and the winning schedule is replayable
//    from its seed alone.
//
// Every behavior is within the model: delays stay inside
// [d_hop − u_hop, d_hop] and at most one neighbor is pruned per forward (the
// surviving graph is a superset of the graph with the relay deleted, so the
// D_f distance bound continues to hold). Realized skew must therefore stay
// within the Theorem-17 bound at the effective (d_eff, u_eff) — which is
// exactly what tests/test_relay_adversary.cpp asserts.
//
// Determinism: the oblivious kinds are pure functions of (kind, topology,
// faulty set, seed). The adaptive kinds additionally read the observation
// stream, which is itself a deterministic function of the simulation — the
// rolling observation_digest() is the replay witness tests compare.

#include <cstdint>
#include <vector>

#include "core/adversaries.hpp"
#include "relay/topology.hpp"
#include "util/ids.hpp"
#include "util/spelling.hpp"

namespace crusader::relay {

/// Per-relay misbehavior of a faulty node in the flood overlay.
enum class RelayFaultKind {
  kCrash,
  kMaxDelay,
  kReorder,
  kSelectiveDrop,
  kGreedySkew,
  kSearch,
};

inline constexpr util::Spelling<RelayFaultKind> kRelayFaultSpellings[] = {
    {RelayFaultKind::kCrash, "crash"},
    {RelayFaultKind::kMaxDelay, "max-delay"},
    {RelayFaultKind::kMaxDelay, "delay"},
    {RelayFaultKind::kReorder, "reorder"},
    {RelayFaultKind::kSelectiveDrop, "selective-drop"},
    {RelayFaultKind::kSelectiveDrop, "drop"},
    {RelayFaultKind::kGreedySkew, "greedy-skew"},
    {RelayFaultKind::kGreedySkew, "greedy"},
    {RelayFaultKind::kSearch, "search"},
};

[[nodiscard]] const char* to_string(RelayFaultKind kind);

/// Whether the kind observes traffic and chooses its behavior online
/// (kGreedySkew) or via a searched attack schedule (kSearch). Adaptive kinds
/// are the only ones that read the attack seed or the observation stream.
[[nodiscard]] constexpr bool adaptive(RelayFaultKind kind) noexcept {
  return kind == RelayFaultKind::kGreedySkew || kind == RelayFaultKind::kSearch;
}

/// Deterministic per-relay fault policy. All choices (selective-drop subsets,
/// reorder parities, search schedules) are pure functions of (kind, topology,
/// faulty set, seed, attack seed); the adaptive greedy policy additionally
/// folds the deterministic observation stream. Relay worlds stay
/// bit-reproducible across threads and runs either way.
class RelayAdversary {
 public:
  /// `attack_seed` parameterizes kSearch's candidate schedule (0 = play the
  /// greedy policy — the search loop's baseline candidate); other kinds
  /// ignore it.
  RelayAdversary(RelayFaultKind kind, const Topology& topology,
                 std::vector<bool> faulty, std::uint64_t seed,
                 std::uint64_t attack_seed = 0);

  [[nodiscard]] RelayFaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t attack_seed() const noexcept {
    return attack_seed_;
  }

  /// Rebuilds all topology-derived state (selective-drop masks, adaptive
  /// neighbor lists) against `topology` — a pure function of (kind, graph,
  /// faulty set, seed), so refreshing at an epoch boundary is equivalent to
  /// constructing a fresh adversary against the epoch graph. Observation
  /// state (the traffic already seen) deliberately survives: the adversary
  /// keeps what it learned across rewires.
  void refresh(const Topology& topology);

  /// Whether node v runs its protocol instance and relays at all. Faulty
  /// nodes participate under every kind except kCrash — a delaying or
  /// dropping relay still speaks, and its own broadcasts are forwarded
  /// under the same adversarial policy as everyone else's.
  [[nodiscard]] bool participates(NodeId v) const;

  /// Whether this adversary wants the per-hop observation stream (the
  /// greedy policy, including search's seed-0 baseline candidate). Oblivious
  /// kinds return false so the hot path pays nothing.
  [[nodiscard]] bool observing() const noexcept {
    return kind_ == RelayFaultKind::kGreedySkew ||
           (kind_ == RelayFaultKind::kSearch && attack_seed_ == 0);
  }

  /// Per-hop observation callback: node `at` received flood `flood_id` after
  /// `hops` hops at real time `now`. The full frontier is visible (the
  /// adversary is omniscient about traffic, as SecureTime's attacker model
  /// allows); lateness of each node is measured against the flood's first
  /// sighting anywhere. Deterministic given the simulation, and folded into
  /// observation_digest() so replays can be checked bit-exactly. Flood ids
  /// are dense (the world numbers floods 0, 1, 2, ...): first sightings are
  /// kept in a vector indexed by id.
  void observe(NodeId at, std::uint64_t flood_id, std::uint32_t hops,
               double now);

  /// Number of observe() calls and the rolling digest over their arguments —
  /// the bit-exact replay witness.
  [[nodiscard]] std::uint64_t observation_count() const noexcept {
    return log_.count();
  }
  [[nodiscard]] std::uint64_t observation_digest() const noexcept {
    return log_.digest();
  }

  /// Whether faulty relay `at` forwards flood `flood_id` to neighbor `next`
  /// (always true for honest nodes). Oblivious kinds ignore the flood id;
  /// greedy drops toward the most-lagging neighbor it has observed, search
  /// picks a per-(relay, flood) victim from its attack seed. Both adaptive
  /// kinds never drop below 2 live neighbors' worth of fan-out (at most one
  /// victim per forward).
  [[nodiscard]] bool forwards(NodeId at, NodeId next,
                              std::uint64_t flood_id) const;
  /// Flood-oblivious overload kept for the pre-adaptive call sites and
  /// tests; equivalent to forwards(at, next, 0).
  [[nodiscard]] bool forwards(NodeId at, NodeId next) const {
    return forwards(at, next, 0);
  }

  /// Delay the faulty relay `at` imposes on the hop to `next` for flood
  /// `flood_id`, given the legal window [lo, hi] and the delay the honest
  /// policy would have chosen. Honest nodes keep `honest_delay`.
  [[nodiscard]] double hop_delay(NodeId at, NodeId next,
                                 std::uint64_t flood_id, double honest_delay,
                                 double lo, double hi) const;

 private:
  /// The single most-lagging observed neighbor of faulty relay `at`, or
  /// kInvalidNode when nothing has been observed yet (no drop) or the relay
  /// has fewer than 2 neighbors (dropping would disconnect it outright).
  [[nodiscard]] NodeId greedy_victim(NodeId at) const;

  RelayFaultKind kind_;
  std::vector<bool> faulty_;
  std::uint64_t seed_;
  std::uint64_t attack_seed_ = 0;
  /// kSelectiveDrop only: allow_[v] is an n-wide neighbor mask for each
  /// faulty v (empty for honest nodes and other kinds).
  std::vector<std::vector<bool>> allow_;
  /// Adaptive kinds only: the current neighbor list of each faulty relay,
  /// rebuilt by refresh() so drop victims are always chosen among live
  /// edges.
  std::vector<std::vector<NodeId>> nbrs_;

  // --- Observation state (greedy policy only; survives refresh()) ---------
  std::vector<double> flood_first_;  ///< flood id → t₀ (NaN: unseen)
  /// The complete world's greedy estimator; sized n only when observing(),
  /// so observe() on another kind fails its check.
  core::ObservationLog log_{0};
};

}  // namespace crusader::relay
