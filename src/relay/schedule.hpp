#pragma once
// Time-varying topology for the dynamic-network world: a TopologySchedule is
// an immutable initial Topology snapshot plus a seeded, deterministic
// sequence of epoch deltas (edge rewires, batched leaves, rejoining nodes)
// generated by a ChurnPolicy. Static families are the degenerate
// zero-epoch schedule, so everything built on top of a schedule collapses
// to the historical fixed-graph behavior when the policy is inert.
//
// Semantics per epoch (one epoch per protocol round, applied by RelayWorld
// at the round boundary):
//   1. Every node that left in the previous epoch rejoins; its edges are
//      re-drawn per the reconnect policy (ring-repair restores the exact
//      edges it had, random draws fresh live partners, preferential draws
//      partners biased toward high degree).
//   2. round(churn_rate · live_edges) edges are rewired: a random live edge
//      is removed (reverted if that would disconnect the live graph) and one
//      endpoint is reconnected to a partner chosen per the same policy.
//   3. join_batch live nodes leave: all their edges are removed and they are
//      down for exactly one epoch. The highest node id never leaves (beacon-
//      style protocols pin their coordinator there), and a leave that would
//      disconnect the surviving live graph is re-drawn.
// Every epoch's live graph is connected by construction — the invariant the
// per-epoch D_f recomputation and the flood re-forward machinery rely on.
//
// Down nodes are isolated in the epoch topology (all their edges removed),
// so `at_epoch` graphs can be analyzed with the down mask as the excluded
// set. Generation is a pure function of (initial, policy, epochs, seed):
// same inputs, same deltas, across runs, threads, and machines.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "relay/topology.hpp"
#include "util/ids.hpp"
#include "util/spelling.hpp"

namespace crusader::relay {

/// How a rejoining node (or the kept endpoint of a rewired edge) picks new
/// partners.
enum class ReconnectPolicy { kRandom, kPreferential, kRingRepair };

inline constexpr util::Spelling<ReconnectPolicy> kReconnectSpellings[] = {
    {ReconnectPolicy::kRandom, "random"},
    {ReconnectPolicy::kPreferential, "preferential"},
    {ReconnectPolicy::kPreferential, "pref"},
    {ReconnectPolicy::kRingRepair, "ring-repair"},
    {ReconnectPolicy::kRingRepair, "repair"},
};

[[nodiscard]] const char* to_string(ReconnectPolicy policy);

/// The churn axes of the dynamic-network world. All-defaults is the inert
/// policy: generate() returns the degenerate static schedule.
struct ChurnPolicy {
  /// Expected fraction of live edges rewired per epoch.
  double churn_rate = 0.0;
  /// Nodes leaving (and rejoining one epoch later) per epoch.
  std::uint32_t join_batch = 0;
  ReconnectPolicy reconnect = ReconnectPolicy::kRandom;
  /// Nodes that may never leave (indexed by NodeId; empty = none beyond the
  /// always-pinned n−1). Faulty relays are pinned here: a Byzantine node
  /// that "leaves" would be a crash-and-restart, which is a different (and
  /// weaker) adversary than the persistent one under test. Pinned nodes can
  /// still have their edges rewired.
  std::vector<bool> pinned;

  [[nodiscard]] bool dynamic() const noexcept {
    return churn_rate > 0.0 || join_batch > 0;
  }
};

/// One epoch's topology mutation. The added and removed edge sets are
/// disjoint, joins precede edge changes, and leaves follow them (a leaver's
/// edges are already in `removed`), so applying joins → removed → added →
/// leaves reproduces the generator's final state exactly.
struct EpochDelta {
  std::vector<NodeId> joins;  ///< rejoin (were in the previous epoch's leaves)
  std::vector<std::pair<NodeId, NodeId>> removed;
  std::vector<std::pair<NodeId, NodeId>> added;
  std::vector<NodeId> leaves;  ///< down from this epoch until they rejoin

  [[nodiscard]] bool empty() const noexcept {
    return joins.empty() && removed.empty() && added.empty() && leaves.empty();
  }
};

class TopologySchedule {
 public:
  /// Degenerate schedule: the fixed graph, no epochs.
  [[nodiscard]] static TopologySchedule static_schedule(Topology initial);

  /// Seeded deterministic generation, one delta per epoch (see file header).
  /// An inert policy yields the static schedule regardless of `epochs`.
  [[nodiscard]] static TopologySchedule generate(const Topology& initial,
                                                const ChurnPolicy& policy,
                                                std::uint32_t epochs,
                                                std::uint64_t seed);

  [[nodiscard]] const Topology& initial() const noexcept { return initial_; }
  [[nodiscard]] const std::vector<EpochDelta>& deltas() const noexcept {
    return deltas_;
  }
  /// True when any epoch actually mutates the graph — the flag every layer
  /// uses to keep the static path bit-identical to the pre-schedule code.
  [[nodiscard]] bool dynamic() const noexcept;

  /// Advances an epoch graph and its down mask by one delta, in the
  /// joins → removed → added → leaves order. Every epoch walk over a
  /// schedule (the per-epoch D_f analysis, the local-skew series, the
  /// EdgeAgeTracker, at_epoch/down_at) replays through here.
  static void apply(const EpochDelta& delta, Topology& topo,
                    std::vector<bool>& down);

  /// Topology after applying the first `epoch` deltas (clamped to the
  /// schedule length). Round r of a run sees at_epoch(r). Replays from
  /// epoch 0 on every call; walks over many epochs use apply() instead.
  [[nodiscard]] Topology at_epoch(std::size_t epoch) const;
  /// Down-node mask after the first `epoch` deltas (clamped).
  [[nodiscard]] std::vector<bool> down_at(std::size_t epoch) const;
  /// Nodes that leave at any point in the schedule. These are excluded from
  /// skew metrics: a torn-down host restarts from scratch on rejoin, so its
  /// pulse numbering is not comparable with nodes that ran throughout.
  [[nodiscard]] std::vector<bool> ever_churned() const;

  /// Order-sensitive digest of the initial graph and every delta — the
  /// memo-cache / replay identity of the schedule.
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  explicit TopologySchedule(Topology initial) : initial_(std::move(initial)) {}

  /// Epoch graph and down mask after the first `epoch` deltas (clamped).
  [[nodiscard]] std::pair<Topology, std::vector<bool>> replay(
      std::size_t epoch) const;

  Topology initial_;
  std::vector<EpochDelta> deltas_;
};

/// Replays a schedule delta-by-delta while tracking, per live edge, the epoch
/// at which the edge last (re)appeared. The age of a live edge at the
/// tracker's current epoch is `epoch − birth`: initial edges are born at
/// epoch 0, an edge added by delta e is born at epoch e + 1, and a removal
/// forgets the birth entirely — so a leave/rejoin (or any remove/re-add
/// across epochs) restarts the edge's clock. Within one delta the builder has
/// already cancelled add/remove pairs, so a net-unchanged edge keeps its age.
///
/// This is the KLLO notion of edge stabilization time: the envelope gate
/// grants a freshly (re)appeared edge a wide allowance that tightens to the
/// O(log n) gradient bound as the edge ages past the stabilization window.
///
/// Births are dense: one row of (higher endpoint, birth epoch) per lower
/// endpoint, so a lookup or removal scans about one degree. apply() checks
/// the delta against the live edge set — every removed edge is live, no
/// added edge is — and names the offending edge when it is not; RelayWorld
/// replays every delta through a tracker, so every churned cell runs it.
class EdgeAgeTracker {
 public:
  explicit EdgeAgeTracker(const Topology& initial);

  /// Apply one epoch delta (joins → removed → added → leaves), advancing the
  /// current epoch by one. Throws (CS_CHECK) on a delta that removes an edge
  /// that is not live or adds one that already is.
  void apply(const EpochDelta& delta);
  /// Advance one epoch with no delta: every age grows, nothing else changes.
  void advance() noexcept { ++epoch_; }

  [[nodiscard]] std::size_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const std::vector<bool>& down() const noexcept { return down_; }
  /// Epochs since the live edge {a, b} last appeared. Asking about an edge
  /// that is not currently live is a programming error (CS_CHECK).
  [[nodiscard]] std::uint64_t age(NodeId a, NodeId b) const;

 private:
  /// A live edge {lo, hi} in lo's row, with the epoch it last appeared at.
  struct Birth {
    NodeId hi;
    std::size_t epoch;
  };

  Topology topo_;
  std::vector<bool> down_;
  std::size_t epoch_ = 0;
  /// One row per lower endpoint; a row is about one degree long, so
  /// removal and lookup scan it.
  std::vector<std::vector<Birth>> births_;
};

}  // namespace crusader::relay
