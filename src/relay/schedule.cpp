#include "relay/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::relay {
namespace {

[[nodiscard]] bool unordered_eq(const std::pair<NodeId, NodeId>& e, NodeId a,
                                NodeId b) noexcept {
  return (e.first == a && e.second == b) || (e.first == b && e.second == a);
}

/// Accumulates one epoch's net edge changes, keeping `added` and `removed`
/// disjoint: adding an edge that was removed earlier this epoch cancels the
/// removal (and vice versa), so the delta describes start-to-end state, not
/// the generator's intermediate churn.
struct DeltaBuilder {
  EpochDelta delta;

  void record_add(NodeId a, NodeId b) {
    auto& removed = delta.removed;
    const auto it = std::find_if(removed.begin(), removed.end(),
                                 [&](const auto& e) { return unordered_eq(e, a, b); });
    if (it != removed.end()) {
      removed.erase(it);
      return;
    }
    delta.added.emplace_back(a, b);
  }

  void record_remove(NodeId a, NodeId b) {
    auto& added = delta.added;
    const auto it = std::find_if(added.begin(), added.end(),
                                 [&](const auto& e) { return unordered_eq(e, a, b); });
    if (it != added.end()) {
      added.erase(it);
      return;
    }
    delta.removed.emplace_back(a, b);
  }
};

/// Early-exit BFS over the non-down nodes: reaches(topo, down, from, targets)
/// is true iff every target is reachable from `from`, and stops at the last
/// target found; linked(topo, down, a, b) answers the single-target case from
/// both ends. Down nodes are isolated by construction, so this walks the
/// graph the protocol actually runs on. Marks are stamped per call, so the
/// scratch is never cleared and a check costs only the nodes it visits.
class LiveReach {
 public:
  explicit LiveReach(std::uint32_t n) : mark_(n, 0) {}

  [[nodiscard]] bool reaches(const Topology& topo,
                             const std::vector<bool>& down, NodeId from,
                             std::span<const NodeId> targets) {
    const std::uint32_t wanted = next_stamps();
    const std::uint32_t seen = wanted + 1;
    std::size_t pending = 0;
    for (const NodeId t : targets) {
      if (t == from || mark_[t] == wanted) continue;
      mark_[t] = wanted;
      ++pending;
    }
    if (pending == 0) return true;
    mark_[from] = seen;
    queue_.assign(1, from);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      for (const NodeId w : topo.neighbors(queue_[head])) {
        if (down[w] || mark_[w] == seen) continue;
        if (mark_[w] == wanted && --pending == 0) return true;
        mark_[w] = seen;
        queue_.push_back(w);
      }
    }
    return false;
  }

  /// Two-ended reaches(topo, down, a, {a, b}): grows the smaller of the two
  /// frontiers one BFS level at a time, each side stamping its own mark. True
  /// when a frontier touches the other side's mark, false when either
  /// frontier runs dry (that side's component is closed without the other).
  [[nodiscard]] bool linked(const Topology& topo, const std::vector<bool>& down,
                            NodeId a, NodeId b) {
    if (a == b) return true;
    const std::uint32_t side_a = next_stamps();
    const std::uint32_t side_b = side_a + 1;
    mark_[a] = side_a;
    mark_[b] = side_b;
    front_a_.assign(1, a);
    front_b_.assign(1, b);
    while (!front_a_.empty() && !front_b_.empty()) {
      const bool grow_a = front_a_.size() <= front_b_.size();
      std::vector<NodeId>& front = grow_a ? front_a_ : front_b_;
      const std::uint32_t mine = grow_a ? side_a : side_b;
      const std::uint32_t theirs = grow_a ? side_b : side_a;
      queue_.clear();
      for (const NodeId v : front) {
        for (const NodeId w : topo.neighbors(v)) {
          if (down[w] || mark_[w] == mine) continue;
          if (mark_[w] == theirs) return true;
          mark_[w] = mine;
          queue_.push_back(w);
        }
      }
      front.swap(queue_);
    }
    return false;
  }

  /// Whole-graph check: every live node reaches every other.
  [[nodiscard]] bool live_connected(const Topology& topo,
                                    const std::vector<bool>& down) {
    live_.clear();
    for (NodeId v = 0; v < topo.n(); ++v)
      if (!down[v]) live_.push_back(v);
    return live_.empty() || reaches(topo, down, live_.front(), live_);
  }

 private:
  /// Two fresh stamps, s and s + 1, that no mark carries yet.
  [[nodiscard]] std::uint32_t next_stamps() {
    if (stamp_ > std::numeric_limits<std::uint32_t>::max() - 2) {
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 0;
    }
    stamp_ += 2;
    return stamp_;
  }

  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> front_a_;
  std::vector<NodeId> front_b_;
  std::vector<NodeId> live_;
};

/// The entry for edge {lo, hi} in lo's EdgeAgeTracker birth row, or end().
template <typename Row>
[[nodiscard]] auto find_birth(Row& row, NodeId hi) {
  return std::find_if(row.begin(), row.end(),
                      [hi](const auto& e) { return e.hi == hi; });
}

/// Uniform live node, or kInvalidNode when the bounded rejection sampling
/// fails (only possible when almost everything is down).
[[nodiscard]] NodeId pick_live(util::Rng& rng, const std::vector<bool>& down,
                               std::uint32_t n) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto v = static_cast<NodeId>(rng.below(n));
    if (!down[v]) return v;
  }
  return kInvalidNode;
}

/// New partner for `keep` under the reconnect policy: a live node not already
/// adjacent to `keep`. Returns kInvalidNode when no eligible partner is found
/// within the sampling budget.
[[nodiscard]] NodeId pick_partner(util::Rng& rng, const Topology& topo,
                                  const std::vector<bool>& down, NodeId keep,
                                  ReconnectPolicy policy) {
  const std::uint32_t n = topo.n();
  const auto eligible = [&](NodeId c) {
    return c != keep && !down[c] && !topo.has_edge(keep, c);
  };
  switch (policy) {
    case ReconnectPolicy::kRandom:
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto c = static_cast<NodeId>(rng.below(n));
        if (eligible(c)) return c;
      }
      return kInvalidNode;
    case ReconnectPolicy::kPreferential: {
      // Best-degree of a handful of random candidates: a cheap seeded stand-in
      // for degree-proportional attachment.
      NodeId best = kInvalidNode;
      for (int draw = 0; draw < 16; ++draw) {
        const auto c = static_cast<NodeId>(rng.below(n));
        if (!eligible(c)) continue;
        if (best == kInvalidNode ||
            topo.neighbors(c).size() > topo.neighbors(best).size()) {
          best = c;
        }
      }
      return best;
    }
    case ReconnectPolicy::kRingRepair:
      // Nearest live non-adjacent node by ring (id) distance, alternating
      // sides so the repair stays local to the broken span.
      for (std::uint32_t off = 1; off < n; ++off) {
        const auto fwd = static_cast<NodeId>((keep + off) % n);
        if (eligible(fwd)) return fwd;
        const auto bwd = static_cast<NodeId>((keep + n - off) % n);
        if (eligible(bwd)) return bwd;
      }
      return kInvalidNode;
  }
  return kInvalidNode;
}

}  // namespace

const char* to_string(ReconnectPolicy policy) {
  return util::spell(kReconnectSpellings, policy);
}

TopologySchedule TopologySchedule::static_schedule(Topology initial) {
  return TopologySchedule(std::move(initial));
}

TopologySchedule TopologySchedule::generate(const Topology& initial,
                                            const ChurnPolicy& policy,
                                            std::uint32_t epochs,
                                            std::uint64_t seed) {
  TopologySchedule schedule(initial);
  if (!policy.dynamic() || epochs == 0) return schedule;
  CS_CHECK(policy.churn_rate >= 0.0 && policy.churn_rate <= 1.0);

  const std::uint32_t n = initial.n();
  Topology cur = initial;
  std::vector<bool> down(n, false);
  // Adjacency each node had at the moment it left, for ring-repair rejoins
  // and for sizing the fresh edge set under the other policies.
  std::vector<std::vector<NodeId>> edges_at_leave(n);
  std::vector<NodeId> prev_leaves;
  util::Rng rng(seed);
  // Generation keeps the live graph connected before every cut (rejoins
  // attach to a live partner, rewires and leaves are checked), so a cut
  // needs only a local check: dropping edge {a, b} keeps the graph
  // connected iff a still reaches b (searched from both ends), and dropping
  // node v iff v's former neighbors still reach each other. A disconnected
  // initial graph has no such invariant and gets the whole-graph check.
  LiveReach reach(n);
  const bool local_checks = reach.live_connected(cur, down);
  const auto still_connected = [&](std::span<const NodeId> group) {
    if (!local_checks) return reach.live_connected(cur, down);
    return group.empty() || reach.reaches(cur, down, group.front(), group);
  };
  const auto still_linked = [&](NodeId a, NodeId b) {
    if (!local_checks) return reach.live_connected(cur, down);
    return reach.linked(cur, down, a, b);
  };

  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    DeltaBuilder builder;

    // 1. Rejoin everyone that left last epoch.
    for (const NodeId v : prev_leaves) {
      down[v] = false;
      builder.delta.joins.push_back(v);
      std::size_t connected = 0;
      if (policy.reconnect == ReconnectPolicy::kRingRepair) {
        for (const NodeId p : edges_at_leave[v]) {
          if (down[p] || cur.has_edge(v, p)) continue;
          cur.add_edge(v, p);
          builder.record_add(v, p);
          ++connected;
        }
      } else {
        const std::size_t want = edges_at_leave[v].size();
        for (std::size_t k = 0; k < want; ++k) {
          const NodeId p = pick_partner(rng, cur, down, v, policy.reconnect);
          if (p == kInvalidNode) break;
          cur.add_edge(v, p);
          builder.record_add(v, p);
          ++connected;
        }
      }
      if (connected == 0) {
        // Isolation fallback: any live partner keeps the live graph whole.
        const NodeId p = pick_partner(rng, cur, down, v, ReconnectPolicy::kRandom);
        CS_CHECK(p != kInvalidNode);
        cur.add_edge(v, p);
        builder.record_add(v, p);
      }
      edges_at_leave[v].clear();
    }
    prev_leaves.clear();

    // 2. Rewire a churn_rate fraction of the live edges. Down nodes are
    // isolated, so every current edge is a live edge.
    const auto rewires = static_cast<std::uint64_t>(
        std::llround(policy.churn_rate * static_cast<double>(cur.edge_count())));
    for (std::uint64_t r = 0; r < rewires; ++r) {
      // Node-then-neighbor pick: deterministic and cheap. Slightly biased
      // toward edges at low-degree nodes, which is fine for a churn model.
      const NodeId a = pick_live(rng, down, n);
      if (a == kInvalidNode || cur.neighbors(a).empty()) continue;
      const NodeId b = cur.neighbors(a)[rng.below(cur.neighbors(a).size())];
      cur.remove_edge(a, b);
      if (!still_linked(a, b)) {
        cur.add_edge(a, b);  // revert: this edge is a live-graph bridge
        continue;
      }
      const NodeId keep = rng.below(2) == 0 ? a : b;
      const NodeId p = pick_partner(rng, cur, down, keep, policy.reconnect);
      if (p == kInvalidNode) {
        cur.add_edge(a, b);  // no replacement partner: undo the removal
        continue;
      }
      builder.record_remove(a, b);
      cur.add_edge(keep, p);
      builder.record_add(keep, p);
    }

    // 3. Pick this epoch's leavers. Node n−1 never leaves (beacon-style
    // protocols pin their coordinator there), nodes that just rejoined get
    // one epoch of grace, and a leave that would disconnect the surviving
    // live graph is re-drawn.
    for (std::uint32_t k = 0; k < policy.join_batch; ++k) {
      std::size_t live = 0;
      for (NodeId v = 0; v < n; ++v) live += down[v] ? 0 : 1;
      if (live <= 3) break;  // keep a non-trivial live graph at all times
      for (int attempt = 0; attempt < 16; ++attempt) {
        const NodeId v = pick_live(rng, down, n);
        if (v == kInvalidNode || v == n - 1) continue;
        if (v < policy.pinned.size() && policy.pinned[v]) continue;
        if (std::find(builder.delta.joins.begin(), builder.delta.joins.end(),
                      v) != builder.delta.joins.end()) {
          continue;
        }
        const std::vector<NodeId> partners = cur.neighbors(v);
        for (const NodeId p : partners) cur.remove_edge(v, p);
        down[v] = true;
        if (!still_connected(partners)) {
          down[v] = false;
          for (const NodeId p : partners) cur.add_edge(v, p);
          continue;
        }
        edges_at_leave[v] = partners;
        for (const NodeId p : partners) builder.record_remove(v, p);
        builder.delta.leaves.push_back(v);
        prev_leaves.push_back(v);
        break;
      }
    }

    schedule.deltas_.push_back(std::move(builder.delta));
  }
  return schedule;
}

bool TopologySchedule::dynamic() const noexcept {
  return std::any_of(deltas_.begin(), deltas_.end(),
                     [](const EpochDelta& d) { return !d.empty(); });
}

void TopologySchedule::apply(const EpochDelta& delta, Topology& topo,
                             std::vector<bool>& down) {
  for (const NodeId v : delta.joins) down[v] = false;
  for (const auto& [a, b] : delta.removed) topo.remove_edge(a, b);
  for (const auto& [a, b] : delta.added) topo.add_edge(a, b);
  for (const NodeId v : delta.leaves) down[v] = true;
}

std::pair<Topology, std::vector<bool>> TopologySchedule::replay(
    std::size_t epoch) const {
  std::pair<Topology, std::vector<bool>> state{
      initial_, std::vector<bool>(initial_.n(), false)};
  const std::size_t upto = std::min(epoch, deltas_.size());
  for (std::size_t e = 0; e < upto; ++e)
    apply(deltas_[e], state.first, state.second);
  return state;
}

Topology TopologySchedule::at_epoch(std::size_t epoch) const {
  return replay(epoch).first;
}

std::vector<bool> TopologySchedule::down_at(std::size_t epoch) const {
  return replay(epoch).second;
}

std::vector<bool> TopologySchedule::ever_churned() const {
  std::vector<bool> churned(initial_.n(), false);
  for (const EpochDelta& d : deltas_) {
    for (const NodeId v : d.leaves) churned[v] = true;
  }
  return churned;
}

EdgeAgeTracker::EdgeAgeTracker(const Topology& initial)
    : topo_(initial), down_(initial.n(), false), births_(initial.n()) {
  for (NodeId v = 0; v < topo_.n(); ++v) {
    for (const NodeId w : topo_.neighbors(v)) {
      if (w > v) births_[v].push_back({w, 0});
    }
  }
}

void EdgeAgeTracker::apply(const EpochDelta& delta) {
  TopologySchedule::apply(delta, topo_, down_);  // range-checks every edge
  // `removed` and `added` are disjoint, so the birth bookkeeping may follow
  // the whole delta. A delta may only remove live edges and only add edges
  // that are not live: the replay it describes must be exact.
  for (const auto& [a, b] : delta.removed) {
    std::vector<Birth>& row = births_[std::min(a, b)];
    const auto it = find_birth(row, std::max(a, b));
    CS_CHECK_MSG(it != row.end(), "epoch delta removes edge "
                                      << a << "-" << b
                                      << ", which is not live");
    *it = row.back();
    row.pop_back();
  }
  ++epoch_;  // edges added by delta e are first live at epoch e + 1
  for (const auto& [a, b] : delta.added) {
    std::vector<Birth>& row = births_[std::min(a, b)];
    CS_CHECK_MSG(find_birth(row, std::max(a, b)) == row.end(),
                 "epoch delta adds edge " << a << "-" << b
                                          << ", which is already live");
    row.push_back({std::max(a, b), epoch_});
  }
}

std::uint64_t EdgeAgeTracker::age(NodeId a, NodeId b) const {
  CS_CHECK(a < births_.size() && b < births_.size());
  const std::vector<Birth>& row = births_[std::min(a, b)];
  const auto it = find_birth(row, std::max(a, b));
  CS_CHECK_MSG(it != row.end(), "edge " << a << "-" << b << " is not live");
  return static_cast<std::uint64_t>(epoch_ - it->epoch);
}

std::uint64_t TopologySchedule::digest() const noexcept {
  using util::fold;
  std::uint64_t h = fold(0x5c4ed01eULL, initial_.n());
  h = fold(h, initial_.edge_count());
  for (NodeId v = 0; v < initial_.n(); ++v) {
    const auto& adj = initial_.neighbors(v);
    h = fold(h, adj.size());
    for (const NodeId w : adj) h = fold(h, w);
  }
  for (const EpochDelta& d : deltas_) {
    h = fold(h, 0xe60c4ULL);
    for (const NodeId v : d.joins) h = fold(h, 0x101ULL + v);
    for (const auto& [a, b] : d.removed) h = fold(fold(h, 0x202ULL + a), b);
    for (const auto& [a, b] : d.added) h = fold(fold(h, 0x303ULL + a), b);
    for (const NodeId v : d.leaves) h = fold(h, 0x404ULL + v);
  }
  return h;
}

}  // namespace crusader::relay
