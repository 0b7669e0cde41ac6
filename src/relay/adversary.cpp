#include "relay/adversary.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::relay {

const char* to_string(RelayFaultKind kind) {
  return util::spell(kRelayFaultSpellings, kind);
}

RelayAdversary::RelayAdversary(RelayFaultKind kind, const Topology& topology,
                               std::vector<bool> faulty, std::uint64_t seed,
                               std::uint64_t attack_seed)
    : kind_(kind),
      faulty_(std::move(faulty)),
      seed_(seed),
      attack_seed_(attack_seed) {
  CS_CHECK(faulty_.size() == topology.n());
  if (observing()) log_ = core::ObservationLog(topology.n());
  refresh(topology);
}

void RelayAdversary::refresh(const Topology& topology) {
  CS_CHECK(faulty_.size() == topology.n());
  if (kind_ == RelayFaultKind::kSelectiveDrop) {
    // Fix each faulty relay's served subset against the CURRENT graph: a
    // seed-chosen ⌈deg/2⌉ of its live neighbors. Per-relay forks keep the
    // choice independent of how many relays are faulty, and re-running this
    // against the same graph reproduces the same masks — the refresh is a
    // pure function of (graph, faulty set, seed).
    allow_.assign(topology.n(), {});
    util::Rng rng(seed_ ^ 0x5e1d70bULL);
    for (NodeId v = 0; v < topology.n(); ++v) {
      if (!faulty_[v]) continue;
      std::vector<NodeId> order = topology.neighbors(v);
      util::Rng node_rng = rng.fork(v);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[node_rng.below(i)]);
      const std::size_t keep = (order.size() + 1) / 2;
      allow_[v].assign(topology.n(), false);
      for (std::size_t i = 0; i < keep; ++i) allow_[v][order[i]] = true;
    }
    return;
  }
  if (adaptive(kind_)) {
    // Adaptive drop victims are chosen among live edges only.
    nbrs_.assign(topology.n(), {});
    for (NodeId v = 0; v < topology.n(); ++v) {
      if (faulty_[v]) nbrs_[v] = topology.neighbors(v);
    }
  }
}

bool RelayAdversary::participates(NodeId v) const {
  CS_CHECK(v < faulty_.size());
  return !faulty_[v] || kind_ != RelayFaultKind::kCrash;
}

void RelayAdversary::observe(NodeId at, std::uint64_t flood_id,
                             std::uint32_t hops, double now) {
  // Flood ids are dense (the world numbers them 0, 1, 2, ...), so the
  // first-sighting times live in a flat vector; NaN marks "not yet seen".
  if (flood_id >= flood_first_.size())
    flood_first_.resize(flood_id + 1, std::numeric_limits<double>::quiet_NaN());
  double& first = flood_first_[flood_id];
  if (std::isnan(first)) first = now;
  log_.observe(at, (static_cast<std::uint64_t>(hops) << 32) ^ flood_id, now,
               first);
}

NodeId RelayAdversary::greedy_victim(NodeId at) const {
  const auto& nbrs = nbrs_[at];
  if (nbrs.size() < 2) return kInvalidNode;
  NodeId victim = kInvalidNode;
  double worst = 0.0;
  for (const NodeId next : nbrs) {
    const auto avg = log_.mean_lateness(next);
    if (!avg) continue;
    // Strict > keeps the first (neighbor-order) node on ties — the choice
    // must not depend on container iteration quirks.
    if (victim == kInvalidNode || *avg > worst) {
      victim = next;
      worst = *avg;
    }
  }
  return victim;
}

bool RelayAdversary::forwards(NodeId at, NodeId next,
                              std::uint64_t flood_id) const {
  CS_CHECK(at < faulty_.size() && next < faulty_.size());
  if (!faulty_[at]) return true;
  switch (kind_) {
    case RelayFaultKind::kCrash: return false;
    case RelayFaultKind::kSelectiveDrop: return allow_[at][next];
    case RelayFaultKind::kMaxDelay:
    case RelayFaultKind::kReorder: return true;
    case RelayFaultKind::kGreedySkew:
      return next != greedy_victim(at);
    case RelayFaultKind::kSearch: {
      if (attack_seed_ == 0) return next != greedy_victim(at);
      const auto& nbrs = nbrs_[at];
      const std::size_t deg = nbrs.size();
      if (deg < 2) return true;
      // One victim per (relay, flood), index `deg` meaning "drop nobody".
      const std::uint64_t h = util::mix64(
          attack_seed_ ^ 0xd40bULL ^ (static_cast<std::uint64_t>(at) << 32) ^
          flood_id);
      const std::size_t idx = static_cast<std::size_t>(h % (deg + 1));
      return idx == deg || nbrs[idx] != next;
    }
  }
  return true;
}

double RelayAdversary::hop_delay(NodeId at, NodeId next,
                                 std::uint64_t flood_id, double honest_delay,
                                 double lo, double hi) const {
  CS_CHECK(at < faulty_.size());
  if (!faulty_[at]) return honest_delay;
  switch (kind_) {
    case RelayFaultKind::kMaxDelay:
      return hi;
    case RelayFaultKind::kReorder: {
      // Pin each copy to one extreme of the legal window by a seed-chosen
      // parity over (relay, destination, flood): two floods forwarded within
      // u_hop of each other can swap arrival order at the same destination.
      const std::uint64_t h =
          util::mix64(seed_ ^ (static_cast<std::uint64_t>(at) << 40) ^
                      (static_cast<std::uint64_t>(next) << 20) ^ flood_id);
      return (h & 1u) != 0 ? hi : lo;
    }
    case RelayFaultKind::kGreedySkew:
      // Widen the frontier gap: full d_hop toward the lagging side, the
      // fastest legal delay toward the leaders.
      return log_.lagging(next) ? hi : lo;
    case RelayFaultKind::kSearch: {
      if (attack_seed_ == 0) return log_.lagging(next) ? hi : lo;
      const std::uint64_t h = util::mix64(
          attack_seed_ ^ (static_cast<std::uint64_t>(at) << 40) ^
          (static_cast<std::uint64_t>(next) << 20) ^ flood_id);
      return (h & 1u) != 0 ? hi : lo;
    }
    case RelayFaultKind::kCrash:
    case RelayFaultKind::kSelectiveDrop:
      return honest_delay;
  }
  return honest_delay;
}

}  // namespace crusader::relay
