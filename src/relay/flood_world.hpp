#pragma once
// Sparse-network harness: runs any pulse protocol over a (f+1)-connected
// topology by flooding signed messages along relay paths (Appendix A of the
// paper).
//
// Mechanics:
//  * A broadcast by node `origin` becomes a flood: each honest node forwards
//    the first copy it receives to all its neighbours; faulty nodes behave
//    per the configured RelayAdversary policy (crash / max-delay / reorder /
//    selective-drop, plus the adaptive traffic-observing greedy-skew/search
//    pair — see relay/adversary.hpp). A faulty origin's own
//    broadcast rides the same policy: under every kind except kCrash the
//    node speaks, and its outgoing hops take adversarial delays.
//  * Each physical hop takes an adversary-chosen delay in
//    [d_hop − u_hop, d_hop].
//  * Path balancing (the paper: "one needs to balance the length of the
//    utilized paths in order to keep ũ much smaller than d"): a destination
//    that receives a copy after h hops holds it locally for (D_f − h)·d_hop
//    local-time units before processing, where D_f is the worst-case
//    fault-free hop distance. Every pair's effective link then behaves like
//    a D_f-hop path, so the protocol can run with uniform effective
//    parameters
//        d_eff = D_f · d_hop
//        u_eff = D_f · u_hop + (ϑ−1) · D_f · d_hop   (hold-time drift)
//    instead of the unusable u_eff ≈ d_eff − d_hop of unbalanced delivery.
//
// Protocol nodes run completely unchanged — they just receive the effective
// ModelParams. This is exactly the paper's translation statement.
//
// Per-flood delivery state: every node's view of one flood — seen (already
// forwarded), armed (a hold is scheduled) and processed flags, the hold's
// EventId and local processing time — lives in one dense table of n entries
// per flood, indexed by node id, so a hop or hold probes a flat array
// instead of a per-node hash table.
//  * Key: the flood's MessageArena slot. Every hop, hold and retained
//    replay of a flood holds a Ref to its payload, so the slot (and with it
//    the table) belongs to that flood for as long as any copy can still
//    arrive. A new flood id taking a recycled slot resets the table lazily
//    on first delivery. Tables therefore number at most the arena's slab
//    high-water — O(live floods × n) — not one per flood ever sent.
//  * Incarnations: each node has an incarnation counter, bumped when it
//    rejoins under churn. An entry stamped by an earlier incarnation reads
//    as empty, so a rejoined host starts with no delivery state, as a fresh
//    host would. A hold armed before the leave fires into whatever the
//    current incarnation has stored for the flood: nothing (it returns) or
//    the new incarnation's own armed entry (it processes that one).
//  * Neighbor-cast floods never touch the tables: a received copy returns
//    before any state is read, and an origin's broadcast is always a first
//    sight.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/signature.hpp"
#include "relay/adversary.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "sim/engine.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/message_arena.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "util/thread_safety.hpp"

namespace crusader::relay {

struct RelayConfig {
  Topology topology = Topology::complete(4);
  /// Per-hop model (d_hop, u_hop, vartheta); n/f are taken from here too.
  sim::ModelParams hop_model;
  std::uint64_t seed = 1;
  double horizon = 200.0;
  double initial_offset = 0.0;
  sim::ClockKind clock_kind = sim::ClockKind::kSpread;
  sim::DelayKind delay_kind = sim::DelayKind::kRandom;
  /// Faulty relay/protocol nodes. How they misbehave is `fault_kind`:
  /// kCrash nodes neither forward nor speak; the other kinds participate
  /// but delay, reorder, or selectively drop what they forward.
  std::vector<NodeId> faulty;
  RelayFaultKind fault_kind = RelayFaultKind::kCrash;
  /// Attack schedule seed for RelayFaultKind::kSearch candidates (0 = the
  /// greedy baseline candidate); ignored by every other kind. See
  /// relay/adversary.hpp.
  std::uint64_t attack_seed = 0;
  /// Optional custom per-hop delay policy factory (overrides delay_kind) —
  /// mirrors sim::WorldConfig::custom_delay so every DelayPolicy is
  /// reachable in relay worlds too.
  sim::DelayFactory custom_delay;
  crypto::Pki::Kind pki_kind = crypto::Pki::Kind::kSymbolic;
  /// Flood fast path: honest relays coalesce equal-delay forwards to
  /// consecutive neighbors into one aggregate event sharing an arena
  /// payload. Off forces the per-neighbor reference path; results are
  /// identical either way.
  bool batch = true;
  /// Neighbor-cast transport (the KLLO gradient protocols): a broadcast
  /// reaches exactly the sender's *current* neighbors, one hop, processed on
  /// arrival — no flood, no path-balancing hold, no retention replay. The
  /// effective model is the hop model itself (worst_hops = 1); callers must
  /// pass RelayEffective{hop_model, 1, true} rather than compute_effective
  /// (a one-hop "overlay" does not satisfy d_eff > 2·u_eff validation, nor
  /// does it need to — per-edge locality is the property under test).
  bool neighbor_cast = false;
  /// Dynamic-network schedule. Null (or a static schedule) is the historical
  /// fixed-graph world, byte-identical to the pre-schedule code. When
  /// dynamic, `topology` must equal schedule->initial(); the world mutates
  /// its own copy as epoch deltas apply. Faulty relays are allowed for every
  /// participating fault kind (not kCrash — a crashed relay under churn is a
  /// leave the schedule never recorded) but must never churn themselves:
  /// pin them via ChurnPolicy::pinned when generating the schedule.
  std::shared_ptr<const TopologySchedule> schedule;
  /// Real time at which epoch delta 0 applies; delta e applies at
  /// epoch_start + e·epoch_length. Both required positive when the schedule
  /// is dynamic. The runner aligns them with round boundaries so round r
  /// runs on schedule->at_epoch(r).
  double epoch_start = 0.0;
  double epoch_length = 0.0;
};

struct RelayRunResult {
  sim::PulseTrace trace;
  sim::ModelParams effective;   ///< what the protocol was configured with
  std::uint32_t worst_hops = 0; ///< D_f
  std::uint64_t physical_messages = 0;
  std::uint64_t floods = 0;
  std::uint64_t events = 0;     ///< engine events (comparable across worlds)
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
};

/// The expensive half's output: the worst-case hop distance D_f plus
/// whether it was derived exhaustively (within the subset/source sampling
/// budgets) or from the sampled walk. This is what EffectiveCache stores —
/// a hit must not re-derive the budget decision (that re-derivation was an
/// O(n·deg) per-cell cost at large n).
struct RelayAnalysis {
  std::uint32_t worst_hops = 0;
  bool exact = true;
};

/// The effective fully-connected model plus the worst-case hop distance D_f
/// it was derived from — computed once and shared between the runner (the
/// feasibility check and CSV columns) and the world (the hold schedule), so
/// the expensive topology analysis runs once per scenario.
struct RelayEffective {
  sim::ModelParams model;
  std::uint32_t worst_hops = 0;
  /// Whether worst_hops is exhaustive over all fault sets (see RelayAnalysis).
  bool exact = true;
};

/// Computes the effective model the flooding overlay presents to the
/// protocol (see file header). Within the worst_case_distance subset budget
/// both the (f+1)-connectivity check and D_f are exhaustive (exact); beyond
/// it both degrade together — D_f comes from the sampled walk and the
/// configured faulty set is verified exactly (connectivity + distances), so
/// the result is guaranteed sound for the adversary this config
/// instantiates though still a lower bound over all possible fault sets (a
/// CS_WARN records this).
[[nodiscard]] RelayEffective compute_effective(const RelayConfig& config);

/// Convenience wrapper around compute_effective for callers that only need
/// the model.
[[nodiscard]] sim::ModelParams effective_model(const RelayConfig& config);

/// The expensive half of compute_effective: the (f+1)-connectivity check and
/// worst-case hop distance D_f (exact within the subset/source budgets,
/// sampled + exact-for-the-configured-faulty-set beyond). Reads only the
/// topology, hop_model.{n,f}, and the faulty set — never d/u/ϑ or the fault
/// kind.
[[nodiscard]] RelayAnalysis analyze_worst_hops(const RelayConfig& config);

/// The cheap half: fold D_f into the effective complete-graph model
/// (d_eff = D_f·d_hop, u_eff = D_f·u_hop + (ϑ−1)·D_f·d_hop). Pure
/// arithmetic, so compute_effective(c) ≡
/// effective_from_hops(c.hop_model, analyze_worst_hops(c)) bit-for-bit.
[[nodiscard]] RelayEffective effective_from_hops(const sim::ModelParams& hop,
                                                RelayAnalysis analysis);

/// Dynamic-schedule counterpart of analyze_worst_hops: the worst pairwise
/// hop distance among *live* nodes, maximized over every epoch graph of the
/// schedule (down nodes are isolated and passed as the BFS exclusion mask).
/// This is realized-schedule analysis — D_f for the graphs the run actually
/// sees — not an adversarial bound over all fault sets; dynamic cells run
/// fault-free, and `f` only widens the warning when callers combine churn
/// with a fault budget. Exact (exhaustive sources per epoch) while n fits
/// the source budget, sampled above it, and deterministic either way.
[[nodiscard]] RelayAnalysis analyze_schedule_worst_hops(
    const TopologySchedule& schedule, std::uint32_t f);

/// Thread-safe per-sweep memo for analyze_worst_hops. Keyed by a
/// caller-provided digest of everything the analysis reads: topology family,
/// n, f, the instantiated faulty set, and the topology seed for seed-grown
/// families (the random family MUST fold the seed in — two cells with
/// different seeds realize different graphs). The relay fault kind is
/// deliberately NOT part of the key: the analysis is fault-kind-independent,
/// and sharing D_f across the relay-fault axis is where the ~4× setup cut
/// comes from. A hit replays the cached D_f through effective_from_hops, so
/// cached and uncached paths return bit-identical RelayEffective.
class EffectiveCache {
 public:
  /// compute_effective with memoization: `key` must digest exactly the
  /// analysis inputs above. Two threads racing on the same key may both run
  /// the analysis (the value is identical; the map keeps one copy) — the
  /// lock is never held across the expensive BFS walk.
  [[nodiscard]] RelayEffective get(std::uint64_t key,
                                   const RelayConfig& config);

  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;

 private:
  mutable util::Mutex mu_;
  /// Membership-only map (find/emplace — never iterated: iteration order
  /// would be hash-dependent and must not feed any output).
  std::unordered_map<std::uint64_t, RelayAnalysis> analyses_ CS_GUARDED_BY(mu_);
  std::size_t hits_ CS_GUARDED_BY(mu_) = 0;
  std::size_t misses_ CS_GUARDED_BY(mu_) = 0;
};

class RelayWorld {
 public:
  /// `effective` must be compute_effective(config) when supplied; passing it
  /// avoids recomputing the topology analysis the caller already ran.
  RelayWorld(RelayConfig config, sim::HonestFactory factory,
             std::optional<RelayEffective> effective = std::nullopt);
  ~RelayWorld();

  RelayRunResult run();

  /// Diagnostics: per-flood delivery tables allocated so far (at most one
  /// per slot of arena(); none in neighbor-cast worlds).
  [[nodiscard]] std::size_t flood_tables() const noexcept;
  /// The flood payload arena whose slots key the delivery tables.
  [[nodiscard]] const sim::MessageArena& arena() const noexcept {
    return arena_;
  }

 private:
  class NodeHost;

  /// One node's state for one flood (see "Per-flood delivery state").
  struct Delivery {
    sim::EventId hold = 0;          ///< the armed hold event
    double process_local = 0.0;     ///< its local processing time
    std::uint32_t incarnation = 0;  ///< the host incarnation it belongs to
    bool seen = false;              ///< forwarded (or originated) here
    bool armed = false;             ///< a hold was scheduled
    bool processed = false;         ///< the hold delivered it
  };
  /// The n entries of the flood currently in one arena slot.
  struct FloodTable {
    std::uint64_t flood_id = std::numeric_limits<std::uint64_t>::max();
    std::vector<Delivery> at;  ///< empty until the slot's first flood
  };

  /// One forward a node made, retained (dynamic schedules only) so a newly
  /// added edge can replay the recent floods its endpoints would have
  /// exchanged had the edge existed — without this, a message that crossed
  /// the cut before a rewire is permanently lost and a strict-in-order
  /// protocol stalls.
  struct RetainedFlood {
    std::uint64_t flood_id = 0;
    std::uint32_t hops = 0;  ///< hop count at which the retainer received it
    sim::MessageArena::Ref ref;
    double seen_at = 0.0;
  };

  void flood_from(NodeId origin, const sim::Message& m);
  void hop_deliver(NodeId to, std::uint64_t flood_id, std::uint32_t hops,
                   const sim::MessageArena::Ref& ref);
  /// `at`'s entry in the table of `flood_id` (whose payload is `ref`),
  /// resetting the table when the flood newly took the slot and the entry
  /// when an earlier incarnation of `at` wrote it.
  Delivery& delivery(NodeId at, std::uint64_t flood_id,
                     const sim::MessageArena::Ref& ref);
  /// Sends flood `flood_id` one hop from `from` to `to`, arriving as hop
  /// `hops`; a faulty `from` applies the adversary's pruning and delay.
  void send_hop(NodeId from, NodeId to, std::uint64_t flood_id,
                std::uint32_t hops, const sim::MessageArena::Ref& ref);
  /// Throws util::ModelViolation unless `delay` is a legal hop delay,
  /// within [d_hop − u_hop, d_hop].
  void check_hop_delay(NodeId from, NodeId to, double delay) const;
  /// Applies schedule delta `epoch` to the live topology/hosts (joins →
  /// removed → added → leaves) and prunes the retention window.
  void apply_delta(std::size_t epoch);
  /// Replays `from`'s retained floods along a just-added edge to `to`.
  void reforward(NodeId from, NodeId to);

  RelayConfig config_;
  sim::ModelParams effective_;
  std::uint32_t worst_hops_ = 0;
  std::vector<bool> faulty_;
  std::unique_ptr<RelayAdversary> adversary_;
  sim::MessageArena arena_;
  sim::Engine engine_;
  std::unique_ptr<crypto::Pki> pki_;
  std::vector<sim::HardwareClock> clocks_;
  std::unique_ptr<sim::DelayPolicy> hop_policy_;
  util::Rng rng_;
  std::unique_ptr<sim::PulseTrace> trace_;
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  std::vector<FloodTable> floods_;  ///< per arena slot
  std::vector<std::uint32_t> incarnation_;  ///< per node, bumped on rejoin
  std::uint64_t next_flood_ = 0;
  std::uint64_t physical_messages_ = 0;

  // --- Dynamic-schedule state (inert for static schedules) ----------------
  bool dynamic_ = false;
  /// Dynamic only: an EdgeAgeTracker replayed alongside the live topology as
  /// a cross-check that the world's delta application and the metric walks'
  /// (runner/kllo.cpp) agree on the graph at every epoch.
  std::unique_ptr<EdgeAgeTracker> age_check_;
  sim::HonestFactory factory_;  ///< re-registers hosts for joins
  /// Hosts torn down by leaves. Engine closures capture NodeHost* — the
  /// object must outlive every queued event, so teardown moves it here
  /// (deactivated) instead of destroying it.
  std::vector<std::unique_ptr<NodeHost>> graveyard_;
  std::vector<std::vector<RetainedFlood>> recent_;  ///< per-node, forward-time
  double retention_ = 0.0;  ///< real-time window for recent_ entries
};

}  // namespace crusader::relay
