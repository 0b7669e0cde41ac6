#pragma once
// Sparse network topologies for the Appendix-A translation: with signatures,
// (f+1)-connectivity is necessary and sufficient to simulate full
// connectivity (faulty nodes can only drop or delay signed messages, never
// alter them, so one fault-free path suffices).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/ids.hpp"

namespace crusader::relay {

/// Undirected simple graph on nodes [0, n).
class Topology {
 public:
  explicit Topology(std::uint32_t n);

  void add_edge(NodeId a, NodeId b);
  /// Removes an existing edge (no-op when absent). Preserves the relative
  /// order of the remaining adjacency entries: neighbor order is part of the
  /// deterministic flood-forwarding contract, so a rewire must not reshuffle
  /// the untouched neighbors.
  void remove_edge(NodeId a, NodeId b);
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId v) const;
  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(adj_.size());
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// BFS distance from s to t avoiding `excluded` nodes (s, t never
  /// excluded). Returns UINT32_MAX when disconnected.
  [[nodiscard]] std::uint32_t distance(NodeId s, NodeId t,
                                       const std::vector<bool>& excluded) const;

  /// Max over non-excluded pairs of dist_{G−excluded}(s, t). Throws
  /// (CS_CHECK) when the exclusions disconnect the survivors. This is the
  /// per-faulty-set step of worst_case_distance, exposed for callers that
  /// need one concrete fault set evaluated exactly (see
  /// relay::compute_effective's sampled regime).
  ///
  /// Evaluated as a bit-parallel multi-source BFS: 64 sources per word, up
  /// to 4 words per node, so one level-synchronous sweep serves 256 sources
  /// and a level costs O(frontier edges · words). The word count follows
  /// the source count (a 16-source sample uses one word per node).
  ///
  /// `source_budget` = 0 (the default) takes every surviving source —
  /// exhaustive, the historical behavior. A positive budget caps the
  /// sources at that many, evenly strided: the returned eccentricity
  /// becomes a lower bound (exact on vertex-transitive graphs), but the
  /// connectivity CS_CHECK stays exact — any single source reaching every
  /// survivor proves the survivor graph connected.
  [[nodiscard]] std::uint32_t worst_distance_with_faults(
      const std::vector<bool>& excluded, std::uint32_t source_budget = 0) const;

  /// True iff every pair of nodes stays connected after removing any set of
  /// up to `f` other nodes — i.e. the graph is (f+1)-connected in the sense
  /// required by Appendix A. Exact (enumerates every size-f subset) but one
  /// BFS per subset, so n = 64, f = 3 stays well under a second.
  [[nodiscard]] bool survives_faults(std::uint32_t f) const;

  /// Worst-case fault-free distance: max over node pairs (s,t) and faulty
  /// sets F, |F| ≤ f, s,t ∉ F, of dist_{G−F}(s, t). This is the hop count
  /// D_f that bounds the relay path length, hence the effective end-to-end
  /// delay D_f · d_hop. Requires survives_faults(f).
  ///
  /// Evaluated with one worst_distance_with_faults call per subset (every
  /// source, or a strided sample beyond kWorstCaseSourceBudget). When the
  /// number of size-f subsets fits the deterministic budget
  /// (kWorstCaseSubsetBudget — always the case for n ≤ 12) the walk is
  /// exhaustive and the result exact;
  /// beyond the budget a fixed sample is probed instead — every node's
  /// first-f-neighbors cut plus seeded random subsets — so n ≥ 64
  /// ring-of-cliques sweeps finish. The sampled estimate is a lower bound
  /// on the true D_f and a pure function of (graph, f): deterministic
  /// across runs, threads, and call sites.
  [[nodiscard]] std::uint32_t worst_case_distance(std::uint32_t f) const;

  /// Subset budget for worst_case_distance: exhaustive at or below, sampled
  /// above. Covers every f for n ≤ 12 (max C(12,6) = 924).
  static constexpr std::uint64_t kWorstCaseSubsetBudget = 2048;

  /// Source budget for the exhaustive walk: above this n even the f = 0
  /// all-pairs eccentricity (every node a source) is a cliff, so
  /// worst_case_distance switches to the sampled regime and every probe
  /// samples its BFS sources (see sampled_source_cap).
  static constexpr std::uint32_t kWorstCaseSourceBudget = 256;

  /// BFS sources per sampled-regime probe at this n. Shrinks past 2^16
  /// nodes so a 10^6-node analysis stays a handful of O(n·deg) sweeps of
  /// one word per node.
  [[nodiscard]] std::uint32_t sampled_source_cap() const noexcept {
    return n() <= (1u << 16) ? kWorstCaseSourceBudget : 16u;
  }

  /// Whether worst_case_distance(f) runs the exhaustive walk (true) or the
  /// budget-bounded sample (false) — i.e. whether its result is the exact
  /// D_f or a lower bound. Callers deriving soundness-critical parameters
  /// from a sampled result must compensate (see relay::compute_effective).
  /// Exhaustiveness needs both budgets: C(n, f) size-f subsets within the
  /// subset budget AND n within the source budget.
  [[nodiscard]] bool worst_case_distance_is_exact(std::uint32_t f) const;

  // --- Factories ---------------------------------------------------------
  [[nodiscard]] static Topology complete(std::uint32_t n);
  [[nodiscard]] static Topology ring(std::uint32_t n);
  /// Ring plus chords to every `stride`-th node: (f+1)-connected for larger
  /// f than a plain ring while staying sparse.
  [[nodiscard]] static Topology chordal_ring(std::uint32_t n,
                                             std::uint32_t stride);
  /// `cliques` cliques of size `size`, consecutive cliques joined by
  /// `bridges` disjoint edges — the "balanced paths" topology of the E11
  /// bench (bench/bench_sparse_network.cpp).
  [[nodiscard]] static Topology ring_of_cliques(std::uint32_t cliques,
                                                std::uint32_t size,
                                                std::uint32_t bridges);
  /// k-dimensional hypercube on 2^dim nodes: k-connected with diameter k —
  /// the classic sparse topology with logarithmic relay distance.
  [[nodiscard]] static Topology hypercube(std::uint32_t dim);
  /// Random (f+1)-connected graph: a Hamiltonian ring (guaranteeing
  /// connectivity) plus uniformly random chords added until the graph
  /// survives f faults. Deterministic in `seed`. Intended for the small n of
  /// sweeps (survives_faults is brute force).
  [[nodiscard]] static Topology random_connected(std::uint32_t n,
                                                 std::uint32_t f,
                                                 std::uint64_t seed);

 private:
  void for_each_faulty_set(std::uint32_t f,
                           const std::function<void(std::vector<bool>&)>& fn) const;

  /// Single-source BFS over non-excluded nodes; fills `dist` (resized to n)
  /// with hop counts, UINT32_MAX for excluded/unreachable nodes.
  void bfs_from(NodeId s, const std::vector<bool>& excluded,
                std::vector<std::uint32_t>& dist) const;

  std::vector<std::vector<NodeId>> adj_;
  std::size_t edges_ = 0;
};

}  // namespace crusader::relay
