#include "relay/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::relay {

Topology::Topology(std::uint32_t n) : adj_(n) {
  CS_CHECK_MSG(n >= 2, "topology needs at least two nodes");
}

void Topology::add_edge(NodeId a, NodeId b) {
  CS_CHECK(a < n() && b < n() && a != b);
  if (has_edge(a, b)) return;
  adj_[a].push_back(b);
  adj_[b].push_back(a);
  ++edges_;
}

void Topology::remove_edge(NodeId a, NodeId b) {
  CS_CHECK(a < n() && b < n() && a != b);
  const auto ita = std::find(adj_[a].begin(), adj_[a].end(), b);
  if (ita == adj_[a].end()) return;
  adj_[a].erase(ita);
  const auto itb = std::find(adj_[b].begin(), adj_[b].end(), a);
  CS_CHECK(itb != adj_[b].end());
  adj_[b].erase(itb);
  --edges_;
}

bool Topology::has_edge(NodeId a, NodeId b) const {
  CS_CHECK(a < n() && b < n());
  return std::find(adj_[a].begin(), adj_[a].end(), b) != adj_[a].end();
}

const std::vector<NodeId>& Topology::neighbors(NodeId v) const {
  CS_CHECK(v < n());
  return adj_[v];
}

std::uint32_t Topology::distance(NodeId s, NodeId t,
                                 const std::vector<bool>& excluded) const {
  CS_CHECK(s < n() && t < n());
  CS_CHECK(excluded.size() == n());
  if (s == t) return 0;
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n(), kInf);
  std::deque<NodeId> queue;
  dist[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : adj_[v]) {
      if (w != t && excluded[w]) continue;
      if (dist[w] != kInf) continue;
      dist[w] = dist[v] + 1;
      if (w == t) return dist[w];
      queue.push_back(w);
    }
  }
  return kInf;
}

void Topology::for_each_faulty_set(
    std::uint32_t f,
    const std::function<void(std::vector<bool>&)>& fn) const {
  // Enumerate all subsets of size exactly f (smaller sets are dominated:
  // removing fewer nodes never increases distances).
  std::vector<NodeId> subset;
  std::vector<bool> excluded(n(), false);
  std::function<void(NodeId)> rec = [&](NodeId start) {
    if (subset.size() == f) {
      fn(excluded);
      return;
    }
    for (NodeId v = start; v < n(); ++v) {
      excluded[v] = true;
      subset.push_back(v);
      rec(v + 1);
      subset.pop_back();
      excluded[v] = false;
    }
  };
  if (f == 0) {
    fn(excluded);
  } else {
    rec(0);
  }
}

void Topology::bfs_from(NodeId s, const std::vector<bool>& excluded,
                        std::vector<std::uint32_t>& dist) const {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  dist.assign(n(), kInf);
  std::deque<NodeId> queue;
  dist[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : adj_[v]) {
      if (excluded[w] || dist[w] != kInf) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
}

namespace {

/// C(n, f), saturated at `cap` so the comparison against the subset budget
/// never overflows.
std::uint64_t subset_count_capped(std::uint32_t n, std::uint32_t f,
                                  std::uint64_t cap) {
  std::uint64_t count = 1;
  for (std::uint32_t i = 0; i < f; ++i) {
    if (count > cap) return cap + 1;
    count = count * (n - i) / (i + 1);
  }
  return std::min(count, cap + 1);
}

/// Sources per bit-parallel sweep: 64 per word, at most kMaxWords words.
constexpr std::size_t kMaxWords = 4;
constexpr std::size_t kBatchSources = 64 * kMaxWords;

/// Bit-parallel BFS state for up to 64·W sources. Each node owns one
/// 3W-word block, kept together for locality: `visited`, then two frontier
/// buffers that swap roles every level. Bit i of a W-word group marks source
/// i of the batch. Excluded nodes start with `visited` saturated, so the
/// expansion never enters them and needs no exclusion test. Both frontier
/// buffers are all-zero between sweeps.
struct SweepState {
  std::vector<std::uint64_t> bits;
  std::vector<NodeId> active;   ///< nodes whose frontier is non-zero
  std::vector<NodeId> reached;  ///< nodes whose next frontier is non-zero
};

/// One level-synchronous sweep from the frontier seeded in buffer 0 (words
/// [W, 2W) of each block). A level costs O(frontier edges · W), so the sweep
/// never does asymptotically more work than the per-source BFS it replaces.
/// Returns the last level at which any source reached a new node: the
/// batch's max eccentricity.
template <std::size_t W>
std::uint32_t sweep(const std::vector<std::vector<NodeId>>& adj,
                    SweepState& st) {
  std::uint64_t* const bits = st.bits.data();
  std::size_t front = W;  // offset of the frontier being expanded
  std::size_t next = 2 * W;
  std::uint32_t level = 0;
  std::uint32_t last = 0;
  while (!st.active.empty()) {
    ++level;
    st.reached.clear();
    for (const NodeId v : st.active) {
      const std::uint64_t* fv = bits + std::size_t{v} * 3 * W + front;
      for (const NodeId u : adj[v]) {
        std::uint64_t* seen = bits + std::size_t{u} * 3 * W;
        std::uint64_t fresh[W];
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < W; ++w) {
          fresh[w] = fv[w] & ~seen[w];
          any |= fresh[w];
        }
        if (any == 0) continue;
        // Marking visited now is safe: bits found this level land in the
        // next frontier, never in the one being expanded.
        std::uint64_t* nu = seen + next;
        std::uint64_t pending = 0;
        for (std::size_t w = 0; w < W; ++w) {
          pending |= nu[w];
          nu[w] |= fresh[w];
          seen[w] |= fresh[w];
        }
        if (pending == 0) st.reached.push_back(u);
      }
    }
    // Zero the expanded frontier, then swap: it becomes the next level's
    // (empty) write buffer.
    for (const NodeId v : st.active)
      std::fill_n(bits + std::size_t{v} * 3 * W + front, W, 0);
    std::swap(front, next);
    if (!st.reached.empty()) last = level;
    st.active.swap(st.reached);
  }
  return last;
}

}  // namespace

bool Topology::survives_faults(std::uint32_t f) const {
  CS_CHECK_MSG(f + 2 <= n(), "need at least f+2 nodes");
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  // Connectivity of the surviving graph needs ONE BFS per subset (a graph
  // is connected iff one source reaches everyone), not a pairwise walk.
  bool ok = true;
  std::vector<std::uint32_t> dist;
  for_each_faulty_set(f, [&](std::vector<bool>& excluded) {
    if (!ok) return;
    NodeId source = 0;
    while (excluded[source]) ++source;
    bfs_from(source, excluded, dist);
    for (NodeId t = 0; t < n(); ++t)
      if (!excluded[t] && dist[t] == kInf) ok = false;
  });
  return ok;
}

bool Topology::worst_case_distance_is_exact(std::uint32_t f) const {
  return n() <= kWorstCaseSourceBudget &&
         subset_count_capped(n(), f, kWorstCaseSubsetBudget) <=
             kWorstCaseSubsetBudget;
}

std::uint32_t Topology::worst_distance_with_faults(
    const std::vector<bool>& excluded, std::uint32_t source_budget) const {
  CS_CHECK(excluded.size() == n());
  std::vector<NodeId> sources;
  sources.reserve(n());
  for (NodeId s = 0; s < n(); ++s)
    if (!excluded[s]) sources.push_back(s);
  if (source_budget > 0 && sources.size() > source_budget) {
    // Deterministic evenly-strided sample. Every retained source still
    // checks full reachability below, so connectivity verification stays
    // exact.
    std::vector<NodeId> sampled;
    sampled.reserve(source_budget);
    for (std::uint32_t i = 0; i < source_budget; ++i)
      sampled.push_back(
          sources[static_cast<std::size_t>(i) * sources.size() / source_budget]);
    sources.swap(sampled);
  }
  if (sources.empty()) return 0;

  // Multi-source BFS, kBatchSources sources per sweep. The word count
  // follows the source count, so a 16-source sample packs into one word.
  const std::size_t words =
      std::min(kMaxWords, (sources.size() + 63) / 64);
  const std::size_t block = 3 * words;
  SweepState st;
  st.bits.assign(static_cast<std::size_t>(n()) * block, 0);
  std::uint32_t worst = 0;
  for (std::size_t begin = 0; begin < sources.size(); begin += kBatchSources) {
    const std::size_t count = std::min(kBatchSources, sources.size() - begin);
    for (NodeId v = 0; v < n(); ++v) {
      const std::uint64_t init = excluded[v] ? ~std::uint64_t{0} : 0;
      std::fill_n(st.bits.begin() + std::size_t{v} * block, words, init);
    }
    st.active.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t at = std::size_t{sources[begin + i]} * block + i / 64;
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      st.bits[at] |= bit;          // visited
      st.bits[at + words] |= bit;  // frontier (buffer 0)
      st.active.push_back(sources[begin + i]);  // sources are distinct
    }
    std::uint32_t ecc = 0;
    switch (words) {
      case 1: ecc = sweep<1>(adj_, st); break;
      case 2: ecc = sweep<2>(adj_, st); break;
      case 3: ecc = sweep<3>(adj_, st); break;
      default: ecc = sweep<kMaxWords>(adj_, st); break;
    }
    worst = std::max(worst, ecc);
    // Every source of the batch must have reached every survivor.
    for (NodeId t = 0; t < n(); ++t) {
      if (excluded[t]) continue;
      bool all_reached = true;
      for (std::size_t w = 0; w < words; ++w) {
        const std::size_t lo = 64 * w;
        const std::uint64_t want =
            count >= lo + 64 ? ~std::uint64_t{0}
            : count > lo     ? (std::uint64_t{1} << (count - lo)) - 1
                             : 0;
        all_reached &= (st.bits[std::size_t{t} * block + w] & want) == want;
      }
      CS_CHECK_MSG(all_reached,
                   "faulty set disconnects the topology (not "
                   "(f+1)-connected?)");
    }
  }
  return worst;
}

std::uint32_t Topology::worst_case_distance(std::uint32_t f) const {
  std::uint32_t worst = 0;

  if (worst_case_distance_is_exact(f)) {
    for_each_faulty_set(f, [&](std::vector<bool>& excluded) {
      worst = std::max(worst, worst_distance_with_faults(excluded));
    });  // exhaustive: the exact D_f
    return worst;
  }

  // Beyond the budgets: deterministic sampling. Structured cuts first —
  // deleting f neighbors of one node is how relay paths stretch — then
  // seeded random subsets. Everything is a pure function of (graph, f):
  // same graph, same answer, across runs, threads, and call sites.
  std::vector<bool> excluded(n(), false);
  const std::uint32_t source_cap =
      n() <= kWorstCaseSourceBudget ? 0 : sampled_source_cap();
  auto probe = [&](const std::vector<bool>& ex) {
    worst = std::max(worst, worst_distance_with_faults(ex, source_cap));
  };

  if (n() <= kWorstCaseSourceBudget) {
    // Small-n sampled regime (subset budget exceeded): every node's
    // first-f-neighbors cut, then random subsets up to the probe budget,
    // each with exhaustive sources — the historical sampling behavior.
    std::uint64_t probes = 0;
    for (NodeId v = 0; v < n(); ++v) {
      const auto& nb = adj_[v];
      const std::uint32_t take =
          std::min<std::uint32_t>(f, static_cast<std::uint32_t>(nb.size()));
      for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = true;
      probe(excluded);
      ++probes;
      for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = false;
    }
    util::Rng rng(0xd157a9ceULL ^ (static_cast<std::uint64_t>(n()) << 32) ^ f);
    std::vector<NodeId> picked;
    while (probes < kWorstCaseSubsetBudget) {
      picked.clear();
      while (picked.size() < f) {
        const NodeId v = static_cast<NodeId>(rng.below(n()));
        if (!excluded[v]) {
          excluded[v] = true;
          picked.push_back(v);
        }
      }
      probe(excluded);
      ++probes;
      for (const NodeId v : picked) excluded[v] = false;
    }
    return worst;
  }

  // Large-n sampled regime (source budget exceeded): a strided handful of
  // first-f-neighbors cuts plus a couple of random subsets, each probed
  // with sampled sources, so a 10^5-node analysis is a few dozen BFS walks
  // instead of millions.
  if (f == 0) {
    probe(excluded);  // only one fault set exists: the empty one
    return worst;
  }
  constexpr std::uint32_t kStructuredProbes = 6;
  constexpr std::uint32_t kRandomProbes = 2;
  const NodeId stride = std::max(1u, n() / kStructuredProbes);
  for (NodeId v = 0; v < n(); v += stride) {
    const auto& nb = adj_[v];
    const std::uint32_t take =
        std::min<std::uint32_t>(f, static_cast<std::uint32_t>(nb.size()));
    for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = true;
    probe(excluded);
    for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = false;
  }
  util::Rng rng(0xd157a9ceULL ^ (static_cast<std::uint64_t>(n()) << 32) ^ f);
  std::vector<NodeId> picked;
  for (std::uint32_t p = 0; p < kRandomProbes; ++p) {
    picked.clear();
    while (picked.size() < f) {
      const NodeId v = static_cast<NodeId>(rng.below(n()));
      if (!excluded[v]) {
        excluded[v] = true;
        picked.push_back(v);
      }
    }
    probe(excluded);
    for (const NodeId v : picked) excluded[v] = false;
  }
  return worst;
}

Topology Topology::complete(std::uint32_t n) {
  Topology topo(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b) topo.add_edge(a, b);
  return topo;
}

Topology Topology::ring(std::uint32_t n) {
  Topology topo(n);
  for (NodeId v = 0; v < n; ++v) topo.add_edge(v, (v + 1) % n);
  return topo;
}

Topology Topology::chordal_ring(std::uint32_t n, std::uint32_t stride) {
  CS_CHECK(stride >= 2 && stride < n);
  Topology topo = ring(n);
  for (NodeId v = 0; v < n; ++v) topo.add_edge(v, (v + stride) % n);
  return topo;
}

Topology Topology::ring_of_cliques(std::uint32_t cliques, std::uint32_t size,
                                   std::uint32_t bridges) {
  // Outgoing bridges leave from nodes {0..bridges-1} and incoming bridges
  // land on nodes {size-1 .. size-bridges}: every clique exposes 2*bridges
  // DISTINCT gateway nodes, so cutting the clique ring takes both junctions
  // of a segment (2*bridges nodes) and the topology survives
  // f = 2*bridges − 1 faults anywhere (deleting one junction's endpoints
  // still leaves the ring connected the other way around; see
  // max_topology_faults and the RingOfCliquesConnectivityFormula test).
  CS_CHECK(cliques >= 2 && size >= 2 && bridges >= 1 && 2 * bridges <= size);
  Topology topo(cliques * size);
  auto id = [size](std::uint32_t clique, std::uint32_t i) {
    return static_cast<NodeId>(clique * size + i);
  };
  for (std::uint32_t c = 0; c < cliques; ++c) {
    for (std::uint32_t i = 0; i < size; ++i)
      for (std::uint32_t j = i + 1; j < size; ++j)
        topo.add_edge(id(c, i), id(c, j));
    const std::uint32_t next = (c + 1) % cliques;
    for (std::uint32_t b = 0; b < bridges; ++b)
      topo.add_edge(id(c, b), id(next, size - 1 - b));
  }
  return topo;
}

Topology Topology::hypercube(std::uint32_t dim) {
  CS_CHECK_MSG(dim >= 1 && dim < 31, "hypercube dimension out of range");
  const std::uint32_t n = 1u << dim;
  Topology topo(n);
  for (NodeId v = 0; v < n; ++v)
    for (std::uint32_t bit = 0; bit < dim; ++bit)
      topo.add_edge(v, v ^ (1u << bit));
  return topo;
}

Topology Topology::random_connected(std::uint32_t n, std::uint32_t f,
                                    std::uint64_t seed) {
  CS_CHECK_MSG(f + 2 <= n, "need at least f+2 nodes for f faults");
  Topology topo = ring(n);
  if (topo.survives_faults(f)) return topo;
  util::Rng rng(seed);
  // Add random chords until (f+1)-connected. The complete graph is an upper
  // bound, so this terminates; re-checking connectivity every few edges keeps
  // the brute-force check off the hot path.
  const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
  std::uint32_t since_check = 0;
  while (topo.edge_count() < max_edges) {
    const NodeId a = static_cast<NodeId>(rng.next_u64() % n);
    const NodeId b = static_cast<NodeId>(rng.next_u64() % n);
    if (a == b || topo.has_edge(a, b)) continue;
    topo.add_edge(a, b);
    if (++since_check >= 2 || topo.edge_count() == max_edges) {
      since_check = 0;
      if (topo.survives_faults(f)) return topo;
    }
  }
  CS_CHECK_MSG(topo.survives_faults(f),
               "random_connected failed to reach (f+1)-connectivity");
  return topo;
}

}  // namespace crusader::relay
