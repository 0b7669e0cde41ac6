#pragma once
// The KLLO gradient envelope (Kuhn–Lenzen–Locher–Oshman, "Optimal Gradient
// Clock Synchronization in Dynamic Networks") as a per-edge-age conformance
// check. KLLO proves that in a dynamic network the local skew across an edge
// is O(σ·log n) once the edge has been present for a stabilization period —
// before that, only the global bound (≈ n·σ) holds. The gate this module
// feeds therefore compares each live edge's per-round skew against an
// envelope parameterized by that edge's age, not a flat ratio: a freshly
// (re)appeared edge is granted the global allowance, decaying linearly to
// the O(log n) base as the edge stabilizes.
//
//   base(n)     = κ·σ·(1 + log₂ n)            — the stabilized gradient bound
//   stab(n)     = ⌈stab_mult·(1 + log₂ n)⌉    — stabilization time, in rounds
//   env(age, n) = base + (G − base)·max(0, 1 − age/stab)
//
// σ is the per-round uncertainty scale u + (ϑ − 1)·T of the model the
// protocol actually ran against, and G is the fresh-edge (global) allowance
// n·σ. `stab_mult` is the sweep axis: 1.0 is the paper-faithful default,
// larger values grant churned edges a longer settling window.
//
// A cell's edge metrics come from one walk (edge_metrics): the schedule is
// replayed once, each live measured edge's |p_v − p_w| feeds both the
// per-round local skew and the envelope ratio, and env(age, n) is read from
// a per-cell table over ages 0 … rounds − 1 (an edge's age at round r is at
// most r), so the per-edge cost is a subtraction, a lookup and a divide.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "relay/schedule.hpp"
#include "sim/trace.hpp"

namespace crusader::runner {

struct KlloEnvelopeParams {
  double sigma = 0.0;      ///< per-round uncertainty scale u + (ϑ − 1)·T
  double kappa = 1.0;      ///< constant on the O(log n) base
  double global = 0.0;     ///< fresh-edge allowance G (≈ n·σ)
  double stab_mult = 1.0;  ///< stabilization-time multiplier (sweep axis)
};

/// The envelope value for an edge that has been live `edge_age` rounds in an
/// n-node network. Pure — the gate formula, testable without a simulation.
[[nodiscard]] double kllo_envelope(std::uint64_t edge_age, std::uint32_t n,
                                   const KlloEnvelopeParams& params);

/// One run's verdict against the envelope.
struct KlloConformance {
  /// max over complete rounds and live measured edges of
  /// |p_v(r) − p_w(r)| / env(age(edge at r), n). NaN when nothing measured.
  double ratio;
  /// Round-edge pairs whose ratio exceeded 1 (+1e-9 headroom).
  std::size_t violations = 0;
  /// Minimum age over the live measured edges of the LAST complete round —
  /// the CSV's "youngest edge the verdict rests on" column. NaN when nothing
  /// measured. For a static schedule this is simply rounds − 1.
  double edge_age_min;
};

/// Both per-cell edge metrics of one run.
struct EdgeMetrics {
  /// Per complete round r: max over live measured edges of |p_v(r) − p_w(r)|
  /// (0 when no edge is measured).
  std::vector<double> local_skew;
  KlloConformance kllo;
};

/// Replays the schedule (`initial`, then `deltas`) next to `trace` — round r
/// is measured on the epoch-r graph, delta r then advances the graph — and
/// computes each live measured edge's |p_v − p_w| once for both metrics: the
/// round's local skew, and its ratio to the envelope at the edge's current
/// age. Down nodes and metric-excluded (faulty / ever-churned) nodes are
/// skipped. A static cell passes its topology with no deltas: every edge's
/// age at round r is then r.
[[nodiscard]] EdgeMetrics edge_metrics(
    const sim::PulseTrace& trace, const relay::Topology& initial,
    std::span<const relay::EpochDelta> deltas,
    const KlloEnvelopeParams& params);

/// edge_metrics(...).kllo over a whole schedule.
[[nodiscard]] KlloConformance kllo_conformance(
    const sim::PulseTrace& trace, const relay::TopologySchedule& schedule,
    const KlloEnvelopeParams& params);

}  // namespace crusader::runner
