#include "runner/kllo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace crusader::runner {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// 1 + log₂ n — the KLLO height term. n = 1 degenerates to 1.
[[nodiscard]] double log_term(std::uint32_t n) noexcept {
  return 1.0 + std::log2(std::max(1u, n));
}

}  // namespace

double kllo_envelope(std::uint64_t edge_age, std::uint32_t n,
                     const KlloEnvelopeParams& params) {
  const double base = params.kappa * params.sigma * log_term(n);
  const double stab =
      std::max(1.0, std::ceil(params.stab_mult * log_term(n)));
  const double decay =
      std::max(0.0, 1.0 - static_cast<double>(edge_age) / stab);
  return base + std::max(0.0, params.global - base) * decay;
}

EdgeMetrics edge_metrics(const sim::PulseTrace& trace,
                         const relay::Topology& initial,
                         std::span<const relay::EpochDelta> deltas,
                         const KlloEnvelopeParams& params) {
  const std::size_t rounds = trace.complete_rounds();
  const std::uint32_t n = trace.n();
  EdgeMetrics out{std::vector<double>(rounds, 0.0), {kNan, 0, kNan}};
  if (rounds == 0) return out;

  // An edge's age at round r is at most r, so one table covers every edge.
  std::vector<double> env(rounds);
  for (std::size_t age = 0; age < rounds; ++age)
    env[age] = kllo_envelope(age, n, params);
  std::vector<char> faulty(n);
  for (NodeId v = 0; v < n; ++v) faulty[v] = trace.is_faulty(v) ? 1 : 0;
  std::vector<char> measured(n);
  std::vector<double> pulse(n);
  KlloConformance& kllo = out.kllo;

  // Round r on the epoch-r graph, every live edge at its current age.
  const auto grade = [&](std::size_t r, const relay::Topology& topo,
                         const std::vector<bool>& down, const auto& age_of) {
    for (NodeId v = 0; v < n; ++v) {
      measured[v] = !down[v] && !faulty[v];
      if (measured[v]) pulse[v] = trace.pulse_time(v, r);
    }
    double worst = 0.0;
    double min_age = kNan;
    for (NodeId v = 0; v < n; ++v) {
      if (!measured[v]) continue;
      for (const NodeId w : topo.neighbors(v)) {
        if (w < v || !measured[w]) continue;
        const double skew = std::abs(pulse[v] - pulse[w]);
        worst = std::max(worst, skew);
        const std::uint64_t age = age_of(v, w);
        const double allowance = env[age];
        const double ratio =
            allowance > 0.0
                ? skew / allowance
                : (skew > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
        if (!(ratio <= kllo.ratio)) kllo.ratio = ratio;  // NaN-safe max
        if (ratio > 1.0 + 1e-9) ++kllo.violations;
        const auto age_d = static_cast<double>(age);
        if (!(age_d >= min_age)) min_age = age_d;  // NaN-safe min
      }
    }
    out.local_skew[r] = worst;
    if (r + 1 == rounds) kllo.edge_age_min = min_age;
  };

  if (deltas.empty()) {
    // Static: every edge is live since epoch 0, so its age at round r is r —
    // no births to track (this path also runs the very large static cells).
    const std::vector<bool> down(n, false);
    for (std::size_t r = 0; r < rounds; ++r)
      grade(r, initial, down, [r](NodeId, NodeId) { return r; });
  } else {
    relay::EdgeAgeTracker tracker(initial);
    for (std::size_t r = 0; r < rounds; ++r) {
      grade(r, tracker.topology(), tracker.down(),
            [&](NodeId v, NodeId w) { return tracker.age(v, w); });
      if (r < deltas.size())
        tracker.apply(deltas[r]);
      else
        tracker.advance();
    }
  }
  return out;
}

KlloConformance kllo_conformance(const sim::PulseTrace& trace,
                                 const relay::TopologySchedule& schedule,
                                 const KlloEnvelopeParams& params) {
  return edge_metrics(trace, schedule.initial(), schedule.deltas(), params)
      .kllo;
}

}  // namespace crusader::runner
