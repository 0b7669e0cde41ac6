// KLLO per-edge-age envelope (runner/kllo.hpp): the pure formula the
// conformance harness grades every live edge against. Anchored here:
// age 0 gets the full global settling allowance, the allowance decays
// linearly and is gone after the stabilization window, the settled band
// scales as O(log n), and the stabilization multiplier stretches the
// window without moving either endpoint. The one-replay edge-metric walk is
// pinned bit for bit against a reference pair of separate walks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "runner/kllo.hpp"
#include "runner/runner.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace crusader::runner {
namespace {

KlloEnvelopeParams params_for(std::uint32_t n, double sigma = 0.07,
                              double stab_mult = 1.0, double kappa = 1.0) {
  KlloEnvelopeParams params;
  params.sigma = sigma;
  params.kappa = kappa;
  params.global = static_cast<double>(n) * sigma;
  params.stab_mult = stab_mult;
  return params;
}

double base_of(std::uint32_t n, const KlloEnvelopeParams& params) {
  return params.kappa * params.sigma * (1.0 + std::log2(n));
}

std::uint64_t stab_of(std::uint32_t n, const KlloEnvelopeParams& params) {
  return static_cast<std::uint64_t>(
      std::ceil(params.stab_mult * (1.0 + std::log2(n))));
}

TEST(KlloEnvelope, TableOfAgesAndSizes) {
  struct Case {
    std::uint32_t n;
    double stab_mult;
  };
  const Case cases[] = {{4, 1.0},    {16, 1.0},  {16, 4.0},
                        {256, 1.0},  {256, 2.5}, {1024, 1.0},
                        {1u << 20, 1.0}};
  for (const auto& c : cases) {
    const auto params = params_for(c.n, 0.07, c.stab_mult);
    const double base = base_of(c.n, params);
    const double global = params.global;
    const std::uint64_t stab = stab_of(c.n, params);

    // Age 0: a brand-new edge gets the full global allowance (for every n
    // in the table, global = n·sigma dominates the O(log n) base).
    ASSERT_GT(global, base) << "n=" << c.n;
    EXPECT_DOUBLE_EQ(kllo_envelope(0, c.n, params), global) << "n=" << c.n;

    // Pre-stabilization: strictly between base and global, and monotone
    // non-increasing in age.
    double prev = global;
    for (std::uint64_t age = 1; age < stab; ++age) {
      const double env = kllo_envelope(age, c.n, params);
      EXPECT_LT(env, global) << "n=" << c.n << " age=" << age;
      EXPECT_GT(env, base) << "n=" << c.n << " age=" << age;
      EXPECT_LE(env, prev) << "n=" << c.n << " age=" << age;
      prev = env;
    }

    // At and past stabilization: exactly the settled O(log n) band.
    EXPECT_DOUBLE_EQ(kllo_envelope(stab, c.n, params), base) << "n=" << c.n;
    EXPECT_DOUBLE_EQ(kllo_envelope(stab + 1, c.n, params), base)
        << "n=" << c.n;
    EXPECT_DOUBLE_EQ(kllo_envelope(10 * stab + 7, c.n, params), base)
        << "n=" << c.n;
  }
}

TEST(KlloEnvelope, DecayIsLinearInAge) {
  const auto params = params_for(256);
  const double base = base_of(256, params);
  const std::uint64_t stab = stab_of(256, params);  // ceil(1·9) = 9
  ASSERT_EQ(stab, 9u);
  for (std::uint64_t age = 0; age <= stab; ++age) {
    const double expected =
        base + (params.global - base) *
                   (1.0 - static_cast<double>(age) / static_cast<double>(stab));
    EXPECT_NEAR(kllo_envelope(age, 256, params), expected, 1e-12)
        << "age=" << age;
  }
}

TEST(KlloEnvelope, SettledBandGrowsLogarithmically) {
  // The settled envelope is kappa·sigma·(1+log2 n): doubling n adds exactly
  // one kappa·sigma step, so envelope(∞)/log-term is constant — the O(log n)
  // asymptote, not O(n).
  const double sigma = 0.05;
  double prev = 0.0;
  for (std::uint32_t e = 1; e <= 20; ++e) {
    const std::uint32_t n = 1u << e;
    const auto params = params_for(n, sigma);
    const double settled = kllo_envelope(1u << 30, n, params);
    EXPECT_NEAR(settled, sigma * (1.0 + e), 1e-9) << "n=" << n;
    if (e > 1) {
      EXPECT_NEAR(settled - prev, sigma, 1e-9) << "n=" << n;
    }
    prev = settled;
  }
  // Sanity against the linear alternative: at n = 2^20 the settled band is
  // 21·sigma, vastly below the n·sigma global allowance.
  EXPECT_LT(prev, (1u << 20) * sigma / 1000.0);
}

TEST(KlloEnvelope, StabMultiplierStretchesTheWindowOnly) {
  const auto tight = params_for(64, 0.07, 1.0);
  const auto loose = params_for(64, 0.07, 4.0);
  const std::uint64_t tight_stab = stab_of(64, tight);  // 7
  const std::uint64_t loose_stab = stab_of(64, loose);  // 28
  ASSERT_LT(tight_stab, loose_stab);

  // Endpoints agree: same allowance at age 0, same settled band.
  EXPECT_DOUBLE_EQ(kllo_envelope(0, 64, tight), kllo_envelope(0, 64, loose));
  EXPECT_DOUBLE_EQ(kllo_envelope(loose_stab, 64, tight),
                   kllo_envelope(loose_stab, 64, loose));

  // In between, the stretched window is strictly more generous: an age that
  // is settled under mult=1 still carries allowance under mult=4.
  EXPECT_DOUBLE_EQ(kllo_envelope(tight_stab, 64, tight), base_of(64, tight));
  EXPECT_GT(kllo_envelope(tight_stab, 64, loose), base_of(64, loose));
}

TEST(KlloEnvelope, DegenerateShapes) {
  // n = 1: the log term clamps to 1, envelope stays finite and positive.
  auto params = params_for(1);
  EXPECT_DOUBLE_EQ(kllo_envelope(0, 1, params), params.sigma);
  EXPECT_DOUBLE_EQ(kllo_envelope(5, 1, params), params.sigma);

  // A global allowance below the settled band never narrows the envelope:
  // the envelope is base at every age (max(0, global − base) clamps).
  params = params_for(1024);
  params.global = 0.0;
  const double base = base_of(1024, params);
  EXPECT_DOUBLE_EQ(kllo_envelope(0, 1024, params), base);
  EXPECT_DOUBLE_EQ(kllo_envelope(100, 1024, params), base);

  // kappa scales the settled band linearly.
  const auto half = params_for(256, 0.07, 1.0, 0.5);
  EXPECT_NEAR(kllo_envelope(1u << 20, 256, half),
              0.5 * base_of(256, params_for(256)), 1e-12);

  // A tiny stab multiplier still leaves a one-round window (stab >= 1), so
  // age 0 keeps the full allowance.
  auto tiny = params_for(256);
  tiny.stab_mult = 1e-6;
  EXPECT_DOUBLE_EQ(kllo_envelope(0, 256, tiny), tiny.global);
  EXPECT_DOUBLE_EQ(kllo_envelope(1, 256, tiny), base_of(256, tiny));
}

TEST(KlloConformance, EmptyTraceReportsAbsentMetrics) {
  const sim::PulseTrace trace(4, std::vector<bool>(4, false));
  const auto schedule =
      relay::TopologySchedule::static_schedule(relay::Topology::ring(4));
  const auto out = kllo_conformance(trace, schedule, params_for(4));
  EXPECT_TRUE(std::isnan(out.ratio));
  EXPECT_TRUE(std::isnan(out.edge_age_min));
  EXPECT_EQ(out.violations, 0u);
}

/// Reference local-skew walk: replay the schedule through
/// TopologySchedule::apply and take each round's worst live measured edge.
std::vector<double> reference_local_skew(
    const sim::PulseTrace& trace, const relay::TopologySchedule& schedule) {
  const std::size_t rounds = trace.complete_rounds();
  const std::uint32_t n = trace.n();
  std::vector<double> series(rounds, 0.0);
  relay::Topology topo = schedule.initial();
  std::vector<bool> down(n, false);
  const auto& deltas = schedule.deltas();
  for (std::size_t r = 0; r < rounds; ++r) {
    double worst = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (down[v] || trace.is_faulty(v)) continue;
      for (const NodeId w : topo.neighbors(v)) {
        if (w < v || down[w] || trace.is_faulty(w)) continue;
        worst = std::max(worst, std::abs(trace.pulse_time(v, r) -
                                         trace.pulse_time(w, r)));
      }
    }
    series[r] = worst;
    if (r < deltas.size())
      relay::TopologySchedule::apply(deltas[r], topo, down);
  }
  return series;
}

/// Reference KLLO walk: EdgeAgeTracker ages, kllo_envelope per edge. On a
/// schedule without deltas the tracker's age at round r is r.
KlloConformance reference_kllo(const sim::PulseTrace& trace,
                               const relay::TopologySchedule& schedule,
                               const KlloEnvelopeParams& params) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  KlloConformance out{kNan, 0, kNan};
  const std::size_t rounds = trace.complete_rounds();
  const std::uint32_t n = trace.n();
  relay::EdgeAgeTracker tracker(schedule.initial());
  const auto& deltas = schedule.deltas();
  for (std::size_t r = 0; r < rounds; ++r) {
    double min_age = kNan;
    const auto& topo = tracker.topology();
    const auto& down = tracker.down();
    for (NodeId v = 0; v < n; ++v) {
      if (down[v] || trace.is_faulty(v)) continue;
      for (const NodeId w : topo.neighbors(v)) {
        if (w < v || down[w] || trace.is_faulty(w)) continue;
        const std::uint64_t age = tracker.age(v, w);
        const double env = kllo_envelope(age, n, params);
        const double skew =
            std::abs(trace.pulse_time(v, r) - trace.pulse_time(w, r));
        const double ratio =
            env > 0.0 ? skew / env
                      : (skew > 0.0 ? std::numeric_limits<double>::infinity()
                                    : 0.0);
        if (!(ratio <= out.ratio)) out.ratio = ratio;
        if (ratio > 1.0 + 1e-9) ++out.violations;
        const auto age_d = static_cast<double>(age);
        if (!(age_d >= min_age)) min_age = age_d;
      }
    }
    if (r + 1 == rounds) out.edge_age_min = min_age;
    if (r < deltas.size())
      tracker.apply(deltas[r]);
    else
      tracker.advance();
  }
  return out;
}

/// Seeded pulse trace: honest nodes pulse `rounds` times near r·period,
/// faulty nodes a random shorter-or-equal number of times.
sim::PulseTrace synthetic_trace(std::uint32_t n, std::size_t rounds,
                                const std::vector<bool>& faulty,
                                std::uint64_t seed, double spread) {
  sim::PulseTrace trace(n, faulty);
  util::Rng rng(seed);
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t pulses =
        faulty[v] ? static_cast<std::size_t>(rng.below(rounds + 1)) : rounds;
    for (std::size_t r = 0; r < pulses; ++r) {
      const double t = 10.0 * static_cast<double>(r) + rng.uniform(0.0, spread);
      trace.record(v, t, t);
    }
  }
  return trace;
}

/// Bit-for-bit equality of two doubles (NaN equals NaN of the same bits).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

relay::ChurnPolicy policy_of(double rate, std::uint32_t batch,
                             relay::ReconnectPolicy reconnect) {
  relay::ChurnPolicy policy;
  policy.churn_rate = rate;
  policy.join_batch = batch;
  policy.reconnect = reconnect;
  return policy;
}

TEST(EdgeMetrics, MatchTwoWalkReference) {
  std::vector<relay::TopologySchedule> schedules;
  // Churned hypercubes: every reconnect policy, with and without leaves.
  for (const auto reconnect : {relay::ReconnectPolicy::kRandom,
                               relay::ReconnectPolicy::kPreferential,
                               relay::ReconnectPolicy::kRingRepair})
    for (const std::uint32_t batch : {0u, 2u})
      schedules.push_back(relay::TopologySchedule::generate(
          relay::Topology::hypercube(5), policy_of(0.2, batch, reconnect), 10,
          41 + batch));
  // All-empty deltas: a disconnected initial graph rejects every cut.
  relay::Topology split(8);
  for (NodeId v = 0; v < 4; ++v) {
    split.add_edge(v, (v + 1) % 4);
    split.add_edge(4 + v, 4 + (v + 1) % 4);
  }
  schedules.push_back(relay::TopologySchedule::generate(
      split, policy_of(0.5, 1, relay::ReconnectPolicy::kRandom), 6, 3));
  ASSERT_FALSE(schedules.back().deltas().empty());
  ASSERT_FALSE(schedules.back().dynamic());
  // Static topologies: no deltas at all.
  schedules.push_back(
      relay::TopologySchedule::static_schedule(relay::Topology::hypercube(5)));
  schedules.push_back(relay::TopologySchedule::static_schedule(
      relay::Topology::chordal_ring(20, 3)));

  std::size_t graded = 0;
  std::size_t violations = 0;
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    const auto& schedule = schedules[s];
    const std::uint32_t n = schedule.initial().n();
    const auto churned = schedule.ever_churned();
    // Round counts below, at and past the schedule length (past it the
    // walk only ages edges); faulty sets: none, the churned nodes, and the
    // churned nodes plus a few stable ones.
    for (const std::size_t rounds : {std::size_t{0}, std::size_t{1},
                                     schedule.deltas().size(),
                                     schedule.deltas().size() + 3})
      for (int mask = 0; mask < 3; ++mask) {
        std::vector<bool> faulty(n, false);
        if (mask > 0) faulty = churned;
        if (mask > 1)
          for (NodeId v = 1; v < n; v += 5) faulty[v] = true;
        const auto trace =
            synthetic_trace(n, rounds, faulty, 1000 * s + rounds + mask, 0.6);
        for (const double sigma : {0.0, 0.004, 0.05}) {
          KlloEnvelopeParams params;
          params.sigma = sigma;
          params.global = static_cast<double>(n) * sigma;
          params.stab_mult = sigma == 0.05 ? 2.5 : 1.0;
          const auto want_series = reference_local_skew(trace, schedule);
          const auto want = reference_kllo(trace, schedule, params);
          const auto series = local_skew_series(trace, schedule);
          const auto got = kllo_conformance(trace, schedule, params);
          const auto both = edge_metrics(trace, schedule.initial(),
                                         schedule.deltas(), params);
          const std::string where = "schedule " + std::to_string(s) +
                                    " rounds " + std::to_string(rounds) +
                                    " mask " + std::to_string(mask) +
                                    " sigma " + std::to_string(sigma);
          ASSERT_EQ(series.size(), want_series.size()) << where;
          ASSERT_EQ(both.local_skew.size(), want_series.size()) << where;
          for (std::size_t r = 0; r < series.size(); ++r) {
            EXPECT_TRUE(same_bits(series[r], want_series[r]))
                << where << " round " << r;
            EXPECT_TRUE(same_bits(both.local_skew[r], want_series[r]))
                << where << " round " << r;
          }
          for (const KlloConformance& k : {got, both.kllo}) {
            EXPECT_TRUE(same_bits(k.ratio, want.ratio)) << where;
            EXPECT_EQ(k.violations, want.violations) << where;
            EXPECT_TRUE(same_bits(k.edge_age_min, want.edge_age_min))
                << where;
          }
          graded += rounds > 0 ? 1 : 0;
          violations += want.violations;
        }
      }
  }
  // The grid grades real rounds and trips the envelope somewhere.
  EXPECT_GT(graded, 0u);
  EXPECT_GT(violations, 0u);
}

}  // namespace
}  // namespace crusader::runner
