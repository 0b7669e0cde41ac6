// Tests for Figure 1 (APA) — Theorem 9 (one iteration halves the honest
// range at f = ⌈n/2⌉−1) and Corollary 2 (iterated convergence), under the
// full synchronous adversary suite.

#include "sync/approx_agreement.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/params.hpp"
#include "sync/sync_adversary.hpp"
#include "util/check.hpp"

namespace crusader::sync {
namespace {

std::vector<bool> faulty_mask(std::uint32_t n, std::uint32_t f) {
  // Faulty ids are the top ids so honest inputs sit at ids 0..n-f-1.
  std::vector<bool> mask(n, false);
  for (std::uint32_t i = 0; i < f; ++i) mask[n - 1 - i] = true;
  return mask;
}

std::vector<NodeId> faulty_ids(const std::vector<bool>& mask) {
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < mask.size(); ++v)
    if (mask[v]) ids.push_back(v);
  return ids;
}

struct HonestRange {
  double lo, hi;
};

HonestRange honest_range(const std::vector<double>& values,
                         const std::vector<bool>& mask) {
  HonestRange r{1e300, -1e300};
  for (NodeId v = 0; v < mask.size(); ++v) {
    if (mask[v]) continue;
    r.lo = std::min(r.lo, values[v]);
    r.hi = std::max(r.hi, values[v]);
  }
  return r;
}

// The Figure-1 selection rule, shared with CPS and Lynch–Welch as
// core::trimmed_midpoint; APA discards max(0, f − b) per side.
TEST(Apa, SelectMidpointBasics) {
  // f=2, no bots: discard two per side.
  EXPECT_DOUBLE_EQ(core::trimmed_midpoint({-100, 0, 1, 2, 100}, 2), 1.0);
  // f=2, one bot: discard one per side.
  EXPECT_DOUBLE_EQ(core::trimmed_midpoint({-100, 0, 2, 100}, 1), 1.0);
  // bots == f: no discard.
  EXPECT_DOUBLE_EQ(core::trimmed_midpoint({0, 4}, 0), 2.0);
  // Unsorted input is sorted first.
  EXPECT_DOUBLE_EQ(core::trimmed_midpoint({100, 2, -100, 0, 1}, 2), 1.0);

  // bots > f (outside contract): APA clamps f − b to 0 and discards
  // nothing. Two silent dealers against f = 1 leave {1, 3, 5}.
  const std::uint32_t n = 5;
  crypto::Pki pki(n, crypto::Pki::Kind::kSymbolic, 1);
  const std::vector<bool> mask = faulty_mask(n, 2);
  const auto result = run_apa(n, /*f=*/1, mask, {1.0, 3.0, 5.0, 0.0, 0.0},
                              /*iterations=*/1, nullptr, pki);
  for (NodeId v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(result.outputs[v], 3.0);
}

TEST(Apa, SelectMidpointEmptyThrows) {
  EXPECT_THROW((void)core::trimmed_midpoint({}, 0), util::CheckFailure);
}

TEST(Apa, SelectMidpointOverDiscardThrows) {
  EXPECT_THROW((void)core::trimmed_midpoint({1.0, 2.0}, 1),
               util::CheckFailure);
}

TEST(Apa, FaultFreeOneIterationHalvesRange) {
  const std::uint32_t n = 5;
  crypto::Pki pki(n, crypto::Pki::Kind::kSymbolic, 1);
  const std::vector<bool> mask(n, false);
  const std::vector<double> inputs = {0.0, 1.0, 4.0, 7.0, 8.0};
  const auto result =
      run_apa(n, /*f=*/2, mask, inputs, /*iterations=*/1, nullptr, pki);
  // Fault-free with f=2: every node discards the 2 lowest/highest of the
  // same 5 values, landing on the same midpoint: range goes to 0.
  for (NodeId v = 1; v < n; ++v)
    EXPECT_DOUBLE_EQ(result.outputs[v], result.outputs[0]);
  EXPECT_DOUBLE_EQ(result.outputs[0], 4.0);
}

struct ApaCase {
  std::uint32_t n;
  std::uint32_t f;
  int adversary;  // index into the adversary list below
  std::uint64_t seed;
};

class ApaAdversarial : public ::testing::TestWithParam<ApaCase> {
 protected:
  static std::unique_ptr<RushingAdversary> make_adversary(
      int which, std::vector<NodeId> ids, std::uint32_t n, crypto::Pki& pki,
      std::uint64_t seed) {
    switch (which) {
      case 0: return std::make_unique<SilentSyncAdversary>(ids, n, pki);
      case 1: return std::make_unique<EquivocatorSyncAdversary>(ids, n, pki);
      case 2:
        return std::make_unique<ExtremePullSyncAdversary>(ids, n, pki, 50.0);
      case 3: return std::make_unique<PartialSyncAdversary>(ids, n, pki);
      case 4:
        return std::make_unique<RandomSyncAdversary>(ids, n, pki, seed);
    }
    CS_CHECK(false);
    return nullptr;
  }
};

TEST_P(ApaAdversarial, ConsistencyAndValidityPerIteration) {
  const ApaCase c = GetParam();
  crypto::Pki pki(c.n, crypto::Pki::Kind::kSymbolic, c.seed);
  const auto mask = faulty_mask(c.n, c.f);

  // Honest inputs spread over [0, 8] deterministically from the seed.
  util::Rng rng(c.seed);
  std::vector<double> inputs(c.n, 0.0);
  for (NodeId v = 0; v < c.n; ++v)
    if (!mask[v]) inputs[v] = rng.uniform(0.0, 8.0);

  const HonestRange before = honest_range(inputs, mask);
  const double ell = before.hi - before.lo;

  auto adversary =
      make_adversary(c.adversary, faulty_ids(mask), c.n, pki, c.seed);
  const std::uint32_t iterations = 4;
  const auto result =
      run_apa(c.n, c.f, mask, inputs, iterations, adversary.get(), pki);

  // Validity (Definition 1): every honest output stays within the honest
  // input range, in every iteration.
  for (NodeId v = 0; v < c.n; ++v) {
    if (mask[v]) continue;
    for (double value : result.trajectories[v]) {
      EXPECT_GE(value, before.lo - 1e-9);
      EXPECT_LE(value, before.hi + 1e-9);
    }
  }

  // ε-consistency (Theorem 9 iterated): range halves per iteration.
  std::vector<double> range_per_iter;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    double lo = 1e300, hi = -1e300;
    for (NodeId v = 0; v < c.n; ++v) {
      if (mask[v]) continue;
      lo = std::min(lo, result.trajectories[v][i]);
      hi = std::max(hi, result.trajectories[v][i]);
    }
    range_per_iter.push_back(hi - lo);
  }
  double allowed = ell;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    allowed /= 2.0;
    EXPECT_LE(range_per_iter[i], allowed + 1e-9)
        << "iteration " << i << " with adversary " << c.adversary;
  }
}

std::vector<ApaCase> make_cases() {
  std::vector<ApaCase> cases;
  std::set<std::tuple<std::uint32_t, std::uint32_t, int>> seen;
  for (std::uint32_t n : {3u, 4u, 5u, 7u, 9u, 12u}) {
    const std::uint32_t f_max = (n + 1) / 2 - 1;
    for (std::uint32_t f : {0u, f_max / 2, f_max}) {
      if (f == 0 && n > 4) continue;  // keep the grid lean
      for (int adversary = 0; adversary < 5; ++adversary) {
        if (f == 0 && adversary != 0) continue;
        if (!seen.insert({n, f, adversary}).second) continue;
        cases.push_back(ApaCase{n, f, adversary, 1000u + n * 17 + f});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ApaAdversarial, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<ApaCase>& info) {
      const auto& c = info.param;
      return "n" + std::to_string(c.n) + "_f" + std::to_string(c.f) + "_adv" +
             std::to_string(c.adversary);
    });

TEST(Apa, Corollary2RoundCount) {
  // ε-agreement needs ⌈log2(ℓ/ε)⌉ iterations = 2⌈log2(ℓ/ε)⌉ rounds.
  const std::uint32_t n = 7;
  const std::uint32_t f = 3;
  crypto::Pki pki(n, crypto::Pki::Kind::kSymbolic, 5);
  const std::vector<bool> mask = faulty_mask(n, f);
  std::vector<double> inputs(n, 0.0);
  for (NodeId v = 0; v < n - f; ++v) inputs[v] = static_cast<double>(v);
  const double ell = static_cast<double>(n - f - 1);
  const double eps = 0.05;
  const auto iterations =
      static_cast<std::uint32_t>(std::ceil(std::log2(ell / eps)));

  EquivocatorSyncAdversary adversary(faulty_ids(mask), n, pki);
  const auto result = run_apa(n, f, mask, inputs, iterations, &adversary, pki);

  double lo = 1e300, hi = -1e300;
  for (NodeId v = 0; v < n; ++v) {
    if (mask[v]) continue;
    lo = std::min(lo, result.outputs[v]);
    hi = std::max(hi, result.outputs[v]);
  }
  EXPECT_LE(hi - lo, eps + 1e-9);
}

TEST(Apa, RejectsExcessiveF) {
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  EXPECT_THROW(ApaNode(0, 4, 2, pki, 0.0, 1), util::CheckFailure);
}

TEST(Apa, BotCountsVisible) {
  const std::uint32_t n = 4;
  crypto::Pki pki(n, crypto::Pki::Kind::kSymbolic, 2);
  const auto mask = faulty_mask(n, 1);
  SilentSyncAdversary adversary(faulty_ids(mask), n, pki);
  SyncNetwork net(n, mask, pki);
  std::vector<std::unique_ptr<ApaNode>> nodes(n);
  for (NodeId v = 0; v < n; ++v) {
    if (mask[v]) continue;
    nodes[v] = std::make_unique<ApaNode>(v, n, 1, pki, 1.0, 1);
    net.set_protocol(v, nodes[v].get());
  }
  net.set_adversary(&adversary);
  net.run_rounds(2);
  for (NodeId v = 0; v < n; ++v) {
    if (mask[v]) continue;
    ASSERT_EQ(nodes[v]->bot_counts().size(), 1u);
    EXPECT_EQ(nodes[v]->bot_counts()[0], 1u);  // the silent faulty dealer
  }
}

}  // namespace
}  // namespace crusader::sync
