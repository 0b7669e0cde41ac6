// Theorem 5: the executable three-execution construction realizes skew
// ≥ 2ũ/3 against every protocol in the repository.

#include "lowerbound/theorem5.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "lowerbound/composite.hpp"

namespace crusader::lowerbound {
namespace {

using baselines::ProtocolKind;

sim::ModelParams lb_model(double u_tilde) {
  sim::ModelParams m;
  m.n = 3;
  m.f = 1;
  m.d = 1.0;
  m.u = 0.05;
  m.u_tilde = u_tilde;
  m.vartheta = 1.05;
  return m;
}

struct LbCase {
  LbCase(ProtocolKind p, double ut) : protocol(p), u_tilde(ut) {}
  ProtocolKind protocol;
  // GoogleTest prints this parameter as its raw bytes, and that printout is
  // part of the test name ctest registers. Filling the alignment gap with an
  // explicit zero keeps the name identical from build to build.
  std::uint32_t gap = 0;
  double u_tilde;
};
static_assert(sizeof(LbCase) == 16, "LbCase must have no hidden padding");

class LowerBound : public ::testing::TestWithParam<LbCase> {};

TEST_P(LowerBound, RealizedSkewMeetsBound) {
  const auto c = GetParam();
  const auto report = run_theorem5(c.protocol, lb_model(c.u_tilde), 40);
  ASSERT_GT(report.rounds, report.settled_round)
      << "not enough rounds past the clock ramp";
  EXPECT_NEAR(report.bound, 2.0 * c.u_tilde / 3.0, 1e-12);
  EXPECT_TRUE(report.bound_holds)
      << baselines::to_string(c.protocol) << ": realized " << report.max_skew
      << " < bound " << report.bound;
  // The telescoped per-round sum of the three execution skews is ≥ 2ũ.
  EXPECT_GE(report.telescoped_sum, 2.0 * c.u_tilde - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LowerBound,
    ::testing::Values(LbCase{ProtocolKind::kCps, 0.05},
                      LbCase{ProtocolKind::kCps, 0.15},
                      LbCase{ProtocolKind::kCps, 0.30},
                      LbCase{ProtocolKind::kLynchWelch, 0.15},
                      LbCase{ProtocolKind::kSrikanthToueg, 0.15}),
    [](const ::testing::TestParamInfo<LbCase>& info) {
      const auto& c = info.param;
      std::string p = baselines::to_string(c.protocol);
      for (char& ch : p)
        if (ch == '-') ch = '_';
      return p + "_ut" + std::to_string(static_cast<int>(c.u_tilde * 100));
    });

TEST(LowerBound, BoundScalesLinearlyInUtilde) {
  // E[S] ≥ 2ũ/3: realized skew grows with ũ.
  double prev = 0.0;
  for (double ut : {0.06, 0.12, 0.24}) {
    const auto report = run_theorem5(ProtocolKind::kCps, lb_model(ut), 40);
    ASSERT_TRUE(report.bound_holds);
    EXPECT_GT(report.max_skew, prev);
    prev = report.max_skew;
  }
}

TEST(LowerBound, UpperAndLowerBoundsAreConsistent) {
  // With ũ = u, the realized adversarial skew must also respect the upper
  // bound S of Theorem 17: 2u/3 ≤ skew ≤ S.
  const auto model = lb_model(0.05);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  ASSERT_TRUE(setup.feasible);
  const auto report = run_theorem5(ProtocolKind::kCps, model, 40);
  ASSERT_TRUE(report.bound_holds);
  EXPECT_LE(report.max_skew, setup.cps.S + 1e-9);
}

TEST(TripleExecution, TransferFunctionsAreCyclic) {
  // Message local-time transfer: j = k+1 uses fast(L+d), j = k+2 uses
  // fast⁻¹(L)+d. Check via the public fast()/fast_inv() on a small config.
  TripleConfig config;
  config.model = lb_model(0.15);
  config.target_rounds = 1;
  TripleExecution triple(config, baselines::make_protocol_factory(
                                     baselines::make_setup(
                                         ProtocolKind::kCps, config.model)));
  const double t_star =
      2.0 * config.model.u_tilde / (3.0 * (config.model.vartheta - 1.0));
  // Ramp phase: fast(t) = ϑ t.
  EXPECT_NEAR(triple.fast(t_star / 2), config.model.vartheta * t_star / 2,
              1e-12);
  // Post-ramp: fast(t) = t + 2ũ/3.
  EXPECT_NEAR(triple.fast(t_star + 3.0),
              t_star + 3.0 + 2.0 * config.model.u_tilde / 3.0, 1e-9);
  EXPECT_NEAR(triple.fast_inv(triple.fast(1.7)), 1.7, 1e-9);
}

TEST(TripleExecution, RequiresThreeNodes) {
  TripleConfig config;
  config.model = lb_model(0.15);
  config.model.n = 4;
  EXPECT_THROW(TripleExecution(config,
                               [](NodeId) -> std::unique_ptr<sim::PulseNode> {
                                 return nullptr;
                               }),
               util::CheckFailure);
}

TEST(LowerBound, PerfectInitialSynchronyStillForcesSkew) {
  // The theorem's strength: even with H_v(0) = 0 for all nodes (which the
  // co-simulator enforces) the adversary builds up 2ũ/3 skew.
  const auto report =
      run_theorem5(ProtocolKind::kCps, lb_model(0.2), /*target_rounds=*/60);
  ASSERT_TRUE(report.bound_holds);
  EXPECT_GE(report.max_skew, 2.0 * 0.2 / 3.0 - 1e-6);
}

/// A *randomized* pulse protocol: wraps CPS and delays every outgoing
/// broadcast by a seeded random jitter (legal behaviour — it is simply a
/// different, randomized protocol). Used to check the randomized part of
/// Theorem 5: the adversary's strategy is fixed upfront, independent of the
/// nodes' coins (Yao), and the expected skew still meets the bound.
class JitteredNode final : public sim::PulseNode {
 public:
  JitteredNode(std::unique_ptr<sim::PulseNode> inner, std::uint64_t seed,
               double max_jitter)
      : inner_(std::move(inner)), rng_(seed), max_jitter_(max_jitter) {}

  void on_start(sim::Env& env) override {
    proxy_.bind(&env, this);
    inner_->on_start(proxy_);
  }
  void on_message(sim::Env& env, const sim::Message& m) override {
    proxy_.bind(&env, this);
    inner_->on_message(proxy_, m);
  }
  void on_timer(sim::Env& env, std::uint64_t tag) override {
    proxy_.bind(&env, this);
    if (tag & kJitterBit) {
      env.broadcast(pending_.at(tag & ~kJitterBit));
      return;
    }
    inner_->on_timer(proxy_, tag);
  }

 private:
  static constexpr std::uint64_t kJitterBit = 1ULL << 62;

  class Proxy final : public sim::Env {
   public:
    void bind(sim::Env* env, JitteredNode* owner) {
      env_ = env;
      owner_ = owner;
    }
    [[nodiscard]] NodeId id() const override { return env_->id(); }
    [[nodiscard]] const sim::ModelParams& model() const override {
      return env_->model();
    }
    [[nodiscard]] double local_now() const override {
      return env_->local_now();
    }
    void send(NodeId to, sim::Message m) override { env_->send(to, std::move(m)); }
    void broadcast(const sim::Message& m) override {
      // Randomize: hold the broadcast for a random local-time jitter.
      const double jitter = owner_->rng_.uniform(0.0, owner_->max_jitter_);
      const std::uint64_t idx = owner_->pending_.size();
      owner_->pending_.push_back(m);
      env_->schedule_at_local(env_->local_now() + jitter, kJitterBit | idx);
    }
    sim::TimerId schedule_at_local(double t, std::uint64_t tag) override {
      return env_->schedule_at_local(t, tag);
    }
    void cancel_timer(sim::TimerId id) override { env_->cancel_timer(id); }
    void pulse() override { env_->pulse(); }
    [[nodiscard]] crypto::Signature sign(
        const crypto::SignedPayload& p) override {
      return env_->sign(p);
    }
    [[nodiscard]] bool verify(const crypto::Signature& s,
                              const crypto::SignedPayload& p) const override {
      return env_->verify(s, p);
    }

   private:
    sim::Env* env_ = nullptr;
    JitteredNode* owner_ = nullptr;
  };

  std::unique_ptr<sim::PulseNode> inner_;
  Proxy proxy_;
  util::Rng rng_;
  double max_jitter_;
  std::vector<sim::Message> pending_;
};

TEST(LowerBound, GeneralNReductionViaGroupSimulation) {
  // Theorem 5's proof for n > 3: partition into three groups; each of the
  // three construction nodes simulates one group's protocol behaviour and
  // outputs the pulses of its first member. Here: n = 9 CPS nodes in three
  // composites of three.
  const std::uint32_t n_total = 9;
  const double u_tilde = 0.2;

  sim::ModelParams inner_model;
  inner_model.n = n_total;
  inner_model.f = sim::ModelParams::max_faults_signed(n_total);
  inner_model.d = 1.0;
  inner_model.u = 0.05;
  inner_model.u_tilde = u_tilde;
  inner_model.vartheta = 1.05;  // ≤ d/(d−u): composite intra-delays legal

  const auto params = core::derive_cps_params(inner_model);
  ASSERT_TRUE(params.feasible);

  crypto::Pki pki(n_total, crypto::Pki::Kind::kSymbolic, 0xabcdULL);

  TripleConfig config;
  config.model = lb_model(u_tilde);  // outer 3-node construction
  config.target_rounds = 30;
  config.master_horizon = 1e5;

  auto factory = [&](NodeId view) -> std::unique_ptr<sim::PulseNode> {
    std::vector<NodeId> group = {view * 3, view * 3 + 1, view * 3 + 2};
    auto inner_factory = [&params](NodeId) -> std::unique_ptr<sim::PulseNode> {
      core::CpsConfig cps;
      cps.params = params;
      return std::make_unique<core::CpsNode>(cps);
    };
    return std::make_unique<CompositeNode>(group, inner_model, &pki,
                                           inner_factory);
  };

  TripleExecution triple(config, factory);
  const auto result = triple.run();
  ASSERT_GT(result.rounds, result.first_settled_round);
  EXPECT_GE(result.max_skew, 2.0 * u_tilde / 3.0 - 1e-6)
      << "the general-n reduction must inherit the 3-node bound";
  EXPECT_GE(result.telescoped_sum, 2.0 * u_tilde - 1e-6);
}

TEST(LowerBound, RandomizedProtocolStillBound) {
  // Average over independent coin seeds; the construction (which never
  // adapts to the coins) must force E[skew] ≥ 2ũ/3 − o(1). With our
  // symmetric construction each individual run already meets the bound.
  const auto model = lb_model(0.2);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  ASSERT_TRUE(setup.feasible);

  double total = 0.0;
  const int trials = 5;
  for (int trial = 0; trial < trials; ++trial) {
    TripleConfig config;
    config.model = model;
    config.target_rounds = 40;
    config.master_horizon = 1e5;
    auto factory = [&, trial](NodeId v) -> std::unique_ptr<sim::PulseNode> {
      core::CpsConfig cps;
      cps.params = setup.cps;
      return std::make_unique<JitteredNode>(
          std::make_unique<core::CpsNode>(cps),
          0xc0ffee + 97ull * trial + v, /*max_jitter=*/0.05);
    };
    TripleExecution triple(config, factory);
    const auto result = triple.run();
    ASSERT_GT(result.rounds, result.first_settled_round);
    total += result.max_skew;
  }
  const double mean = total / trials;
  EXPECT_GE(mean, 2.0 * 0.2 / 3.0 - 1e-6)
      << "expected skew under randomized protocol below the bound";
}

}  // namespace
}  // namespace crusader::lowerbound
