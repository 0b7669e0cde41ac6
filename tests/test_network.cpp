#include "sim/network.hpp"

#include <cstddef>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {
namespace {

ModelParams test_model() {
  ModelParams m;
  m.n = 4;
  m.f = 1;
  m.d = 1.0;
  m.u = 0.1;
  m.u_tilde = 0.3;
  m.vartheta = 1.05;
  return m;
}

struct Fixture {
  Engine engine;
  std::vector<std::pair<NodeId, Message>> delivered;

  std::unique_ptr<Network> make(DelayKind kind,
                                std::vector<bool> faulty = {false, false,
                                                            false, true},
                                Enforcement enforcement = Enforcement::kThrow) {
    auto net = std::make_unique<Network>(engine, test_model(), faulty,
                                         make_delay_policy(kind, 4),
                                         util::Rng(1), enforcement);
    net->set_deliver([this](NodeId to, const Message& m) {
      delivered.emplace_back(to, m);
    });
    return net;
  }
};

TEST(Network, HonestDelayWithinBounds) {
  Fixture fx;
  auto net = fx.make(DelayKind::kRandom);
  for (int i = 0; i < 50; ++i) net->send(0, 1, Message{});
  // All deliveries happen in [d-u, d] = [0.9, 1.0].
  fx.engine.run_until(0.9 - 1e-9);
  EXPECT_TRUE(fx.delivered.empty());
  fx.engine.run_until(1.0 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 50u);
}

TEST(Network, FaultyLinkUsesUtilde) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMin);
  net->send(3, 0, Message{});  // faulty sender: lo = d - u_tilde = 0.7
  fx.engine.run_until(0.7 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, MinDelayHonest) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMin);
  net->send(0, 1, Message{});
  fx.engine.run_until(0.9 - 1e-6);
  EXPECT_TRUE(fx.delivered.empty());
  fx.engine.run_until(0.9 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, MaxDelay) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  net->send(0, 1, Message{});
  fx.engine.run_until(1.0 - 1e-6);
  EXPECT_TRUE(fx.delivered.empty());
  fx.engine.run_until(1.0 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, SplitDelayByRecipient) {
  Fixture fx;
  auto net = fx.make(DelayKind::kSplit);
  net->send(0, 1, Message{});  // id 1 < n/2 → min delay
  net->send(0, 2, Message{});  // id 2 ≥ n/2 → max delay
  fx.engine.run_until(0.95);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(fx.delivered[0].first, 1u);
  fx.engine.run_until(1.1);
  EXPECT_EQ(fx.delivered.size(), 2u);
}

TEST(Network, SelfSendRejected) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_THROW(net->send(1, 1, Message{}), util::CheckFailure);
}

/// Runs `call` and expects a CheckFailure whose message names `what`.
template <typename F>
void expect_check_naming(F call, const std::string& what) {
  try {
    call();
    ADD_FAILURE() << "no CheckFailure for " << what;
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Network, OutOfRangeRecipientRejected) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  expect_check_naming([&] { net->send(0, 99, Message{}); }, "recipient 99");
  expect_check_naming([&] { net->send_with_delay(3, 99, Message{}, 1.0); },
                      "recipient 99");
  EXPECT_EQ(net->stats().messages, 0u);
}

TEST(Network, OutOfRangeSenderRejected) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  expect_check_naming([&] { net->send(99, 0, Message{}); }, "sender 99");
  expect_check_naming([&] { net->send_with_delay(99, 0, Message{}, 1.0); },
                      "sender 99");
  EXPECT_EQ(net->stats().messages, 0u);
}

TEST(Network, OutOfRangeBroadcastSenderRejected) {
  Fixture fx;
  for (const bool batch : {true, false}) {
    auto net = fx.make(DelayKind::kMax);
    net->set_batch(batch);
    expect_check_naming([&] { net->broadcast(99, Message{}); }, "sender 99");
    EXPECT_EQ(net->stats().messages, 0u);
  }
}

TEST(Network, ByzantineExplicitDelayHonored) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  net->send_with_delay(3, 0, Message{}, 0.75);
  fx.engine.run_until(0.75 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, ByzantineDelayOutOfBoundsThrows) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_THROW(net->send_with_delay(3, 0, Message{}, 0.5),
               util::ModelViolation);
  EXPECT_THROW(net->send_with_delay(3, 0, Message{}, 1.5),
               util::ModelViolation);
}

TEST(Network, ByzantineDelayFromHonestRejected) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_THROW(net->send_with_delay(0, 1, Message{}, 1.0),
               util::CheckFailure);
}

TEST(Network, KnowledgeRuleBlocksUnseenHonestSignature) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));  // honest node 0's sig
  EXPECT_THROW(net->send(3, 1, m), util::ModelViolation);
}

TEST(Network, KnowledgeRuleAllowsAfterReceipt) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));
  net->send(0, 3, m);          // deliver to the faulty node first
  fx.engine.run_until(2.0);    // delivery learns the signature
  net->send(3, 1, m);          // now the replay is legal
  fx.engine.run_until(4.0);
  EXPECT_EQ(fx.delivered.size(), 2u);
}

TEST(Network, KnowledgeRuleIgnoresFaultySigners) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(3, crypto::make_pulse_payload(1));  // its own key
  net->send(3, 1, m);  // no throw
  fx.engine.run_until(2.0);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, RecordModeCollectsViolations) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax, {false, false, false, true},
                     Enforcement::kRecord);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));
  net->send(3, 1, m);  // violation recorded, message still delivered
  EXPECT_EQ(net->violations().size(), 1u);
  fx.engine.run_until(2.0);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, StatsCountMessagesAndSignatures) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message plain;
  plain.kind = MsgKind::kLwPulse;
  net->send(0, 1, plain);
  Message with_sig;
  with_sig.kind = MsgKind::kTcbSig;
  with_sig.sig = pki.sign(0, crypto::make_pulse_payload(1));
  net->send(0, 1, with_sig);
  EXPECT_EQ(net->stats().messages, 2u);
  EXPECT_EQ(net->stats().signatures_carried, 1u);
  EXPECT_EQ(net->stats().by_kind[static_cast<std::size_t>(MsgKind::kLwPulse)],
            1u);
}

TEST(Network, MinDelayQuery) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_DOUBLE_EQ(net->min_delay(0, 1), 0.9);   // honest-honest
  EXPECT_DOUBLE_EQ(net->min_delay(0, 3), 0.7);   // faulty endpoint
  EXPECT_DOUBLE_EQ(net->min_delay(3, 0), 0.7);
}

TEST(Network, SenderStamped) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  net->send(2, 1, Message{});
  fx.engine.run_until(2.0);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(fx.delivered[0].second.sender, 2u);
}

}  // namespace
}  // namespace crusader::sim
