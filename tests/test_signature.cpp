#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace crusader::crypto {
namespace {

class SignatureSchemes : public ::testing::TestWithParam<Pki::Kind> {};

TEST_P(SignatureSchemes, SignVerifyRoundTrip) {
  Pki pki(4, GetParam(), 1);
  const auto payload = make_pulse_payload(7);
  const Signature sig = pki.sign(2, payload);
  EXPECT_TRUE(pki.verify(sig, payload));
  EXPECT_EQ(sig.signer, 2u);
}

TEST_P(SignatureSchemes, RejectsWrongPayload) {
  Pki pki(4, GetParam(), 1);
  const Signature sig = pki.sign(2, make_pulse_payload(7));
  EXPECT_FALSE(pki.verify(sig, make_pulse_payload(8)));
}

TEST_P(SignatureSchemes, RejectsTamperedSignerClaim) {
  Pki pki(4, GetParam(), 1);
  const auto payload = make_pulse_payload(7);
  Signature sig = pki.sign(2, payload);
  sig.signer = 3;  // claim a different signer without its key
  EXPECT_FALSE(pki.verify(sig, payload));
}

TEST_P(SignatureSchemes, RejectsTamperedTag) {
  Pki pki(4, GetParam(), 1);
  const auto payload = make_pulse_payload(7);
  Signature sig = pki.sign(2, payload);
  sig.tag[0] ^= 0x01;
  EXPECT_FALSE(pki.verify(sig, payload));
}

TEST_P(SignatureSchemes, RejectsFabricatedSignature) {
  Pki pki(4, GetParam(), 1);
  const auto payload = make_pulse_payload(7);
  Signature forged;
  forged.signer = 1;
  forged.payload_hash = payload.hash();
  // tag left default — a forger without the key cannot do better than guess.
  EXPECT_FALSE(pki.verify(forged, payload));
}

TEST_P(SignatureSchemes, NoncesYieldDistinctValidSignatures) {
  // Models randomized signing by a Byzantine signer: both are valid, but
  // they are different bit strings.
  Pki pki(4, GetParam(), 1);
  const auto payload = make_pulse_payload(3);
  const Signature a = pki.sign(1, payload, 0);
  const Signature b = pki.sign(1, payload, 1);
  EXPECT_TRUE(pki.verify(a, payload));
  EXPECT_TRUE(pki.verify(b, payload));
  EXPECT_NE(a.key(), b.key());
}

TEST_P(SignatureSchemes, CountsOperations) {
  Pki pki(2, GetParam(), 1);
  const auto payload = make_ready_payload(1);
  const Signature sig = pki.sign(0, payload);
  (void)pki.verify(sig, payload);
  (void)pki.verify(sig, payload);
  EXPECT_EQ(pki.sign_count(), 1u);
  EXPECT_EQ(pki.verify_count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SignatureSchemes,
                         ::testing::Values(Pki::Kind::kSymbolic,
                                           Pki::Kind::kHmac,
                                           Pki::Kind::kAbstract),
                         [](const auto& info) {
                           switch (info.param) {
                             case Pki::Kind::kSymbolic: return "Symbolic";
                             case Pki::Kind::kHmac: return "Hmac";
                             case Pki::Kind::kAbstract: return "Abstract";
                           }
                           return "Unknown";
                         });

// Context bytes and SHA-256 prefixes of the payload builders. Signatures,
// registry keys and every digest downstream depend on these exact bytes, so
// any rewrite of a builder must reproduce them.
struct PayloadPin {
  SignedPayload payload;
  const char* context;
  std::uint64_t hash;
};

TEST(SignedPayload, BuilderBytesArePinned) {
  constexpr Round kMax = std::numeric_limits<Round>::max();
  const PayloadPin pins[] = {
      {make_pulse_payload(0), "tcb-pulse|r=0", 0xcee4b01001983ed8ULL},
      {make_pulse_payload(1), "tcb-pulse|r=1", 0x69ad994d1468eff9ULL},
      {make_pulse_payload(10), "tcb-pulse|r=10", 0x4c563d059a21bd41ULL},
      {make_pulse_payload(kMax), "tcb-pulse|r=18446744073709551615",
       0x533143f21a8abd86ULL},
      {make_ready_payload(0), "st-ready|r=0", 0x6e59fb41d05ac045ULL},
      {make_ready_payload(1), "st-ready|r=1", 0x3e386c46953e1561ULL},
      {make_ready_payload(10), "st-ready|r=10", 0xe738d065914e8138ULL},
      {make_ready_payload(kMax), "st-ready|r=18446744073709551615",
       0x78ec2b72787ad7b5ULL},
      {make_value_payload(7, 0, 0.5), "cb-value|r=7|dealer=0|v=0x1p-1",
       0x755b5ea492c1626eULL},
      {make_value_payload(7, 0, -1.25), "cb-value|r=7|dealer=0|v=-0x1.4p+0",
       0xde05fceb2ea7bcd9ULL},
      {make_value_payload(7, 0, -0.0), "cb-value|r=7|dealer=0|v=-0x0p+0",
       0x2f399cdedc495131ULL},
      {make_value_payload(7, 0, 1e-300),
       "cb-value|r=7|dealer=0|v=0x1.56e1fc2f8f359p-997", 0xe242d1837d5a2d8cULL},
      {make_value_payload(7, 30, 0.5), "cb-value|r=7|dealer=30|v=0x1p-1",
       0xdc66edfb1ecc72b6ULL},
      {make_value_payload(7, 30, -1.25), "cb-value|r=7|dealer=30|v=-0x1.4p+0",
       0xcec977cfb3528a71ULL},
      {make_value_payload(7, 30, -0.0), "cb-value|r=7|dealer=30|v=-0x0p+0",
       0xf78ee5d90fdd733eULL},
      {make_value_payload(7, 30, 1e-300),
       "cb-value|r=7|dealer=30|v=0x1.56e1fc2f8f359p-997",
       0xef860123ed2cc3caULL},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(pin.payload.context, pin.context);
    EXPECT_EQ(pin.payload.hash(), pin.hash) << pin.context;
  }
}

// The symbolic scheme memoizes each signed context's digest; these pin that
// the memo never turns into a forgery path.
TEST(SymbolicSchemeMemo, SignatureOnOtherMemoizedPayloadIsRejected) {
  SymbolicScheme scheme;
  const auto a = make_pulse_payload(1);
  const auto b = make_pulse_payload(2);
  const Signature on_a = scheme.sign(0, a, 0);
  const Signature on_b = scheme.sign(0, b, 0);
  EXPECT_FALSE(scheme.verify(on_a, b));
  EXPECT_FALSE(scheme.verify(on_b, a));
  EXPECT_TRUE(scheme.verify(on_a, a));
}

TEST(SymbolicSchemeMemo, FabricatedSignatureWithMemoizedHashIsRejected) {
  SymbolicScheme scheme;
  const auto payload = make_ready_payload(4);
  const Signature honest = scheme.sign(1, payload, 0);
  Signature forged;
  forged.signer = 2;  // never signed this payload
  forged.payload_hash = honest.payload_hash;
  forged.tag = honest.tag;
  EXPECT_FALSE(scheme.verify(forged, payload));
  forged.signer = honest.signer;
  forged.nonce = 1;  // a nonce the signer never used
  EXPECT_FALSE(scheme.verify(forged, payload));
}

TEST(SymbolicSchemeMemo, UnsignedContextIsRejectedAndNotMemoized) {
  SymbolicScheme scheme;
  const Signature sig = scheme.sign(0, make_pulse_payload(1), 0);
  EXPECT_EQ(scheme.memo_size(), 1u);
  const auto unsigned_payload = make_pulse_payload(9);
  Signature claim = sig;
  claim.payload_hash = unsigned_payload.hash();
  EXPECT_FALSE(scheme.verify(claim, unsigned_payload));
  EXPECT_FALSE(scheme.verify(sig, unsigned_payload));
  EXPECT_EQ(scheme.memo_size(), 1u);
}

TEST(SymbolicSchemeMemo, DigestsMatchSha256) {
  SymbolicScheme scheme;
  const auto payload = make_value_payload(3, 5, 0.25);
  const Signature first = scheme.sign(5, payload, 0);
  const Signature again = scheme.sign(6, payload, 0);
  EXPECT_EQ(first.payload_hash, payload.hash());
  EXPECT_EQ(again.payload_hash, payload.hash());
  EXPECT_EQ(scheme.memo_size(), 1u);
}

TEST(PkiKinds, AbstractSignsLikeSymbolic) {
  Pki symbolic(4, Pki::Kind::kSymbolic, 1);
  Pki abstract(4, Pki::Kind::kAbstract, 1);
  const auto payload = make_pulse_payload(7);
  EXPECT_EQ(symbolic.sign(3, payload, 2), abstract.sign(3, payload, 2));
  EXPECT_EQ(abstract.scheme().name(), symbolic.scheme().name());
}

TEST(SignedPayload, DistinctPayloadBuilders) {
  EXPECT_NE(make_pulse_payload(1).hash(), make_pulse_payload(2).hash());
  EXPECT_NE(make_pulse_payload(1).hash(), make_ready_payload(1).hash());
  EXPECT_NE(make_value_payload(1, 0, 0.5).hash(),
            make_value_payload(1, 1, 0.5).hash());
  EXPECT_NE(make_value_payload(1, 0, 0.5).hash(),
            make_value_payload(1, 0, 0.5000001).hash());
  EXPECT_EQ(make_value_payload(2, 3, -1.25).hash(),
            make_value_payload(2, 3, -1.25).hash());
}

TEST(KnowledgeTracker, LearnsAndAnswers) {
  Pki pki(3, Pki::Kind::kSymbolic, 1);
  const auto payload = make_pulse_payload(1);
  const Signature sig = pki.sign(0, payload);
  KnowledgeTracker tracker;
  EXPECT_FALSE(tracker.knows(sig));
  tracker.learn(sig);
  EXPECT_TRUE(tracker.knows(sig));
  EXPECT_EQ(tracker.size(), 1u);
}

TEST(KnowledgeTracker, DistinguishesNonces) {
  Pki pki(3, Pki::Kind::kSymbolic, 1);
  const auto payload = make_pulse_payload(1);
  KnowledgeTracker tracker;
  tracker.learn(pki.sign(0, payload, 0));
  EXPECT_FALSE(tracker.knows(pki.sign(0, payload, 1)));
}

TEST(HmacSchemeDeterminism, SameSeedSameKeys) {
  HmacScheme a(3, 42), b(3, 42);
  const auto payload = make_pulse_payload(5);
  EXPECT_EQ(a.sign(1, payload, 0).tag, b.sign(1, payload, 0).tag);
}

TEST(HmacSchemeDeterminism, DifferentSeedDifferentKeys) {
  HmacScheme a(3, 42), b(3, 43);
  const auto payload = make_pulse_payload(5);
  EXPECT_NE(a.sign(1, payload, 0).tag, b.sign(1, payload, 0).tag);
}

}  // namespace
}  // namespace crusader::crypto
