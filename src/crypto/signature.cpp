#include "crypto/signature.hpp"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "crypto/hmac.hpp"
#include "util/check.hpp"

namespace crusader::crypto {

namespace {

std::uint64_t digest_prefix(const Digest& d) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | d[static_cast<std::size_t>(i)];
  return out;
}

/// `prefix` followed by `v` in decimal. Pulse and ready contexts stay within
/// the small-string buffer, so building one allocates nothing.
std::string decimal(std::string_view prefix, std::uint64_t v) {
  std::string out(prefix);
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
  return out;
}

}  // namespace

std::uint64_t SignedPayload::hash() const noexcept {
  return digest_prefix(Sha256::hash(context));
}

SignedPayload make_pulse_payload(Round round) {
  return SignedPayload{decimal("tcb-pulse|r=", round)};
}

SignedPayload make_value_payload(Round round, NodeId dealer, double value) {
  // Hexfloat keeps the encoding canonical and lossless: %a prints the exact
  // bit pattern (no rounding, no shortest-form search), and this process
  // never touches the C locale, so identical bits sign identical payloads.
  char hex[48];
  const int len = std::snprintf(hex, sizeof hex, "|v=%a", value);  // lint:allow(float-format)
  std::string context = decimal("cb-value|r=", round);
  context += decimal("|dealer=", dealer);
  context.append(hex, static_cast<std::size_t>(len));
  return SignedPayload{std::move(context)};
}

SignedPayload make_ready_payload(Round round) {
  return SignedPayload{decimal("st-ready|r=", round)};
}

std::uint64_t Signature::key() const noexcept {
  std::uint64_t k = util::mix64(payload_hash);
  k ^= util::mix64((static_cast<std::uint64_t>(signer) << 32) ^ nonce);
  k ^= digest_prefix(tag);
  return util::mix64(k);
}

// --- SymbolicScheme ---------------------------------------------------------

Signature SymbolicScheme::sign(NodeId signer, const SignedPayload& payload,
                               std::uint64_t nonce) {
  Signature sig;
  sig.signer = signer;
  auto [memo, fresh] = digests_.try_emplace(payload.context);
  if (fresh) memo->second = payload.hash();
  sig.payload_hash = memo->second;
  sig.nonce = nonce;
  // Tag derived (not secret) — validity comes from the registry, so a
  // fabricated Signature with a correct-looking tag still fails `verify`
  // unless it was actually issued.
  const std::uint64_t t =
      util::mix64(sig.payload_hash ^ (static_cast<std::uint64_t>(signer) * 0x100000001b3ULL) ^ nonce);
  for (int i = 0; i < 8; ++i)
    sig.tag[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(t >> (8 * i));
  issued_.insert(sig.key());
  return sig;
}

bool SymbolicScheme::verify(const Signature& sig,
                            const SignedPayload& payload) const {
  const auto memo = digests_.find(payload.context);
  const std::uint64_t digest =
      memo != digests_.end() ? memo->second : payload.hash();
  if (sig.payload_hash != digest) return false;
  return issued_.contains(sig.key());
}

// --- HmacScheme -------------------------------------------------------------

HmacScheme::HmacScheme(std::uint32_t n, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xc3a5c85c97cb3127ULL);
  keys_.resize(n);
  for (auto& key : keys_) {
    for (std::size_t i = 0; i < key.size(); i += 8) {
      const std::uint64_t word = rng.next_u64();
      for (std::size_t b = 0; b < 8; ++b)
        key[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

Digest HmacScheme::compute_tag(NodeId signer, const SignedPayload& payload,
                               std::uint64_t nonce) const {
  CS_CHECK_MSG(signer < keys_.size(), "unknown signer " << signer);
  std::string msg = payload.context;
  msg.push_back('|');
  for (int i = 0; i < 8; ++i)
    msg.push_back(static_cast<char>((nonce >> (8 * i)) & 0xff));
  const auto& key = keys_[signer];
  return hmac_sha256(std::span<const std::uint8_t>(key.data(), key.size()),
                     std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(msg.data()),
                         msg.size()));
}

Signature HmacScheme::sign(NodeId signer, const SignedPayload& payload,
                           std::uint64_t nonce) {
  Signature sig;
  sig.signer = signer;
  sig.payload_hash = payload.hash();
  sig.nonce = nonce;
  sig.tag = compute_tag(signer, payload, nonce);
  return sig;
}

bool HmacScheme::verify(const Signature& sig,
                        const SignedPayload& payload) const {
  if (sig.signer >= keys_.size()) return false;
  if (sig.payload_hash != payload.hash()) return false;
  const Digest expected = compute_tag(sig.signer, payload, sig.nonce);
  // Constant-time comparison is irrelevant in a simulator, but cheap.
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < expected.size(); ++i)
    acc = static_cast<std::uint8_t>(acc | (expected[i] ^ sig.tag[i]));
  return acc == 0;
}

// --- Pki --------------------------------------------------------------------

Pki::Pki(std::uint32_t n, Kind kind, std::uint64_t seed) : n_(n) {
  switch (kind) {
    case Kind::kSymbolic:
    case Kind::kAbstract:
      scheme_ = std::make_unique<SymbolicScheme>();
      break;
    case Kind::kHmac:
      scheme_ = std::make_unique<HmacScheme>(n, seed);
      break;
  }
}

Signature Pki::sign(NodeId signer, const SignedPayload& payload,
                    std::uint64_t nonce) {
  CS_CHECK_MSG(signer < n_, "signer " << signer << " out of range");
  ++signs_;
  return scheme_->sign(signer, payload, nonce);
}

bool Pki::verify(const Signature& sig, const SignedPayload& payload) const {
  ++verifies_;
  return scheme_->verify(sig, payload);
}

// --- KnowledgeTracker -------------------------------------------------------

void KnowledgeTracker::learn(const Signature& sig) { known_.insert(sig.key()); }

bool KnowledgeTracker::knows(const Signature& sig) const {
  return known_.contains(sig.key());
}

}  // namespace crusader::crypto
