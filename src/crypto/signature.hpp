#pragma once
// Idealized digital signatures, matching the paper's model (Section 2):
// every node v holds sk_v; signatures are unforgeable and perfectly correct.
//
// Two interchangeable schemes:
//  * HmacScheme     — tag = HMAC-SHA256(sk_signer, payload bytes); the Pki
//                     acts as the verification oracle (it knows all keys).
//                     Computationally real bytes; unforgeable inside the
//                     simulation. This is the Dolev–Yao substitution:
//                     KnowledgeTracker below enforces what the paper's
//                     unforgeability assumption grants the adversary.
//  * SymbolicScheme — a registry of issued signatures; `verify` checks
//                     membership. Fast path for large benchmark sweeps.
//                     Pki::Kind::kAbstract is another spelling of it: the
//                     runner's `abstract` crypto mode is a CSV and key label
//                     that runs this same scheme, so its results equal
//                     kSymbolic's by construction.
//
// The adversary restriction — a faulty node may only emit an honest
// signature after some faulty node received it — is enforced by
// `KnowledgeTracker`, fed by the network layer.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace crusader::crypto {

/// Canonical description of what gets signed. Protocols build the context
/// string with `make_payload`; equality of context strings defines equality
/// of messages for signing purposes.
struct SignedPayload {
  std::string context;

  [[nodiscard]] std::uint64_t hash() const noexcept;
  friend bool operator==(const SignedPayload&, const SignedPayload&) = default;
};

/// Builders for the payloads used by our protocols. Encoding the round `r`
/// (and the dealer where relevant) is what prevents cross-instance replay —
/// see the caption of Figure 2 in the paper.
[[nodiscard]] SignedPayload make_pulse_payload(Round round);
[[nodiscard]] SignedPayload make_value_payload(Round round, NodeId dealer,
                                               double value);
[[nodiscard]] SignedPayload make_ready_payload(Round round);

/// A signature ⟨m⟩_v. Value type; cheap to copy.
struct Signature {
  NodeId signer = kInvalidNode;
  std::uint64_t payload_hash = 0;
  Digest tag{};
  /// Distinguishes multiple signatures a *Byzantine* signer may create on the
  /// same payload (randomized signing). Honest signing always uses nonce 0.
  std::uint64_t nonce = 0;

  /// Stable identity for knowledge tracking and dedup.
  [[nodiscard]] std::uint64_t key() const noexcept;

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Scheme interface. Thread-compatibility: single-threaded use only (the
/// simulator is single-threaded by design).
class SignatureScheme {
 public:
  virtual ~SignatureScheme() = default;

  /// Create ⟨payload⟩_signer. `nonce` must be 0 for honest nodes.
  [[nodiscard]] virtual Signature sign(NodeId signer,
                                       const SignedPayload& payload,
                                       std::uint64_t nonce) = 0;

  /// Verify(pk_signer, sig, payload) per the paper.
  [[nodiscard]] virtual bool verify(const Signature& sig,
                                    const SignedPayload& payload) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Registry-backed symbolic scheme (fast). Each signed context's SHA-256
/// `payload_hash` is memoized by its exact bytes, so a payload verified many
/// times is digested once; verify still compares the full hash and then
/// checks the registry.
class SymbolicScheme final : public SignatureScheme {
 public:
  [[nodiscard]] Signature sign(NodeId signer, const SignedPayload& payload,
                               std::uint64_t nonce) override;
  [[nodiscard]] bool verify(const Signature& sig,
                            const SignedPayload& payload) const override;
  [[nodiscard]] std::string name() const override { return "symbolic"; }

  /// Number of distinct contexts signed so far (the digest memo's size).
  [[nodiscard]] std::size_t memo_size() const noexcept { return digests_.size(); }

 private:
  /// Signed contexts only: verify never inserts, so an unsigned context
  /// cannot grow the memo.
  std::unordered_map<std::string, std::uint64_t> digests_;
  std::unordered_set<std::uint64_t> issued_;
};

/// HMAC-SHA256-backed scheme with per-node 32-byte secret keys.
class HmacScheme final : public SignatureScheme {
 public:
  /// Keys for nodes [0, n) are derived deterministically from `seed`.
  HmacScheme(std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] Signature sign(NodeId signer, const SignedPayload& payload,
                               std::uint64_t nonce) override;
  [[nodiscard]] bool verify(const Signature& sig,
                            const SignedPayload& payload) const override;
  [[nodiscard]] std::string name() const override { return "hmac-sha256"; }

 private:
  [[nodiscard]] Digest compute_tag(NodeId signer, const SignedPayload& payload,
                                   std::uint64_t nonce) const;

  std::vector<std::array<std::uint8_t, 32>> keys_;
};

/// Public-key infrastructure for one simulated world: owns the scheme,
/// exposes sign/verify, and counts operations for the complexity benches.
class Pki {
 public:
  /// kAbstract builds the same SymbolicScheme as kSymbolic.
  enum class Kind { kSymbolic, kHmac, kAbstract };

  Pki(std::uint32_t n, Kind kind, std::uint64_t seed);

  [[nodiscard]] Signature sign(NodeId signer, const SignedPayload& payload,
                               std::uint64_t nonce = 0);
  [[nodiscard]] bool verify(const Signature& sig, const SignedPayload& payload) const;

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t sign_count() const noexcept { return signs_; }
  [[nodiscard]] std::uint64_t verify_count() const noexcept { return verifies_; }
  [[nodiscard]] const SignatureScheme& scheme() const noexcept { return *scheme_; }

 private:
  std::uint32_t n_;
  std::unique_ptr<SignatureScheme> scheme_;
  std::uint64_t signs_ = 0;
  mutable std::uint64_t verifies_ = 0;
};

/// Tracks which honest-origin signatures the adversary has learned.
/// The network layer records every signature delivered to a faulty node and
/// every signature created by a faulty node; a faulty send carrying an
/// unknown honest signature is a model violation.
class KnowledgeTracker {
 public:
  void learn(const Signature& sig);
  [[nodiscard]] bool knows(const Signature& sig) const;

  [[nodiscard]] std::size_t size() const noexcept { return known_.size(); }

 private:
  std::unordered_set<std::uint64_t> known_;
};

}  // namespace crusader::crypto
