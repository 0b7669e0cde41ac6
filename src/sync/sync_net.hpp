#pragma once
// Synchronous round framework with a rushing adversary (Section 2 of the
// paper: compute–send–receive rounds; the adversary sees honest messages of
// the current round before choosing its own).
//
// Used by Crusader Broadcast (Figure 4) and Approximate Agreement (Figure 1).
//
// Kept although no runner cell reaches it: it is the round model under
// which the tests pin Figure 1, Theorem 9 / Corollary 2 and Figure 4 /
// Definition 6, which no world-level test pins.

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/signature.hpp"
#include "util/ids.hpp"

namespace crusader::sync {

/// One (dealer, value, signature) triple. CB instances are identified by the
/// dealer id; a broadcast round carries one entry, an echo round up to n.
struct SignedValue {
  NodeId dealer = kInvalidNode;
  double value = 0.0;
  crypto::Signature sig;
};

struct RoundMessage {
  std::vector<SignedValue> entries;
};

/// Everything delivered to one node in one round, keyed by sender.
using Inbox = std::map<NodeId, RoundMessage>;

/// Per-recipient outboxes produced by one node in one round.
using Outbox = std::map<NodeId, RoundMessage>;

/// Honest protocol logic, one instance per node.
class SyncProtocol {
 public:
  virtual ~SyncProtocol() = default;
  /// Produce this round's messages. `round` is 0-based and global.
  virtual Outbox send(std::uint32_t round) = 0;
  /// Consume this round's inbox.
  virtual void receive(std::uint32_t round, const Inbox& inbox) = 0;
};

/// Rushing adversary: sees every honest node's outbox for the round before
/// choosing the faulty nodes' messages.
class RushingAdversary {
 public:
  virtual ~RushingAdversary() = default;

  /// honest_outboxes[v] is meaningful only for honest v. Returns, for each
  /// faulty node, its outbox for this round. The executor enforces the
  /// Dolev–Yao signature rule on the returned messages.
  virtual std::map<NodeId, Outbox> act(
      std::uint32_t round, const std::vector<Outbox>& honest_outboxes) = 0;
};

/// Executes synchronous rounds among n nodes, some faulty.
class SyncNetwork {
 public:
  SyncNetwork(std::uint32_t n, std::vector<bool> faulty, crypto::Pki& pki);

  /// Install protocol instance for an honest node (required for all honest).
  void set_protocol(NodeId v, SyncProtocol* protocol);
  void set_adversary(RushingAdversary* adversary);

  /// Run one round: collect outboxes, let the adversary rush, deliver.
  void run_round();
  void run_rounds(std::uint32_t count);

  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }
  [[nodiscard]] bool is_faulty(NodeId v) const { return faulty_.at(v); }
  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

  /// Signatures the adversary has seen (feeds the Dolev–Yao check).
  [[nodiscard]] const crypto::KnowledgeTracker& knowledge() const noexcept {
    return knowledge_;
  }

 private:
  void check_knowledge(const RoundMessage& m) const;

  std::uint32_t n_;
  std::vector<bool> faulty_;
  crypto::Pki& pki_;
  std::vector<SyncProtocol*> protocols_;
  RushingAdversary* adversary_ = nullptr;
  std::uint32_t round_ = 0;
  crypto::KnowledgeTracker knowledge_;
};

}  // namespace crusader::sync
