#pragma once
// Rushing-adversary strategies for the synchronous protocols (CB / APA).
//
// Each strategy targets the APA message shape: phase 0 (round%2==0) carries
// dealer broadcasts, phase 1 carries echoes. All strategies honor the model:
// they sign only with faulty keys and replay only observed honest signatures
// (the executor enforces this).
//
// Kept although no runner cell reaches it: these are the adversaries under
// which Theorem 9, Corollary 2 and Definition 6 are pinned.

#include <cstdint>
#include <map>
#include <vector>

#include "sync/sync_net.hpp"
#include "util/rng.hpp"

namespace crusader::sync {

/// Shared plumbing: faulty ids, key access, honest-value extraction.
class SyncAdversaryBase : public RushingAdversary {
 public:
  SyncAdversaryBase(std::vector<NodeId> faulty_ids, std::uint32_t n,
                    crypto::Pki& pki, Round tag_base = 0);

 protected:
  /// Honest input values visible in this phase-0 round (rushing).
  [[nodiscard]] std::vector<double> honest_values(
      const std::vector<Outbox>& honest_outboxes) const;

  [[nodiscard]] SignedValue make_signed(NodeId dealer, Round iteration,
                                        double value,
                                        std::uint64_t nonce = 0) const;

  [[nodiscard]] Round tag_for(std::uint32_t round) const {
    return tag_base_ + round / 2;
  }

  std::vector<NodeId> faulty_ids_;
  std::uint32_t n_;
  crypto::Pki& pki_;
  Round tag_base_;
};

/// Sends nothing (crash from the start). Honest nodes see b = f bots.
class SilentSyncAdversary final : public SyncAdversaryBase {
 public:
  using SyncAdversaryBase::SyncAdversaryBase;
  std::map<NodeId, Outbox> act(std::uint32_t round,
                               const std::vector<Outbox>& honest) override;
};

/// Equivocates: signs the honest minimum for even-id recipients and the
/// honest maximum for odd-id recipients. CB's echo round exposes this: every
/// honest node that sees both signed values outputs ⊥.
class EquivocatorSyncAdversary final : public SyncAdversaryBase {
 public:
  using SyncAdversaryBase::SyncAdversaryBase;
  std::map<NodeId, Outbox> act(std::uint32_t round,
                               const std::vector<Outbox>& honest) override;
};

/// Sends a *consistent* extreme value (the honest minimum minus a configured
/// pull, rushing on the honest inputs) — the strongest legal value-level
/// attack, testing the f−b discard logic.
class ExtremePullSyncAdversary final : public SyncAdversaryBase {
 public:
  ExtremePullSyncAdversary(std::vector<NodeId> faulty_ids, std::uint32_t n,
                           crypto::Pki& pki, double pull, Round tag_base = 0);
  std::map<NodeId, Outbox> act(std::uint32_t round,
                               const std::vector<Outbox>& honest) override;

 private:
  double pull_;
};

/// Delivers a valid value to a subset of honest nodes and nothing to the
/// rest: the receivers output the value, the others output ⊥ — the exact
/// asymmetry Lemmas 7/8 reason about.
class PartialSyncAdversary final : public SyncAdversaryBase {
 public:
  using SyncAdversaryBase::SyncAdversaryBase;
  std::map<NodeId, Outbox> act(std::uint32_t round,
                               const std::vector<Outbox>& honest) override;
};

/// Mixes all of the above uniformly at random, per faulty node per iteration.
class RandomSyncAdversary final : public SyncAdversaryBase {
 public:
  RandomSyncAdversary(std::vector<NodeId> faulty_ids, std::uint32_t n,
                      crypto::Pki& pki, std::uint64_t seed, Round tag_base = 0);
  std::map<NodeId, Outbox> act(std::uint32_t round,
                               const std::vector<Outbox>& honest) override;

 private:
  util::Rng rng_;
};

}  // namespace crusader::sync
