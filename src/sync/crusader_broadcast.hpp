#pragma once
// Crusader Broadcast with signatures — Figure 4 of the paper.
//
//   * Round 0: the dealer v sends (b_v, ⟨b_v⟩_v) to all nodes.
//   * Round 1: each node forwards the pair it received from the dealer.
//   * Output ⊥ if two distinct validly-signed dealer values were observed,
//     or if the direct message from the dealer is missing/invalid;
//     otherwise output the dealer's value.
//
// Guarantees (Definition 6, shown in [12]): Validity for honest dealers and
// Crusader Consistency — honest non-⊥ outputs agree — for up to
// f = ⌈n/2⌉ − 1 faults (in fact for any f < n: both properties follow from
// unforgeability alone; resilience matters for the *uses* of CB).
//
// Generalized from bits to real values, which is what APA needs.
//
// Kept although no runner cell reaches it: its tests pin Definition 6
// (validity, crusader consistency) against silent, equivocating and
// partially delivering dealers, which no world-level test pins.

#include <cstdint>
#include <optional>
#include <vector>

#include "sync/sync_net.hpp"

namespace crusader::sync {

/// Output of a CB instance: nullopt encodes ⊥.
using CbOutput = std::optional<double>;

/// One node's view of one CB instance. Drive with on_round0 / on_round1.
/// Composable: APA runs n of these per iteration inside one SyncProtocol.
class CbInstance {
 public:
  /// `tag` disambiguates instances across iterations (it is signed into the
  /// payload, preventing cross-instance replay).
  CbInstance(NodeId self, NodeId dealer, Round tag, crypto::Pki& pki);

  /// Round-0 outbox contribution: only the dealer emits, signing its input.
  [[nodiscard]] std::optional<SignedValue> make_broadcast(double input);

  /// Record round-0 inbox: the entry received directly from the dealer.
  void on_direct(const SignedValue& entry);

  /// Round-1 outbox contribution: echo of the direct entry, if any.
  [[nodiscard]] std::optional<SignedValue> make_echo() const;

  /// Record a round-1 entry from `from` (any sender, including the dealer).
  void on_echo(NodeId from, const SignedValue& entry);

  /// Final output per Figure 4. Call after round 1.
  [[nodiscard]] CbOutput output() const;

  [[nodiscard]] NodeId dealer() const noexcept { return dealer_; }

 private:
  [[nodiscard]] bool valid(const SignedValue& entry) const;
  void absorb(const SignedValue& entry);

  NodeId self_;
  NodeId dealer_;
  Round tag_;
  crypto::Pki& pki_;
  std::optional<SignedValue> direct_;
  // Distinct validly-signed dealer values observed (size > 1 ⇒ ⊥).
  std::vector<double> valid_values_;
};

/// Standalone single-dealer Crusader Broadcast as a SyncProtocol (2 rounds).
/// Used directly by tests and the bench for Figure 4; APA embeds CbInstance.
class CrusaderBroadcastNode final : public SyncProtocol {
 public:
  CrusaderBroadcastNode(NodeId self, NodeId dealer, Round tag,
                        std::uint32_t n, crypto::Pki& pki,
                        std::optional<double> input);

  Outbox send(std::uint32_t round) override;
  void receive(std::uint32_t round, const Inbox& inbox) override;

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] CbOutput output() const;

 private:
  CbInstance instance_;
  std::uint32_t n_;
  std::optional<double> input_;
  bool done_ = false;
};

}  // namespace crusader::sync
