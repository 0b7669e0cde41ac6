#pragma once
// Approximate Agreement with signatures — Figure 1 of the paper (APA), plus
// the iterated version of Corollary 2.
//
// One iteration (2 synchronous rounds):
//   * every node crusader-broadcasts its current value (n concurrent
//     CbInstances, one per dealer);
//   * with b the number of ⊥ outputs, sort the non-⊥ values, discard the
//     lowest f−b and highest f−b, and output the midpoint of the interval
//     spanned by the rest.
//
// Theorem 9: one iteration is (ℓ, ℓ/2, ⌈n/2⌉−1)-secure. Corollary 2:
// ⌈log₂(ℓ/ε)⌉ iterations (2⌈log₂(ℓ/ε)⌉ rounds) give ε-consistency.
// The selection rule itself is core::trimmed_midpoint, shared with CPS and
// Lynch–Welch.
//
// Kept although no runner cell reaches it: its tests and the E1 bench pin
// Theorem 9 and Corollary 2, which no world-level test pins.

#include <cstdint>
#include <memory>
#include <vector>

#include "sync/crusader_broadcast.hpp"
#include "sync/sync_net.hpp"

namespace crusader::sync {

class ApaNode final : public SyncProtocol {
 public:
  /// `iterations` iterations are executed back to back; iteration i uses
  /// global rounds 2i and 2i+1 and payload tag `tag_base + i`.
  ApaNode(NodeId self, std::uint32_t n, std::uint32_t f, crypto::Pki& pki,
          double input, std::uint32_t iterations, Round tag_base = 0);

  Outbox send(std::uint32_t round) override;
  void receive(std::uint32_t round, const Inbox& inbox) override;

  /// Current estimate (input before the first iteration completes).
  [[nodiscard]] double current() const noexcept { return current_; }
  [[nodiscard]] bool done() const noexcept {
    return completed_ >= iterations_;
  }
  /// Estimate after each completed iteration.
  [[nodiscard]] const std::vector<double>& trajectory() const noexcept {
    return trajectory_;
  }
  /// Number of ⊥ outputs observed in each completed iteration.
  [[nodiscard]] const std::vector<std::uint32_t>& bot_counts() const noexcept {
    return bot_counts_;
  }

 private:
  void begin_iteration();
  void finish_iteration();

  NodeId self_;
  std::uint32_t n_;
  std::uint32_t f_;
  crypto::Pki& pki_;
  double current_;
  std::uint32_t iterations_;
  Round tag_base_;
  std::uint32_t completed_ = 0;
  std::vector<std::unique_ptr<CbInstance>> instances_;  // one per dealer
  std::vector<double> trajectory_;
  std::vector<std::uint32_t> bot_counts_;
};

/// Convenience harness: runs APA among n nodes with the given honest inputs
/// and adversary; returns the honest outputs (indexed by node id; faulty
/// slots hold NaN). Used by tests and the E1 bench.
struct ApaRunResult {
  std::vector<double> outputs;                 // per node; NaN for faulty
  std::vector<std::vector<double>> trajectories;  // honest trajectories
};

ApaRunResult run_apa(std::uint32_t n, std::uint32_t f,
                     const std::vector<bool>& faulty,
                     const std::vector<double>& inputs,
                     std::uint32_t iterations, RushingAdversary* adversary,
                     crypto::Pki& pki);

}  // namespace crusader::sync
