#pragma once
// The general-n reduction of Theorem 5 (executable): "partition the set of n
// nodes into three non-empty subsets S₁,S₂,S₃ of size at most ⌈n/3⌉. Then
// node i ∈ [3] simulates the protocol behaviour of nodes in S_i and outputs
// the pulse times of the lexicographically first node in S_i."
//
// CompositeNode hosts a group of inner protocol nodes behind one outer
// sim::PulseNode:
//  * all inner nodes share the composite's hardware clock (a legal adversary
//    choice for Π) and start perfectly synchronized;
//  * intra-group messages are delivered after a fixed LOCAL delay
//    δL = d (real delay then lies in [d/ϑ, d] ⊆ [d−u, d], which requires
//    ϑ ≤ d/(d−u) — checked at construction);
//  * inter-group messages ride the outer transport (the three-execution
//    co-simulation), whose delays are within Π's bounds by construction;
//  * the composite pulses exactly when its first inner node pulses.
//
// Restrictions (checked): inner protocols must be broadcast-only (CPS, LW,
// ST all are) and use timer tags below 2^56 (CPS's tag encoding fits).
//
// Kept although no runner cell reaches it yet: ROADMAP's "Theorem 5 at
// general n" item runs the theorem5 world through it.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/signature.hpp"
#include "sim/model.hpp"
#include "sim/node.hpp"

namespace crusader::lowerbound {

class CompositeNode final : public sim::PulseNode {
 public:
  /// `globals` lists the inner (protocol-level) node ids hosted here, in
  /// order; the first one's pulses become the composite's pulses.
  /// `inner_model` is Π's model (n = total nodes across all groups).
  /// `pki` holds one key per inner node and is shared across composites.
  CompositeNode(std::vector<NodeId> globals, sim::ModelParams inner_model,
                crypto::Pki* pki,
                const std::function<std::unique_ptr<sim::PulseNode>(NodeId)>&
                    inner_factory);
  ~CompositeNode() override;

  void on_start(sim::Env& env) override;
  void on_message(sim::Env& env, const sim::Message& m) override;
  void on_timer(sim::Env& env, std::uint64_t tag) override;

 private:
  class InnerEnv;

  void local_broadcast(sim::Env& outer, NodeId inner_from,
                       const sim::Message& m);
  void deliver_inner(sim::Env& outer, const sim::Message& m,
                     NodeId skip = kInvalidNode);

  std::vector<NodeId> globals_;
  sim::ModelParams inner_model_;
  crypto::Pki* pki_;
  std::vector<std::unique_ptr<sim::PulseNode>> inner_;
  std::vector<std::unique_ptr<InnerEnv>> envs_;
  std::vector<sim::Message> held_;  // intra-group messages in flight
};

}  // namespace crusader::lowerbound
