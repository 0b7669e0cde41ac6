#include "sync/approx_agreement.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "util/check.hpp"

namespace crusader::sync {

ApaNode::ApaNode(NodeId self, std::uint32_t n, std::uint32_t f,
                 crypto::Pki& pki, double input, std::uint32_t iterations,
                 Round tag_base)
    : self_(self),
      n_(n),
      f_(f),
      pki_(pki),
      current_(input),
      iterations_(iterations),
      tag_base_(tag_base) {
  CS_CHECK(self_ < n_);
  CS_CHECK_MSG(f_ <= (n_ + 1) / 2 - 1,
               "APA requires f <= ceil(n/2)-1 (Theorem 9)");
}

void ApaNode::begin_iteration() {
  instances_.clear();
  instances_.reserve(n_);
  const Round tag = tag_base_ + completed_;
  for (NodeId dealer = 0; dealer < n_; ++dealer) {
    instances_.push_back(
        std::make_unique<CbInstance>(self_, dealer, tag, pki_));
  }
}

Outbox ApaNode::send(std::uint32_t round) {
  Outbox out;
  if (completed_ >= iterations_) return out;
  const std::uint32_t phase = round % 2;
  CS_CHECK_MSG(round / 2 == completed_,
               "round " << round << " does not match iteration " << completed_);

  if (phase == 0) {
    begin_iteration();
    const auto entry = instances_[self_]->make_broadcast(current_);
    CS_CHECK(entry.has_value());
    for (NodeId to = 0; to < n_; ++to) out[to].entries.push_back(*entry);
  } else {
    // Echo phase: forward every direct message received in phase 0.
    std::vector<SignedValue> echoes;
    for (const auto& instance : instances_) {
      if (const auto echo = instance->make_echo()) echoes.push_back(*echo);
    }
    if (!echoes.empty()) {
      for (NodeId to = 0; to < n_; ++to) out[to].entries = echoes;
    }
  }
  return out;
}

void ApaNode::receive(std::uint32_t round, const Inbox& inbox) {
  if (completed_ >= iterations_) return;
  const std::uint32_t phase = round % 2;

  if (phase == 0) {
    // Direct messages: entry for dealer y counts as direct only when it was
    // received from y itself.
    for (const auto& [from, m] : inbox) {
      for (const auto& entry : m.entries) {
        if (entry.dealer == from && entry.dealer < n_)
          instances_[entry.dealer]->on_direct(entry);
      }
    }
  } else {
    for (const auto& [from, m] : inbox) {
      for (const auto& entry : m.entries) {
        if (entry.dealer < n_) instances_[entry.dealer]->on_echo(from, entry);
      }
    }
    finish_iteration();
  }
}

void ApaNode::finish_iteration() {
  std::vector<double> values;
  std::uint32_t bots = 0;
  for (const auto& instance : instances_) {
    const CbOutput o = instance->output();
    if (o.has_value())
      values.push_back(*o);
    else
      ++bots;
  }
  // Every ⊥ output identifies one faulty dealer whose value is already
  // excluded, so only f−b potentially-faulty values can hide on each side.
  current_ = core::trimmed_midpoint(std::move(values),
                                    f_ > bots ? f_ - bots : 0);
  trajectory_.push_back(current_);
  bot_counts_.push_back(bots);
  ++completed_;
}

ApaRunResult run_apa(std::uint32_t n, std::uint32_t f,
                     const std::vector<bool>& faulty,
                     const std::vector<double>& inputs,
                     std::uint32_t iterations, RushingAdversary* adversary,
                     crypto::Pki& pki) {
  CS_CHECK(faulty.size() == n);
  CS_CHECK(inputs.size() == n);

  SyncNetwork net(n, faulty, pki);
  std::vector<std::unique_ptr<ApaNode>> nodes(n);
  for (NodeId v = 0; v < n; ++v) {
    if (faulty[v]) continue;
    nodes[v] = std::make_unique<ApaNode>(v, n, f, pki, inputs[v], iterations);
    net.set_protocol(v, nodes[v].get());
  }
  net.set_adversary(adversary);
  net.run_rounds(2 * iterations);

  ApaRunResult result;
  result.outputs.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.trajectories.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    if (faulty[v]) continue;
    CS_CHECK(nodes[v]->done());
    result.outputs[v] = nodes[v]->current();
    result.trajectories[v] = nodes[v]->trajectory();
  }
  return result;
}

}  // namespace crusader::sync
