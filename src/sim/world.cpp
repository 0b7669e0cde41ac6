#include "sim/world.hpp"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {

std::vector<NodeId> default_faulty_set(std::uint32_t f) {
  std::vector<NodeId> out(f);
  for (std::uint32_t i = 0; i < f; ++i) out[i] = i;
  return out;
}

std::vector<bool> faulty_mask(const std::vector<NodeId>& faulty,
                              std::uint32_t n, std::uint32_t f) {
  std::vector<bool> mask(n, false);
  for (NodeId v : faulty) {
    CS_CHECK_MSG(v < n, "faulty id " << v << " out of range");
    CS_CHECK_MSG(!mask[v], "duplicate faulty id " << v);
    mask[v] = true;
  }
  CS_CHECK_MSG(faulty.size() <= f,
               "more faulty nodes than the configured bound f");
  return mask;
}

// --- Host -------------------------------------------------------------------

/// One node's environment. It owns the node, honest or Byzantine, and hands
/// itself to the node's handlers: an honest node sees only the Env half.
class World::Host final : public AdversaryEnv {
 public:
  Host(World& world, NodeId id, std::unique_ptr<PulseNode> honest,
       std::unique_ptr<ByzantineNode> byzantine)
      : world_(world),
        id_(id),
        honest_(std::move(honest)),
        byzantine_(std::move(byzantine)) {}
  // Engine closures hold the host's address.
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  void start() {
    on_node([this](auto& node) { node.on_start(*this); });
  }
  void deliver(const Message& m) {
    on_node([this, &m](auto& node) { node.on_message(*this, m); });
  }

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] const ModelParams& model() const override {
    return world_.config_.model;
  }
  [[nodiscard]] double local_now() const override {
    return world_.clocks_[id_].local(real_now());
  }
  [[nodiscard]] double real_now() const override {
    return world_.engine_->now();
  }

  void send(NodeId to, Message m) override {
    world_.network_->send(id_, to, std::move(m));
  }

  void send_with_delay(NodeId to, Message m, double delay) override {
    world_.network_->send_with_delay(id_, to, std::move(m), delay);
  }

  void broadcast(const Message& m) override {
    world_.network_->broadcast(id_, m);
  }

  TimerId schedule_at_local(double local_time, std::uint64_t tag) override {
    Engine& engine = *world_.engine_;
    const double t = world_.clocks_[id_].timer_time(local_time, engine.now());
    return engine.at(t, [this, tag] {
      on_node([this, tag](auto& node) { node.on_timer(*this, tag); });
    });
  }

  void cancel_timer(TimerId id) override { world_.engine_->cancel(id); }

  void pulse() override {
    // Faulty pulses are recorded too; quality metrics ignore faulty nodes.
    world_.trace_->record(id_, real_now(), local_now());
  }

  [[nodiscard]] crypto::Signature sign(
      const crypto::SignedPayload& payload) override {
    return world_.pki_->sign(id_, payload, 0);
  }

  [[nodiscard]] crypto::Signature sign_nonced(
      const crypto::SignedPayload& payload, std::uint64_t nonce) override {
    return world_.pki_->sign(id_, payload, nonce);
  }

  [[nodiscard]] bool verify(const crypto::Signature& sig,
                            const crypto::SignedPayload& payload) const override {
    return world_.pki_->verify(sig, payload);
  }

 private:
  /// Calls `handler` with whichever node this host owns.
  template <typename Handler>
  void on_node(Handler handler) {
    if (honest_) {
      handler(*honest_);
    } else {
      handler(*byzantine_);
    }
  }

  World& world_;
  NodeId id_;
  std::unique_ptr<PulseNode> honest_;  ///< set for an honest node
  std::unique_ptr<ByzantineNode> byzantine_;  ///< set for a faulty node
};

// --- World ------------------------------------------------------------------

World::World(WorldConfig config, HonestFactory honest,
             ByzantineFactory byzantine)
    : config_(std::move(config)), rng_(config_.seed) {
  config_.model.validate();
  const std::uint32_t n = config_.model.n;
  faulty_ = faulty_mask(config_.faulty, n, config_.model.f);

  engine_ = std::make_unique<Engine>();
  pki_ = std::make_unique<crypto::Pki>(n, config_.pki_kind,
                                       config_.seed ^ 0x5bd1e995u);
  network_ = std::make_unique<Network>(
      *engine_, config_.model, faulty_,
      make_delay_policy(config_.custom_delay, config_.delay_kind, n),
      rng_.fork(0xdeadu), config_.enforcement);
  network_->set_batch(config_.batch);
  trace_ = std::make_unique<PulseTrace>(n, faulty_);
  clocks_ = make_clocks(config_.clock_kind, n, config_.model.vartheta,
                        config_.initial_offset,
                        config_.horizon + config_.model.d, rng_,
                        config_.custom_clocks);

  hosts_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (faulty_[v]) {
      CS_CHECK_MSG(byzantine, "faulty node configured but no Byzantine factory");
      auto node = byzantine(v);
      CS_CHECK_MSG(node, "Byzantine factory returned null for node " << v);
      hosts_.push_back(
          std::make_unique<Host>(*this, v, nullptr, std::move(node)));
    } else {
      auto node = honest(v);
      CS_CHECK_MSG(node, "honest factory returned null for node " << v);
      hosts_.push_back(
          std::make_unique<Host>(*this, v, std::move(node), nullptr));
    }
  }

  network_->set_deliver(
      [this](NodeId to, const Message& m) { hosts_[to]->deliver(m); });
}

World::~World() = default;

void World::start() {
  if (started_) return;
  started_ = true;
  for (auto& host : hosts_) {
    engine_->at(0.0, [h = host.get()] { h->start(); });
  }
}

RunResult World::run() {
  start();
  engine_->run_until(config_.horizon);

  RunResult result{*trace_, 0, 0, 0, 0, 0, {}};
  result.messages = network_->stats().messages;
  result.events = engine_->events_processed();
  result.sign_ops = pki_->sign_count();
  result.verify_ops = pki_->verify_count();
  result.signatures_carried = network_->stats().signatures_carried;
  result.violations = network_->violations();
  return result;
}

}  // namespace crusader::sim
