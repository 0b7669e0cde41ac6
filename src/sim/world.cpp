#include "sim/world.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {

const char* to_string(ClockKind kind) {
  return util::spell(kClockKindSpellings, kind);
}

std::vector<NodeId> default_faulty_set(std::uint32_t f) {
  std::vector<NodeId> out(f);
  for (std::uint32_t i = 0; i < f; ++i) out[i] = i;
  return out;
}

// --- Runners ----------------------------------------------------------------

namespace {
struct RunnerCore {
  NodeId id;
  const ModelParams* model;
  Engine* engine;
  Network* network;
  const HardwareClock* clock;
  PulseTrace* trace;
  crypto::Pki* pki;

  [[nodiscard]] double local_now() const { return clock->local(engine->now()); }

  TimerId schedule_local(double local_time, std::function<void()> fn) const {
    const double h0 = clock->segments().front().h0;
    const double t = local_time <= h0 ? 0.0 : clock->real(local_time);
    return engine->at(std::max(t, engine->now()), std::move(fn));
  }
};
}  // namespace

class World::HonestRunner final : public Env {
 public:
  HonestRunner(RunnerCore core, std::unique_ptr<PulseNode> node)
      : core_(core), node_(std::move(node)) {}

  void start() { node_->on_start(*this); }
  void deliver(const Message& m) { node_->on_message(*this, m); }

  [[nodiscard]] NodeId id() const override { return core_.id; }
  [[nodiscard]] const ModelParams& model() const override {
    return *core_.model;
  }
  [[nodiscard]] double local_now() const override { return core_.local_now(); }

  void send(NodeId to, Message m) override {
    core_.network->send(core_.id, to, std::move(m));
  }

  void broadcast(const Message& m) override {
    core_.network->broadcast(core_.id, m);
  }

  TimerId schedule_at_local(double local_time, std::uint64_t tag) override {
    return core_.schedule_local(local_time,
                                [this, tag] { node_->on_timer(*this, tag); });
  }

  void cancel_timer(TimerId id) override { core_.engine->cancel(id); }

  void pulse() override {
    core_.trace->record(core_.id, core_.engine->now(), local_now());
  }

  [[nodiscard]] crypto::Signature sign(
      const crypto::SignedPayload& payload) override {
    return core_.pki->sign(core_.id, payload, 0);
  }

  [[nodiscard]] bool verify(const crypto::Signature& sig,
                            const crypto::SignedPayload& payload) const override {
    return core_.pki->verify(sig, payload);
  }

 private:
  RunnerCore core_;
  std::unique_ptr<PulseNode> node_;
};

class World::ByzantineRunner final : public AdversaryEnv {
 public:
  ByzantineRunner(RunnerCore core, std::unique_ptr<ByzantineNode> node)
      : core_(core), node_(std::move(node)) {}

  void start() { node_->on_start(*this); }
  void deliver(const Message& m) { node_->on_message(*this, m); }

  [[nodiscard]] NodeId id() const override { return core_.id; }
  [[nodiscard]] const ModelParams& model() const override {
    return *core_.model;
  }
  [[nodiscard]] double local_now() const override { return core_.local_now(); }
  [[nodiscard]] double real_now() const override { return core_.engine->now(); }

  void send(NodeId to, Message m) override {
    core_.network->send(core_.id, to, std::move(m));
  }

  void send_with_delay(NodeId to, Message m, double delay) override {
    core_.network->send_with_delay(core_.id, to, std::move(m), delay);
  }

  void broadcast(const Message& m) override {
    // Faulty senders always take the network's per-receiver path (their
    // Dolev–Yao knowledge check is per receiver).
    core_.network->broadcast(core_.id, m);
  }

  TimerId schedule_at_local(double local_time, std::uint64_t tag) override {
    return core_.schedule_local(local_time,
                                [this, tag] { node_->on_timer(*this, tag); });
  }

  void cancel_timer(TimerId id) override { core_.engine->cancel(id); }

  void pulse() override {
    // Recorded for completeness; quality metrics ignore faulty nodes.
    core_.trace->record(core_.id, core_.engine->now(), local_now());
  }

  [[nodiscard]] crypto::Signature sign(
      const crypto::SignedPayload& payload) override {
    return core_.pki->sign(core_.id, payload, 0);
  }

  [[nodiscard]] crypto::Signature sign_nonced(
      const crypto::SignedPayload& payload, std::uint64_t nonce) override {
    return core_.pki->sign(core_.id, payload, nonce);
  }

  [[nodiscard]] bool verify(const crypto::Signature& sig,
                            const crypto::SignedPayload& payload) const override {
    return core_.pki->verify(sig, payload);
  }

 private:
  RunnerCore core_;
  std::unique_ptr<ByzantineNode> node_;
};

// --- World ------------------------------------------------------------------

World::World(WorldConfig config, HonestFactory honest,
             ByzantineFactory byzantine)
    : config_(std::move(config)), rng_(config_.seed) {
  config_.model.validate();
  const std::uint32_t n = config_.model.n;

  faulty_.assign(n, false);
  for (NodeId v : config_.faulty) {
    CS_CHECK_MSG(v < n, "faulty id " << v << " out of range");
    CS_CHECK_MSG(!faulty_[v], "duplicate faulty id " << v);
    faulty_[v] = true;
  }
  CS_CHECK_MSG(config_.faulty.size() <= config_.model.f,
               "more faulty nodes than the configured bound f");

  engine_ = std::make_unique<Engine>();
  pki_ = std::make_unique<crypto::Pki>(n, config_.pki_kind,
                                       config_.seed ^ 0x5bd1e995u);
  auto policy = config_.custom_delay
                    ? config_.custom_delay()
                    : make_delay_policy(config_.delay_kind, n);
  network_ = std::make_unique<Network>(*engine_, config_.model, faulty_,
                                       std::move(policy), rng_.fork(0xdeadu),
                                       config_.enforcement);
  network_->set_batch(config_.batch);
  trace_ = std::make_unique<PulseTrace>(n, faulty_);

  build_clocks();
  build_runners(std::move(honest), std::move(byzantine));

  network_->set_deliver([this](NodeId to, const Message& m) {
    deliver_table_.at(to)(m);
  });
}

World::~World() = default;

void World::build_clocks() {
  const std::uint32_t n = config_.model.n;
  const double vt = config_.model.vartheta;
  const double s0 = config_.initial_offset;
  clocks_.clear();
  clocks_.reserve(n);

  switch (config_.clock_kind) {
    case ClockKind::kNominal:
      for (NodeId v = 0; v < n; ++v) {
        const double offset = n > 1 ? s0 * v / (n - 1) : 0.0;
        clocks_.push_back(HardwareClock::constant(1.0, offset));
      }
      break;
    case ClockKind::kSpread:
      for (NodeId v = 0; v < n; ++v) {
        const bool fast = (v % 2) == 1;
        clocks_.push_back(
            HardwareClock::constant(fast ? vt : 1.0, fast ? s0 : 0.0));
      }
      break;
    case ClockKind::kRandomWalk:
      for (NodeId v = 0; v < n; ++v) {
        util::Rng node_rng = rng_.fork(0xc10c000ULL + v);
        const double offset = node_rng.uniform(0.0, s0);
        clocks_.push_back(HardwareClock::random_walk(
            node_rng, vt, offset, config_.clock_segment,
            config_.horizon + config_.model.d));
      }
      break;
    case ClockKind::kCustom:
      CS_CHECK_MSG(config_.custom_clocks.size() == n,
                   "custom clocks must cover all nodes");
      clocks_ = config_.custom_clocks;
      break;
  }
  for (const auto& c : clocks_) c.check_valid(vt);
  for (const auto& c : clocks_) {
    CS_CHECK_MSG(c.offset() >= -1e-12 && c.offset() <= s0 + 1e-12,
                 "clock offset " << c.offset() << " outside [0, S0=" << s0
                                 << "]");
  }
}

void World::build_runners(HonestFactory honest, ByzantineFactory byzantine) {
  const std::uint32_t n = config_.model.n;
  deliver_table_.resize(n);
  start_table_.resize(n);

  for (NodeId v = 0; v < n; ++v) {
    RunnerCore core{v,          &config_.model, engine_.get(), network_.get(),
                    &clocks_[v], trace_.get(),  pki_.get()};
    if (faulty_[v]) {
      CS_CHECK_MSG(byzantine, "faulty node configured but no Byzantine factory");
      auto node = byzantine(v);
      CS_CHECK_MSG(node, "Byzantine factory returned null for node " << v);
      auto runner = std::make_unique<ByzantineRunner>(core, std::move(node));
      deliver_table_[v] = [r = runner.get()](const Message& m) { r->deliver(m); };
      start_table_[v] = [r = runner.get()] { r->start(); };
      byz_runners_.push_back(std::move(runner));
    } else {
      auto node = honest(v);
      CS_CHECK_MSG(node, "honest factory returned null for node " << v);
      auto runner = std::make_unique<HonestRunner>(core, std::move(node));
      deliver_table_[v] = [r = runner.get()](const Message& m) { r->deliver(m); };
      start_table_[v] = [r = runner.get()] { r->start(); };
      honest_runners_.push_back(std::move(runner));
    }
  }
}

void World::start() {
  if (started_) return;
  started_ = true;
  for (auto& start : start_table_) engine_->at(0.0, [&start] { start(); });
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
