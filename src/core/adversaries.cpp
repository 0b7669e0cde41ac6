#include "core/adversaries.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::core {

// --- EchoRushByzantine --------------------------------------------------------

void EchoRushByzantine::on_message(sim::AdversaryEnv& env,
                                   const sim::Message& m) {
  if (m.kind != sim::MsgKind::kTcbSig) return;
  if (!echoed_.insert(m.sig.key()).second) return;  // once per signature
  const double min_delay = env.model().d - env.model().u_tilde;
  for (NodeId to = 0; to < env.model().n; ++to) {
    if (to == env.id()) continue;
    env.send_with_delay(to, m, min_delay);
  }
}

// --- DeviantWrapper -----------------------------------------------------------

/// Proxy Env: forwards everything to the AdversaryEnv except own-dealer
/// broadcasts, which it holds back and re-sends with the configured
/// deviation. Wrapper-owned timers use bit 63 of the tag space.
class DeviantWrapper::Proxy final : public sim::Env {
 public:
  explicit Proxy(Deviation deviation) : deviation_(deviation) {}

  void bind(sim::AdversaryEnv* env) { env_ = env; }

  [[nodiscard]] NodeId id() const override { return env_->id(); }
  [[nodiscard]] const sim::ModelParams& model() const override {
    return env_->model();
  }
  [[nodiscard]] double local_now() const override { return env_->local_now(); }

  void send(NodeId to, sim::Message m) override {
    env_->send(to, std::move(m));
  }

  void broadcast(const sim::Message& m) override {
    const bool own_dealer_msg =
        m.kind == sim::MsgKind::kTcbSig || m.kind == sim::MsgKind::kLwPulse ||
        m.kind == sim::MsgKind::kStReady;
    if (own_dealer_msg && m.dealer == env_->id()) {
      if (deviation_.send_shift > 0.0) {
        defer(m, Phase::kFull, deviation_.send_shift);
      } else {
        deviant_send(m);
      }
      return;
    }
    env_->broadcast(m);
  }

  sim::TimerId schedule_at_local(double local_time, std::uint64_t tag) override {
    CS_CHECK_MSG((tag & kWrapperTagBit) == 0,
                 "inner node may not use the wrapper tag bit");
    return env_->schedule_at_local(local_time, tag);
  }

  void cancel_timer(sim::TimerId id) override { env_->cancel_timer(id); }
  void pulse() override { env_->pulse(); }

  [[nodiscard]] crypto::Signature sign(
      const crypto::SignedPayload& payload) override {
    return env_->sign(payload);
  }

  [[nodiscard]] bool verify(const crypto::Signature& sig,
                            const crypto::SignedPayload& payload) const override {
    return env_->verify(sig, payload);
  }

  /// Handles a wrapper timer; returns false if the tag belongs to the inner
  /// node.
  bool maybe_handle_timer(std::uint64_t tag) {
    if ((tag & kWrapperTagBit) == 0) return false;
    const std::size_t index = tag & ~kWrapperTagBit;
    CS_CHECK(index < pending_.size());
    const Pending& entry = pending_[index];
    if (entry.phase == Phase::kFull) {
      deviant_send(entry.m);
    } else {
      send_half(entry.m, /*upper=*/true, /*min_delay=*/false);
    }
    return true;
  }

  static constexpr std::uint64_t kWrapperTagBit = 1ULL << 63;

 private:
  enum class Phase { kFull, kHighHalf };
  struct Pending {
    sim::Message m;
    Phase phase;
  };

  void defer(const sim::Message& m, Phase phase, double shift) {
    pending_.push_back(Pending{m, phase});
    env_->schedule_at_local(env_->local_now() + shift,
                            kWrapperTagBit | (pending_.size() - 1));
  }

  void send_half(const sim::Message& m, bool upper, bool min_delay) {
    const auto& model = env_->model();
    const double delay =
        min_delay ? model.d - model.u_tilde : model.d;
    for (NodeId to = 0; to < model.n; ++to) {
      if (to == env_->id()) continue;
      const bool is_upper = to >= model.n / 2;
      if (is_upper != upper) continue;
      env_->send_with_delay(to, m, delay);
    }
  }

  void deviant_send(const sim::Message& m) {
    const auto& model = env_->model();
    const double lo = model.d - model.u_tilde;
    const double hi = model.d;
    switch (deviation_.mode) {
      case Deviation::DelayMode::kMinAll:
        for (NodeId to = 0; to < model.n; ++to)
          if (to != env_->id()) env_->send_with_delay(to, m, lo);
        break;
      case Deviation::DelayMode::kMaxAll:
        for (NodeId to = 0; to < model.n; ++to)
          if (to != env_->id()) env_->send_with_delay(to, m, hi);
        break;
      case Deviation::DelayMode::kSplit:
        send_half(m, /*upper=*/false, /*min_delay=*/true);
        if (deviation_.split_shift > 0.0) {
          defer(m, Phase::kHighHalf, deviation_.split_shift);
        } else {
          send_half(m, /*upper=*/true, /*min_delay=*/false);
        }
        break;
    }
  }

  Deviation deviation_;
  sim::AdversaryEnv* env_ = nullptr;
  std::vector<Pending> pending_;
};

DeviantWrapper::DeviantWrapper(std::unique_ptr<sim::PulseNode> inner,
                               Deviation deviation)
    : proxy_(std::make_unique<Proxy>(deviation)), inner_(std::move(inner)) {
  CS_CHECK(inner_ != nullptr);
}

DeviantWrapper::~DeviantWrapper() = default;

void DeviantWrapper::on_start(sim::AdversaryEnv& env) {
  proxy_->bind(&env);
  inner_->on_start(*proxy_);
}

void DeviantWrapper::on_message(sim::AdversaryEnv& env, const sim::Message& m) {
  proxy_->bind(&env);
  inner_->on_message(*proxy_, m);
}

void DeviantWrapper::on_timer(sim::AdversaryEnv& env, std::uint64_t tag) {
  proxy_->bind(&env);
  if (proxy_->maybe_handle_timer(tag)) return;
  inner_->on_timer(*proxy_, tag);
}

// --- ReplayByzantine ----------------------------------------------------------

void ReplayByzantine::on_message(sim::AdversaryEnv& env, const sim::Message& m) {
  if (m.kind != sim::MsgKind::kTcbSig) return;
  if (m.round > max_round_seen_) {
    max_round_seen_ = m.round;
    // A fresh round began: replay everything stashed from older rounds.
    for (const auto& old : stash_) {
      const double delay =
          rng_.uniform(env.model().d - env.model().u_tilde, env.model().d);
      for (NodeId to = 0; to < env.model().n; ++to) {
        if (to != env.id()) env.send_with_delay(to, old, delay);
      }
    }
    stash_.clear();
  }
  if (stash_.size() < 64) stash_.push_back(m);
}

// --- RandomByzantine ----------------------------------------------------------

void RandomByzantine::on_message(sim::AdversaryEnv& env, const sim::Message& m) {
  if (m.kind != sim::MsgKind::kTcbSig) return;
  const auto& model = env.model();
  const double lo = model.d - model.u_tilde;
  const double hi = model.d;

  // Replay the observed message to a random node, sometimes.
  if (rng_.chance(0.3)) {
    const NodeId to = static_cast<NodeId>(rng_.below(model.n));
    if (to != env.id())
      env.send_with_delay(to, m, rng_.uniform(lo, hi));
  }

  // Once per observed round: sign our own pulse payload and send it to a
  // random subset at random delays (a flaky dealer).
  if (signed_rounds_.insert(m.round).second) {
    sim::Message own;
    own.kind = sim::MsgKind::kTcbSig;
    own.round = m.round;
    own.dealer = env.id();
    own.sig = env.sign(crypto::make_pulse_payload(m.round));
    for (NodeId to = 0; to < model.n; ++to) {
      if (to == env.id() || !rng_.chance(0.7)) continue;
      env.send_with_delay(to, own, rng_.uniform(lo, hi));
    }
  }
}

// --- ObservationLog / GreedySkewByzantine ---------------------------------------

ObservationLog::ObservationLog(std::uint32_t n)
    : late_sum_(n, 0.0), late_count_(n, 0) {}

void ObservationLog::record(NodeId dealer, Round round, double now) {
  if (dealer >= late_sum_.size()) return;  // kInvalidNode / foreign traffic
  // Lateness is measured against the FIRST copy of the round the observer
  // saw, so the estimator needs no clock model — only arrival order.
  const auto it = round_first_.try_emplace(round, now).first;
  observe(dealer, static_cast<std::uint64_t>(round), now, it->second);
}

void ObservationLog::observe(NodeId v, std::uint64_t tag, double now,
                             double first) {
  CS_CHECK(v < late_sum_.size());
  ++count_;
  digest_ = util::mix64(digest_ ^ (static_cast<std::uint64_t>(v) << 40) ^ tag);
  digest_ = util::mix64(digest_ ^ std::bit_cast<std::uint64_t>(now));
  const double lateness = now - first;
  late_sum_[v] += lateness;
  ++late_count_[v];
  late_total_ += lateness;
  ++late_total_count_;
}

void GreedySkewByzantine::on_start(sim::AdversaryEnv& env) {
  log_ = std::make_unique<ObservationLog>(env.model().n);
}

void GreedySkewByzantine::on_message(sim::AdversaryEnv& env,
                                     const sim::Message& m) {
  const bool pulse_like = m.kind == sim::MsgKind::kTcbSig ||
                          m.kind == sim::MsgKind::kLwPulse ||
                          m.kind == sim::MsgKind::kStReady;
  if (!pulse_like) return;
  CS_CHECK(log_ != nullptr);
  log_->record(m.dealer, m.round, env.real_now());

  // Once per observed round: broadcast our own pulse-like message of the
  // same kind, two-faced — earliest legal appearance to the nodes the log
  // says lead, latest to the ones it says lag.
  if (!sent_.insert(m.round).second) return;
  const auto& model = env.model();
  const double lo = model.d - model.u_tilde;
  const double hi = model.d;
  sim::Message own;
  own.kind = m.kind;
  own.round = m.round;
  own.dealer = env.id();
  if (m.kind == sim::MsgKind::kTcbSig)
    own.sig = env.sign(crypto::make_pulse_payload(m.round));
  else if (m.kind == sim::MsgKind::kStReady)
    own.sig = env.sign(crypto::make_ready_payload(m.round));
  for (NodeId to = 0; to < model.n; ++to) {
    if (to == env.id()) continue;
    env.send_with_delay(to, own, log_->lagging(to) ? hi : lo);
  }
}

// --- StAcceleratorByzantine -----------------------------------------------------

void StAcceleratorByzantine::on_message(sim::AdversaryEnv& env,
                                        const sim::Message& m) {
  if (m.kind != sim::MsgKind::kStReady && m.kind != sim::MsgKind::kStCert)
    return;
  if (target_ == env.id() || target_ >= env.model().n) return;
  const double min_delay = env.model().d - env.model().u_tilde;
  // Pre-supply our ready signature for this round and the next one, so the
  // target's certificate completes the moment its own timer fires.
  for (Round round : {m.round, m.round + 1}) {
    if (!sent_.insert(round).second) continue;
    sim::Message ready;
    ready.kind = sim::MsgKind::kStReady;
    ready.round = round;
    ready.dealer = env.id();
    ready.sig = env.sign(crypto::make_ready_payload(round));
    env.send_with_delay(target_, ready, min_delay);
  }
}

sim::ByzantineFactory make_st_accelerator_factory(NodeId target) {
  return [target](NodeId) {
    return std::make_unique<StAcceleratorByzantine>(target);
  };
}

// --- Strategy registry ----------------------------------------------------------

const char* to_string(ByzStrategy strategy) {
  return util::spell(kByzStrategySpellings, strategy);
}

const std::vector<ByzStrategy>& all_byz_strategies() {
  static const std::vector<ByzStrategy> kAll = {
      ByzStrategy::kCrash,     ByzStrategy::kEchoRush, ByzStrategy::kSplit,
      ByzStrategy::kPullEarly, ByzStrategy::kPullLate, ByzStrategy::kReplay,
      ByzStrategy::kRandom,    ByzStrategy::kGreedySkew,
  };
  return kAll;
}

sim::ByzantineFactory make_byzantine_factory(ByzStrategy strategy,
                                             sim::HonestFactory inner_factory,
                                             std::uint64_t seed,
                                             double late_shift,
                                             double split_shift) {
  switch (strategy) {
    case ByzStrategy::kCrash:
      return [](NodeId) { return std::make_unique<CrashByzantine>(); };
    case ByzStrategy::kEchoRush:
      return [](NodeId) { return std::make_unique<EchoRushByzantine>(); };
    case ByzStrategy::kSplit:
      return [inner_factory,
              split_shift](NodeId v) -> std::unique_ptr<sim::ByzantineNode> {
        Deviation dev;
        dev.mode = Deviation::DelayMode::kSplit;
        dev.split_shift = split_shift;
        return std::make_unique<DeviantWrapper>(inner_factory(v), dev);
      };
    case ByzStrategy::kPullEarly:
      return [inner_factory](NodeId v) -> std::unique_ptr<sim::ByzantineNode> {
        Deviation dev;
        dev.mode = Deviation::DelayMode::kMinAll;
        return std::make_unique<DeviantWrapper>(inner_factory(v), dev);
      };
    case ByzStrategy::kPullLate:
      return [inner_factory,
              late_shift](NodeId v) -> std::unique_ptr<sim::ByzantineNode> {
        Deviation dev;
        dev.mode = Deviation::DelayMode::kMaxAll;
        dev.send_shift = late_shift;
        return std::make_unique<DeviantWrapper>(inner_factory(v), dev);
      };
    case ByzStrategy::kReplay:
      return [seed](NodeId v) {
        return std::make_unique<ReplayByzantine>(seed ^ (0x9e37ULL * v));
      };
    case ByzStrategy::kRandom:
      return [seed](NodeId v) {
        return std::make_unique<RandomByzantine>(seed ^ (0x85ebULL * v));
      };
    case ByzStrategy::kGreedySkew:
      return [](NodeId) { return std::make_unique<GreedySkewByzantine>(); };
  }
  CS_CHECK_MSG(false, "unknown strategy");
  return nullptr;
}

}  // namespace crusader::core
