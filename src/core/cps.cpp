#include "core/cps.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace crusader::core {

CpsNode::CpsNode(const CpsConfig& config) : config_(config) {
  CS_CHECK_MSG(config_.params.feasible,
               "CPS configured with infeasible parameters (vartheta too large "
               "for Lemma 16 to close)");
}

void CpsNode::on_start(sim::Env& env) {
  const auto& model = env.model();
  f_ = config_.f == 0xffffffffu ? sim::ModelParams::max_faults_signed(model.n)
                                : config_.f;
  instances_.resize(model.n);
  // Figure 3: wait until local time S, then generate the first pulse.
  env.schedule_at_local(config_.params.S, encode_tag(kTagPulse, 1));
}

void CpsNode::do_pulse(sim::Env& env) {
  ++round_;
  pulse_local_ = env.local_now();
  env.pulse();

  if (config_.max_rounds != 0 && round_ >= config_.max_rounds) return;

  collecting_ = true;
  const auto& model = env.model();
  const TcbInstance::Config tcb_config{pulse_local_,
                                       config_.params.accept_window,
                                       config_.params.echo_guard,
                                       !config_.ablate_echo_guard};
  for (NodeId dealer = 0; dealer < model.n; ++dealer) {
    if (dealer == env.id()) {
      instances_[dealer].reset();
    } else {
      instances_[dealer].emplace(dealer, tcb_config);
    }
  }

  env.schedule_at_local(pulse_local_ + config_.params.dealer_offset,
                        encode_tag(kTagDealerSend, round_));
  // The close timer fires strictly after the widened acceptance boundary so
  // that a message arriving exactly at L + W is still accepted (FIFO event
  // order would otherwise time the instance out first).
  env.schedule_at_local(
      pulse_local_ + config_.params.accept_window + 2.0 * sim::kBoundarySlack,
      encode_tag(kTagWindowClose, round_));
}

void CpsNode::do_dealer_send(sim::Env& env) {
  sim::Message m;
  m.kind = sim::MsgKind::kTcbSig;
  m.round = round_;
  m.dealer = env.id();
  m.sig = env.sign(crypto::make_pulse_payload(round_));
  env.broadcast(m);
}

TcbInstance& CpsNode::instance(NodeId dealer) {
  CS_CHECK(dealer < instances_.size() && instances_[dealer].has_value());
  return *instances_[dealer];
}

void CpsNode::on_message(sim::Env& env, const sim::Message& m) {
  if (m.kind != sim::MsgKind::kTcbSig) return;
  handle_tcb_message(env, m);
}

void CpsNode::handle_tcb_message(sim::Env& env, const sim::Message& m) {
  if (!collecting_ || m.round != round_) {
    ++stats_.stale_messages;
    return;
  }
  // Copies of our own signature and out-of-range dealers are irrelevant:
  // our own TCB instance as dealer terminated at send time.
  if (m.dealer == env.id() || m.dealer >= instances_.size()) return;
  if (m.sig.signer != m.dealer ||
      !env.verify(m.sig, crypto::make_pulse_payload(m.round))) {
    ++stats_.invalid_signatures;
    return;
  }

  TcbInstance& inst = instance(m.dealer);
  if (inst.done()) {
    maybe_finish_round(env);
    return;
  }

  const double h = env.local_now();
  if (m.sender == m.dealer) {
    if (inst.on_direct(h)) {
      // Figure 2: forward ⟨r⟩_y to all nodes at the acceptance time — even
      // when the instance is already doomed to ⊥ by an earlier echo.
      env.broadcast(m);
      if (!inst.done()) {
        env.schedule_at_local(inst.guard_deadline(),
                              encode_tag(kTagGuard, round_, m.dealer));
      }
    }
  } else {
    inst.on_third_party(h);
  }
  maybe_finish_round(env);
}

void CpsNode::on_timer(sim::Env& env, std::uint64_t tag) {
  const auto kind = static_cast<TagKind>(tag & 0x7u);
  const Round tag_round = (tag >> 3) & 0x1fffffffffULL;
  const NodeId tag_dealer = static_cast<NodeId>(tag >> 40);

  switch (kind) {
    case kTagPulse:
      CS_CHECK_MSG(tag_round == round_ + 1, "pulse timers fire in order");
      do_pulse(env);
      break;
    case kTagDealerSend:
      if (tag_round == round_ && collecting_) do_dealer_send(env);
      break;
    case kTagWindowClose:
      if (tag_round == round_ && collecting_) {
        const auto n = static_cast<NodeId>(instances_.size());
        for (NodeId dealer = 0; dealer < n; ++dealer) {
          if (instances_[dealer].has_value())
            instances_[dealer]->on_window_close();
        }
        maybe_finish_round(env);
      }
      break;
    case kTagGuard:
      if (tag_round == round_ && collecting_ &&
          instances_[tag_dealer].has_value()) {
        instances_[tag_dealer]->on_guard_elapsed();
        maybe_finish_round(env);
      }
      break;
  }
}

void CpsNode::maybe_finish_round(sim::Env& env) {
  if (!collecting_) return;
  for (const auto& inst : instances_) {
    if (inst.has_value() && !inst->done()) return;
  }

  // All TCB instances terminated: compute Δ per Figure 3.
  const auto& model = env.model();
  std::vector<double> values;
  values.reserve(model.n);
  values.push_back(0.0);  // Δ_{v,v} = 0 by definition
  std::uint32_t bots = 0;
  for (const auto& inst : instances_) {
    if (!inst.has_value()) continue;
    const std::optional<double> h = inst->output();
    if (h.has_value()) {
      const double estimate =
          *h - pulse_local_ - model.d + model.u - config_.params.S;
      values.push_back(estimate);
      ++stats_.accepted;
      if (config_.record_estimates) {
        estimates_.push_back(
            EstimateRecord{round_, inst->dealer(), false, estimate});
      }
    } else {
      ++bots;
      ++stats_.bot_estimates;
      if (config_.record_estimates) {
        estimates_.push_back(EstimateRecord{round_, inst->dealer(), true, 0.0});
      }
    }
  }

  // Figure 1's rule: every ⊥ output identifies one faulty dealer whose
  // value is already excluded, so only f − b values can hide on each side.
  // The E12 ablation instead always discards f (clamped), ignoring what ⊥
  // reveals.
  const std::size_t discard =
      config_.ablate_discard_rule
          ? std::min<std::size_t>(f_, (values.size() - 1) / 2)
          : (f_ > bots ? f_ - bots : 0);
  const double delta = trimmed_midpoint(std::move(values), discard);
  deltas_.push_back(delta);
  stats_.max_abs_delta = std::max(stats_.max_abs_delta, std::abs(delta));
  ++stats_.rounds_completed;
  collecting_ = false;

  const double target = pulse_local_ + delta + config_.params.T;
  if (sim::lt_eps(target, env.local_now())) ++stats_.negative_waits;
  env.schedule_at_local(std::max(target, env.local_now()),
                        encode_tag(kTagPulse, round_ + 1));
}

}  // namespace crusader::core
