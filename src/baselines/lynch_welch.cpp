#include "baselines/lynch_welch.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace crusader::baselines {

LynchWelchNode::LynchWelchNode(const LwConfig& config) : config_(config) {
  CS_CHECK_MSG(config_.params.feasible,
               "Lynch-Welch configured with infeasible parameters");
}

void LynchWelchNode::on_start(sim::Env& env) {
  const auto& model = env.model();
  f_ = config_.f == 0xffffffffu ? sim::ModelParams::max_faults_plain(model.n)
                                : config_.f;
  accepts_.resize(model.n);
  env.schedule_at_local(config_.params.S, encode_tag(kTagPulse, 1));
}

void LynchWelchNode::do_pulse(sim::Env& env) {
  ++round_;
  pulse_local_ = env.local_now();
  env.pulse();

  if (config_.max_rounds != 0 && round_ >= config_.max_rounds) return;

  collecting_ = true;
  std::fill(accepts_.begin(), accepts_.end(), std::nullopt);

  env.schedule_at_local(pulse_local_ + config_.params.dealer_offset,
                        encode_tag(kTagSend, round_));
  env.schedule_at_local(
      pulse_local_ + config_.params.accept_window + 2.0 * sim::kBoundarySlack,
      encode_tag(kTagWindowClose, round_));
}

void LynchWelchNode::on_message(sim::Env& env, const sim::Message& m) {
  if (m.kind != sim::MsgKind::kLwPulse) return;
  if (!collecting_ || m.round != round_) {
    ++stats_.stale_messages;
    return;
  }
  const NodeId from = m.sender;
  if (from >= accepts_.size() || from == env.id()) return;
  if (accepts_[from].has_value()) return;  // first message per sender counts

  const double h = env.local_now();
  // Window (L, L + W), widened by the boundary slack (see sim/time.hpp).
  if (h <= pulse_local_ - sim::kTimeEps ||
      h >= pulse_local_ + config_.params.accept_window + sim::kBoundarySlack)
    return;
  accepts_[from] = h;
}

void LynchWelchNode::on_timer(sim::Env& env, std::uint64_t tag) {
  const auto kind = static_cast<TagKind>(tag & 0x7u);
  const Round tag_round = tag >> 3;

  switch (kind) {
    case kTagPulse:
      CS_CHECK_MSG(tag_round == round_ + 1, "pulse timers fire in order");
      do_pulse(env);
      break;
    case kTagSend:
      if (tag_round == round_ && collecting_) {
        sim::Message m;
        m.kind = sim::MsgKind::kLwPulse;
        m.round = round_;
        m.dealer = env.id();
        env.broadcast(m);
      }
      break;
    case kTagWindowClose:
      if (tag_round == round_ && collecting_) finish_round(env);
      break;
  }
}

void LynchWelchNode::finish_round(sim::Env& env) {
  const auto& model = env.model();
  std::vector<double> values;
  values.reserve(model.n);
  values.push_back(0.0);  // own offset
  for (NodeId y = 0; y < model.n; ++y) {
    if (y == env.id()) continue;
    if (accepts_[y].has_value()) {
      values.push_back(*accepts_[y] - pulse_local_ - model.d + model.u -
                       config_.params.S);
    } else {
      ++stats_.missing_estimates;
    }
  }

  // Classic fault-tolerant midpoint: the Figure-1 rule with b = 0 (no ⊥
  // information without signatures, so the discard count is always f).
  // Needs 2f + 1 estimates, hence n > 3f.
  const double delta = core::trimmed_midpoint(std::move(values), f_);

  ++stats_.rounds_completed;
  collecting_ = false;

  const double target = pulse_local_ + delta + config_.params.T;
  if (sim::lt_eps(target, env.local_now())) ++stats_.negative_waits;
  env.schedule_at_local(std::max(target, env.local_now()),
                        encode_tag(kTagPulse, round_ + 1));
}

}  // namespace crusader::baselines
