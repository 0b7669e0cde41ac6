#include "sim/network.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace crusader::sim {

const char* to_string(DelayKind kind) {
  return util::spell(kDelayKindSpellings, kind);
}

std::unique_ptr<DelayPolicy> make_delay_policy(DelayKind kind, std::uint32_t n) {
  switch (kind) {
    case DelayKind::kMax: return std::make_unique<MaxDelayPolicy>();
    case DelayKind::kMin: return std::make_unique<MinDelayPolicy>();
    case DelayKind::kRandom: return std::make_unique<RandomDelayPolicy>();
    case DelayKind::kSplit: return std::make_unique<SplitDelayPolicy>(n);
  }
  CS_CHECK_MSG(false, "unknown delay kind");
  return nullptr;
}

std::unique_ptr<DelayPolicy> make_delay_policy(const DelayFactory& custom,
                                               DelayKind kind, std::uint32_t n) {
  return custom ? custom() : make_delay_policy(kind, n);
}

Network::Network(Engine& engine, ModelParams model, std::vector<bool> faulty,
                 std::unique_ptr<DelayPolicy> policy, util::Rng rng,
                 Enforcement enforcement)
    : engine_(engine),
      model_(model),
      faulty_(std::move(faulty)),
      policy_(std::move(policy)),
      rng_(rng),
      enforcement_(enforcement) {
  model_.validate();
  CS_CHECK(faulty_.size() == model_.n);
  CS_CHECK(policy_ != nullptr);
}

double Network::min_delay(NodeId from, NodeId to) const {
  const bool faulty_endpoint = faulty_.at(from) || faulty_.at(to);
  return model_.d - (faulty_endpoint ? model_.u_tilde : model_.u);
}

void Network::check_endpoints(NodeId from, NodeId to) const {
  CS_CHECK_MSG(from < model_.n, "sender " << from << " out of range");
  CS_CHECK_MSG(to < model_.n, "recipient " << to << " out of range");
  CS_CHECK_MSG(from != to, "self-sends are modeled as local computation");
}

void Network::flag(const std::string& what) {
  if (enforcement_ == Enforcement::kThrow) throw util::ModelViolation(what);
  violations_.push_back(what);
  CS_WARN << "model violation recorded: " << what;
}

bool Network::unknown_to_adversary(const crypto::Signature& sig) const {
  // Own/colluding keys are always known.
  return sig.signer != kInvalidNode && !faulty_.at(sig.signer) &&
         !knowledge_.knows(sig);
}

bool Network::adversary_knows(NodeId from, const Message& m) const {
  if (!faulty_.at(from) || !m.carries_signature()) return true;
  return !unknown_to_adversary(m.sig) &&
         std::none_of(m.sigs.begin(), m.sigs.end(),
                      [this](const crypto::Signature& s) {
                        return unknown_to_adversary(s);
                      });
}

void Network::check_adversary_knowledge(NodeId from, const Message& m) {
  if (adversary_knows(from, m)) return;
  auto check_one = [&](const crypto::Signature& sig) {
    if (!unknown_to_adversary(sig)) return;
    std::ostringstream oss;
    oss << "faulty node " << from << " sent signature of honest node "
        << sig.signer << " (payload " << sig.payload_hash
        << ") before receiving it";
    flag(oss.str());
  };
  check_one(m.sig);
  for (const auto& s : m.sigs) check_one(s);
}

void Network::count_message(const Message& m) {
  ++stats_.messages;
  ++stats_.by_kind[static_cast<std::size_t>(m.kind)];
  if (m.sig.signer != kInvalidNode) ++stats_.signatures_carried;
  stats_.signatures_carried += m.sigs.size();
}

void Network::deliver_one(NodeId to, const Message& m) {
  // The adversary learns every signature delivered to a faulty node
  // (execution well-formedness rule, Section 2).
  if (faulty_.at(to)) {
    if (m.sig.signer != kInvalidNode) knowledge_.learn(m.sig);
    for (const auto& s : m.sigs) knowledge_.learn(s);
  }
  CS_CHECK_MSG(deliver_, "network delivery hook not installed");
  deliver_(to, m);
}

void Network::enqueue(NodeId from, NodeId to, Message m, double delay) {
  m.sender = from;
  count_message(m);

  auto ref = arena_.acquire(m);
  engine_.at(engine_.now() + delay, [this, to, ref = std::move(ref)] {
    deliver_one(to, *ref);
  });
}

double Network::choose_delay(NodeId from, NodeId to, const Message& m) {
  const double lo = min_delay(from, to);
  const double hi = model_.d;
  double delay = policy_->delay(from, to, engine_.now(), m, lo, hi, rng_);
  if (delay < lo - kTimeEps || delay > hi + kTimeEps) {
    std::ostringstream oss;
    oss << "delay policy returned " << delay << " outside [" << lo << ", "
        << hi << "]";
    flag(oss.str());
    delay = std::min(std::max(delay, lo), hi);
  }
  return delay;
}

void Network::send(NodeId from, NodeId to, Message m) {
  check_endpoints(from, to);
  check_adversary_knowledge(from, m);
  const double delay = choose_delay(from, to, m);
  enqueue(from, to, std::move(m), delay);
}

void Network::broadcast(NodeId from, const Message& m) {
  CS_CHECK_MSG(from < model_.n, "sender " << from << " out of range");
  if (!batch_ || !adversary_knows(from, m)) {
    // Reference path: per-receiver sends. A broadcast the Dolev–Yao check
    // flags stays here even with batching on, because
    // check_adversary_knowledge records (or throws) once per receiver.
    // Deliveries happen only after this call returns, so the check reads
    // the same knowledge for every receiver: one passing check clears them
    // all.
    for (NodeId to = 0; to < model_.n; ++to)
      if (to != from) send(from, to, m);
    return;
  }

  if (free_walks_.empty()) {
    walks_.push_back(std::make_unique<Walk>());
    free_walks_.push_back(walks_.back().get());
  }
  // The walk leaves the pool only once it is scheduled: if a delay policy
  // throws mid-loop, the walk stays pooled and the next broadcast reuses it.
  Walk* walk = free_walks_.back();
  std::vector<Segment>& segments = walk->segments;
  segments.clear();

  // One shared payload for the whole broadcast; receivers only read it.
  Message stamped = m;
  stamped.sender = from;
  walk->ref = arena_.acquire(stamped);

  // Group maximal runs of consecutive receivers with exactly-equal delay
  // into segments (n >= 2, so there is at least one). Due times clamp to
  // now() exactly like Engine::at.
  const double now = engine_.now();
  double run_delay = 0.0;
  for (NodeId to = 0; to < model_.n; ++to) {
    if (to == from) continue;
    count_message(stamped);
    // Policies see the caller's message, exactly like send() (the sender
    // stamp happens on the payload copy, after delay selection).
    const double delay = choose_delay(from, to, m);
    if (!segments.empty() && delay == run_delay) {
      segments.back().last = to;
      ++segments.back().count;
    } else {
      run_delay = delay;
      segments.push_back(Segment{std::max(now + delay, now), to, to, 1});
    }
  }
  // The per-receiver path fires equal-time deliveries in receiver order, so
  // walk the segments by (t, position): a stable in-place insertion sort on
  // t (std::stable_sort would allocate a buffer per broadcast). Two
  // distinct delays may round to the same t.
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const Segment s = segments[i];
    std::size_t j = i;
    for (; j > 0 && segments[j - 1].t > s.t; --j) segments[j] = segments[j - 1];
    segments[j] = s;
  }

  // One queue entry for the whole broadcast. Re-arming keeps the entry's
  // sequence number, so against every other event it sorts exactly where
  // the per-segment events of the reference path would.
  free_walks_.pop_back();
  walk->next = 0;
  engine_.at(segments.front().t, [this, walk] { deliver_segment(*walk); });
}

void Network::deliver_segment(Walk& walk) {
  const Segment& seg = walk.segments[walk.next];
  // Credit the engine so events_processed() reports per-receiver logical
  // events.
  engine_.credit_events(seg.count - 1);
  const NodeId skip = walk.ref->sender;
  for (NodeId to = seg.first; to <= seg.last; ++to) {
    if (to == skip) continue;
    deliver_one(to, *walk.ref);
  }
  if (++walk.next < walk.segments.size()) {
    engine_.repeat_at(walk.segments[walk.next].t);
    return;
  }
  walk.ref = {};
  free_walks_.push_back(&walk);
}

void Network::send_with_delay(NodeId from, NodeId to, Message m, double delay) {
  check_endpoints(from, to);
  CS_CHECK_MSG(faulty_.at(from), "send_with_delay is a Byzantine capability");
  check_adversary_knowledge(from, m);
  const double lo = min_delay(from, to);
  const double hi = model_.d;
  if (delay < lo - kTimeEps || delay > hi + kTimeEps) {
    std::ostringstream oss;
    oss << "Byzantine node " << from << " requested delay " << delay
        << " outside [" << lo << ", " << hi << "] toward node " << to;
    flag(oss.str());
    delay = std::min(std::max(delay, lo), hi);
  }
  enqueue(from, to, std::move(m), delay);
}

}  // namespace crusader::sim
