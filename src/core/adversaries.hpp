#pragma once
// Byzantine node strategies for the timed (event-driven) protocols.
//
// All strategies are model-legal: they sign only with their own keys, replay
// honest signatures only after receiving them, and request delays within
// [d − ũ, d] — the network throws ModelViolation otherwise, and tests assert
// that no strategy trips it (except where a bench intentionally configures
// ũ > u to demonstrate the Theorem-5 phenomenon).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cps.hpp"
#include "sim/node.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"
#include "util/spelling.hpp"

namespace crusader::core {

/// Silent from the start. Every honest TCB instance with this dealer times
/// out (⊥); the discard rule absorbs it.
class CrashByzantine final : public sim::ByzantineNode {
 public:
  void on_start(sim::AdversaryEnv&) override {}
  void on_message(sim::AdversaryEnv&, const sim::Message&) override {}
  void on_timer(sim::AdversaryEnv&, std::uint64_t) override {}
};

/// Re-broadcasts every honest TCB signature it receives, as early as the
/// model allows (delay d − ũ). With ũ = u this is provably harmless
/// (Lemma 10's guard absorbs it); with ũ > 2u it can force honest broadcasts
/// to be rejected — the attack motivating the paper's lower bound.
class EchoRushByzantine final : public sim::ByzantineNode {
 public:
  void on_start(sim::AdversaryEnv&) override {}
  void on_message(sim::AdversaryEnv& env, const sim::Message& m) override;
  void on_timer(sim::AdversaryEnv&, std::uint64_t) override {}

 private:
  std::unordered_set<std::uint64_t> echoed_;  // signature keys already rushed
};

/// Deviation applied by DeviantWrapper to the wrapped node's own broadcast.
struct Deviation {
  /// Added (local time) before the node's own-dealer broadcast goes out.
  double send_shift = 0.0;
  enum class DelayMode {
    kMinAll,   // earliest legal appearance everywhere (early pull)
    kMaxAll,   // latest legal appearance everywhere (late pull)
    kSplit,    // min to ids < n/2, max to the rest (tears estimates apart)
  };
  DelayMode mode = DelayMode::kSplit;
  /// kSplit only: additionally delays the SEND toward the upper half by this
  /// many local-time units. Without signatures (Lynch–Welch) nothing detects
  /// this two-faced timing, so estimates tear apart by ≈ split_shift; with
  /// CPS the echo guard of Figure 2 forces ⊥ instead (Lemma 11) — this is
  /// the E7 crossover attack.
  double split_shift = 0.0;
};

/// Runs any honest PulseNode behind a proxy Env, intercepting only the
/// node's own-dealer broadcasts (messages with dealer == self) and re-sending
/// them with the configured deviation. Everything else — timers, receipts,
/// echoes of other dealers — follows the honest protocol, which makes this
/// the strongest "stealthy" strategy: it never produces malformed traffic.
class DeviantWrapper final : public sim::ByzantineNode {
 public:
  DeviantWrapper(std::unique_ptr<sim::PulseNode> inner, Deviation deviation);
  ~DeviantWrapper() override;

  void on_start(sim::AdversaryEnv& env) override;
  void on_message(sim::AdversaryEnv& env, const sim::Message& m) override;
  void on_timer(sim::AdversaryEnv& env, std::uint64_t tag) override;

 private:
  class Proxy;
  std::unique_ptr<Proxy> proxy_;
  std::unique_ptr<sim::PulseNode> inner_;
};

/// Replays signatures from earlier rounds whenever it observes a new round —
/// exercising the round-tag filtering that Figure 2's caption calls out.
class ReplayByzantine final : public sim::ByzantineNode {
 public:
  explicit ReplayByzantine(std::uint64_t seed) : rng_(seed) {}
  void on_start(sim::AdversaryEnv&) override {}
  void on_message(sim::AdversaryEnv& env, const sim::Message& m) override;
  void on_timer(sim::AdversaryEnv&, std::uint64_t) override {}

 private:
  util::Rng rng_;
  Round max_round_seen_ = 0;
  std::vector<sim::Message> stash_;
};

/// Random mixture: occasionally signs its own (current-round) pulse payload
/// and sends it to random subsets at random legal delays; occasionally
/// replays observed traffic.
class RandomByzantine final : public sim::ByzantineNode {
 public:
  explicit RandomByzantine(std::uint64_t seed) : rng_(seed) {}
  void on_start(sim::AdversaryEnv&) override {}
  void on_message(sim::AdversaryEnv& env, const sim::Message& m) override;
  void on_timer(sim::AdversaryEnv&, std::uint64_t) override {}

 private:
  util::Rng rng_;
  std::unordered_set<std::uint64_t> signed_rounds_;
};

/// Deterministic record of the traffic an adversary overhears: per-node
/// arrival lateness relative to the first sighting of each broadcast, plus a
/// count/digest pair so tests can assert bit-exact replay of the observation
/// stream. GreedySkewByzantine keys broadcasts by round through record();
/// relay::RelayAdversary keeps a dense per-flood first-sighting table and
/// feeds observe().
class ObservationLog {
 public:
  explicit ObservationLog(std::uint32_t n);

  /// Records one overheard broadcast of `dealer` for `round` arriving at real
  /// time `now` (Byzantine nodes may read real time; honest nodes cannot).
  /// A dealer outside [0, n) (kInvalidNode, foreign traffic) is skipped.
  void record(NodeId dealer, Round round, double now);

  /// Records an arrival at `v` (< n) at real time `now` of a broadcast first
  /// sighted at `first`; `tag` names the broadcast in the digest beside v.
  void observe(NodeId v, std::uint64_t tag, double now, double first);

  /// Average lateness of the arrivals recorded at `v`; nullopt when none.
  [[nodiscard]] std::optional<double> mean_lateness(NodeId v) const {
    if (v >= late_count_.size() || late_count_[v] == 0) return std::nullopt;
    return late_sum_[v] / static_cast<double>(late_count_[v]);
  }

  /// True when `v`'s broadcasts arrive late (average lateness at or above the
  /// global mean) — the node the adversary estimates to be behind. Unobserved
  /// nodes count as lagging: with no evidence they lead, pushing them later
  /// is the safe greedy move.
  [[nodiscard]] bool lagging(NodeId v) const {
    const auto mean = mean_lateness(v);
    if (!mean || late_total_count_ == 0) return true;
    return *mean >= late_total_ / static_cast<double>(late_total_count_);
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::unordered_map<Round, double> round_first_;  // round → first arrival
  std::vector<double> late_sum_;
  std::vector<std::size_t> late_count_;
  double late_total_ = 0.0;
  std::size_t late_total_count_ = 0;
  std::size_t count_ = 0;
  std::uint64_t digest_ = 0;
};

/// Adaptive traffic-observing strategy: watches every pulse-like broadcast it
/// receives, estimates which honest nodes lead or lag from arrival lateness,
/// and two-faces its own once-per-round broadcast — earliest legal delay
/// (d − ũ) toward the leaders, full d toward the laggards. The observation-
/// driven analogue of kSplit, choosing the split from traffic instead of node
/// ids. Model-legal, so Theorem 17's bound must absorb it; tests assert it
/// does.
class GreedySkewByzantine final : public sim::ByzantineNode {
 public:
  void on_start(sim::AdversaryEnv& env) override;
  void on_message(sim::AdversaryEnv& env, const sim::Message& m) override;
  void on_timer(sim::AdversaryEnv&, std::uint64_t) override {}

  /// The deterministic observation record (null before on_start).
  [[nodiscard]] const ObservationLog* log() const noexcept {
    return log_.get();
  }

 private:
  std::unique_ptr<ObservationLog> log_;
  std::unordered_set<Round> sent_;
};

/// Srikanth–Toueg-specific attack that realizes the baseline's Θ(d) skew:
/// all faulty nodes pre-sign ⟨ready r⟩ for the rounds they observe and feed
/// the signatures (at minimum delay) to one fixed target node. The target
/// then completes its f+1 certificate the instant its own ready timer fires
/// and pulses a full message delay d before everyone else (who learn of the
/// round only via the relayed certificate). This is why ST's skew cannot
/// beat d — and why the paper's O(u + (ϑ−1)d) is a real improvement.
class StAcceleratorByzantine final : public sim::ByzantineNode {
 public:
  explicit StAcceleratorByzantine(NodeId target) : target_(target) {}
  void on_start(sim::AdversaryEnv&) override {}
  void on_message(sim::AdversaryEnv& env, const sim::Message& m) override;
  void on_timer(sim::AdversaryEnv&, std::uint64_t) override {}

 private:
  NodeId target_;
  std::unordered_set<Round> sent_;
};

/// Factory for the ST accelerator; all faulty nodes collude on `target`.
[[nodiscard]] sim::ByzantineFactory make_st_accelerator_factory(NodeId target);

/// Named strategies for parameterized tests and benches.
enum class ByzStrategy {
  kCrash,
  kEchoRush,
  kSplit,      // DeviantWrapper, split delays
  kPullEarly,  // DeviantWrapper, min delays
  kPullLate,   // DeviantWrapper, max delays + send shift
  kReplay,
  kRandom,
  kGreedySkew,  // ObservationLog-driven two-faced timing (appended last so
                // pre-existing enum values — and every spec key folding them
                // — keep their exact numeric identity)
};

inline constexpr util::Spelling<ByzStrategy> kByzStrategySpellings[] = {
    {ByzStrategy::kCrash, "crash"},
    {ByzStrategy::kEchoRush, "echo-rush"},
    {ByzStrategy::kSplit, "split"},
    {ByzStrategy::kPullEarly, "pull-early"},
    {ByzStrategy::kPullLate, "pull-late"},
    {ByzStrategy::kReplay, "replay"},
    {ByzStrategy::kRandom, "random"},
    {ByzStrategy::kGreedySkew, "greedy-skew"},
};

[[nodiscard]] const char* to_string(ByzStrategy strategy);

/// All strategies, for sweep-style tests/benches.
[[nodiscard]] const std::vector<ByzStrategy>& all_byz_strategies();

/// Builds a ByzantineFactory for the given strategy. `inner_factory` supplies
/// the honest node the Deviant strategies wrap (CPS in most benches; the
/// baselines reuse this with their own nodes). `late_shift` tunes kPullLate;
/// `split_shift` tunes kSplit's two-faced send timing.
[[nodiscard]] sim::ByzantineFactory make_byzantine_factory(
    ByzStrategy strategy, sim::HonestFactory inner_factory,
    std::uint64_t seed, double late_shift = 0.0, double split_shift = 0.0);

}  // namespace crusader::core
