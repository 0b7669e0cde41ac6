#pragma once
// Shared protocol factories: build honest-node factories for any of the three
// pulse-synchronization protocols from model parameters. Used by tests,
// benches, and the lower-bound runner.

#include <cstddef>
#include <string>

#include "core/params.hpp"
#include "sim/world.hpp"
#include "util/spelling.hpp"

namespace crusader::baselines {

/// kFloodProbe is the transport-measuring probe (baselines/flood_probe.hpp):
/// one signed beacon broadcast per round, receivers pulse on delivery. Its
/// predicted skew max(u, d·(1 − 1/ϑ)) holds for any admissible delivery, so
/// probe cells conformance-check the world/overlay rather than an algorithm.
///
/// kGradient / kJumpMax are the KLLO envelope gate's subjects
/// (sync/gradient.hpp): peer-to-peer, beacon-free protocols that exchange
/// signed round messages with their current neighbors. kGradient closes
/// clock gaps at a bounded per-round rate with midpoint delay compensation
/// (conforming); kJumpMax is the naive uncompensated jump-to-max whose
/// steady per-edge lag ~d sits above the stabilized envelope (violating).
enum class ProtocolKind {
  kCps,
  kLynchWelch,
  kSrikanthToueg,
  kFloodProbe,
  kGradient,
  kJumpMax,
};

/// The canonical names are the display names the tables and CSV print.
inline constexpr util::Spelling<ProtocolKind> kProtocolSpellings[] = {
    {ProtocolKind::kCps, "CPS"},
    {ProtocolKind::kCps, "cps"},
    {ProtocolKind::kLynchWelch, "Lynch-Welch"},
    {ProtocolKind::kLynchWelch, "lw"},
    {ProtocolKind::kLynchWelch, "lynch-welch"},
    {ProtocolKind::kSrikanthToueg, "Srikanth-Toueg"},
    {ProtocolKind::kSrikanthToueg, "st"},
    {ProtocolKind::kSrikanthToueg, "srikanth-toueg"},
    {ProtocolKind::kFloodProbe, "probe"},
    {ProtocolKind::kFloodProbe, "flood-probe"},
    {ProtocolKind::kGradient, "gradient"},
    {ProtocolKind::kJumpMax, "jump-max"},
    {ProtocolKind::kJumpMax, "jumpmax"},
};

[[nodiscard]] const char* to_string(ProtocolKind kind);

/// True for protocols that are neighbor-scoped: in relay worlds their
/// broadcasts must reach exactly the sender's current neighbors (one hop, no
/// flood) instead of the path-balanced flood overlay, because per-edge
/// locality is the property under test.
[[nodiscard]] bool neighbor_cast(ProtocolKind kind) noexcept;

/// Derived parameter bundle for whichever protocol is selected.
struct ProtocolSetup {
  ProtocolKind kind = ProtocolKind::kCps;
  core::CpsParams cps;  // valid when kind == kCps
  core::LwParams lw;    // valid when kind == kLynchWelch
  core::StParams st;    // valid when kind == kSrikanthToueg
  /// Skew the theory predicts for this protocol (S, S_lw, or d).
  double predicted_skew = 0.0;
  /// Bound on initial hardware-clock offsets the protocol assumes.
  double initial_offset = 0.0;
  /// Real-time length of one pulse round (for horizon sizing).
  double round_length = 0.0;
  bool feasible = false;

  /// Real time a world runs so that `rounds` pulse rounds fit: the initial
  /// offset plus rounds + 2 round lengths of slack.
  [[nodiscard]] double horizon(std::size_t rounds) const noexcept {
    return initial_offset + static_cast<double>(rounds + 2) * round_length;
  }
};

[[nodiscard]] ProtocolSetup make_setup(ProtocolKind kind,
                                       const sim::ModelParams& model,
                                       double slack = 1.0);

/// Honest factory for the protocol; `max_rounds` caps pulses (0 = horizon).
[[nodiscard]] sim::HonestFactory make_protocol_factory(
    const ProtocolSetup& setup, Round max_rounds = 0);

}  // namespace crusader::baselines
