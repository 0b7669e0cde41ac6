#pragma once
// Hardware clocks H_v : real time -> local time (Section 2 of the paper).
//
// Piecewise-linear, strictly increasing (all rates >= 1 > 0), hence exactly
// invertible. The adversary chooses the trajectory subject to rates in
// [1, vartheta]; builders below cover the assignments used by tests, benches
// and the lower-bound construction, and make_clocks assembles every world's
// clocks from a ClockKind.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/spelling.hpp"

namespace crusader::sim {

/// Hardware-clock assignment strategies (the adversary's clock choice).
enum class ClockKind {
  kNominal,     // all rates 1, offsets spread evenly in [0, S0]
  kSpread,      // alternating rates 1 / vartheta, extremal offsets — maximum
                // sustained drift divergence
  kRandomWalk,  // per-node random rate walk within [1, vartheta]
  kCustom,      // WorldConfig::custom_clocks (the relay world has none)
};

/// kCustom keeps its name for printing; the runner's parser refuses it, since
/// a caller-built clock vector cannot come from a flag.
inline constexpr util::Spelling<ClockKind> kClockKindSpellings[] = {
    {ClockKind::kNominal, "nominal"},
    {ClockKind::kSpread, "spread"},
    {ClockKind::kRandomWalk, "random-walk"},
    {ClockKind::kRandomWalk, "walk"},
    {ClockKind::kCustom, "custom"},
};

[[nodiscard]] const char* to_string(ClockKind kind);

/// Real-time length of each rate segment of a ClockKind::kRandomWalk clock.
inline constexpr double kRandomWalkSegment = 5.0;

/// One linear segment: for t >= t0 (until the next segment's t0),
/// H(t) = h0 + rate * (t - t0).
struct ClockSegment {
  double t0 = 0.0;
  double h0 = 0.0;
  double rate = 1.0;
};

class HardwareClock {
 public:
  /// Identity-rate clock starting at local offset `offset`.
  [[nodiscard]] static HardwareClock constant(double rate, double offset);

  /// Rate `rate_a` until real time `t_switch`, then `rate_b`. The two-phase
  /// ramp used by the Theorem 5 construction is two_phase(ϑ, t*, 1, 0).
  [[nodiscard]] static HardwareClock two_phase(double rate_a, double t_switch,
                                               double rate_b, double offset);

  /// Random-walk clock: rate re-drawn uniformly from [1, vartheta] every
  /// `segment_len` real-time units, up to `horizon` (constant afterwards).
  [[nodiscard]] static HardwareClock random_walk(util::Rng& rng, double vartheta,
                                                 double offset, double segment_len,
                                                 double horizon);

  /// Construct from explicit segments (must be contiguous and increasing).
  explicit HardwareClock(std::vector<ClockSegment> segments);

  /// H_v(t).
  [[nodiscard]] double local(double t) const;
  /// H_v^{-1}(h): the unique real time at which the local clock reads h.
  /// Requires h >= H_v(0).
  [[nodiscard]] double real(double h) const;

  [[nodiscard]] double rate_at(double t) const;
  [[nodiscard]] double min_rate() const;
  [[nodiscard]] double max_rate() const;
  [[nodiscard]] double offset() const { return segments_.front().h0; }

  /// Real time at which a timer set at real time `now` for local time `h`
  /// fires: H_v^{-1}(h), or `now` once the clock has passed h.
  [[nodiscard]] double timer_time(double h, double now) const;

  /// Validates the model constraints: rates in [1, vartheta].
  void check_valid(double vartheta) const;

  [[nodiscard]] const std::vector<ClockSegment>& segments() const {
    return segments_;
  }

 private:
  // Index of the segment containing real time t (last segment extends to
  // +infinity).
  [[nodiscard]] std::size_t segment_for_real(double t) const;
  [[nodiscard]] std::size_t segment_for_local(double h) const;

  std::vector<ClockSegment> segments_;
};

/// The n clocks of one world under `kind`; kCustom copies `custom`, which
/// must hold n clocks. Node v's random walk draws from rng.fork(0xc10c000 +
/// v) up to real time `walk_until`. Every clock is checked against the
/// model: rates in [1, vartheta] and H_v(0) in [0, initial_offset].
[[nodiscard]] std::vector<HardwareClock> make_clocks(
    ClockKind kind, std::uint32_t n, double vartheta, double initial_offset,
    double walk_until, const util::Rng& rng,
    const std::vector<HardwareClock>& custom = {});

}  // namespace crusader::sim
