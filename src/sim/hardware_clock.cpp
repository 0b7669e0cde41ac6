#include "sim/hardware_clock.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {

const char* to_string(ClockKind kind) {
  return util::spell(kClockKindSpellings, kind);
}

HardwareClock HardwareClock::constant(double rate, double offset) {
  return HardwareClock({ClockSegment{0.0, offset, rate}});
}

HardwareClock HardwareClock::two_phase(double rate_a, double t_switch,
                                       double rate_b, double offset) {
  CS_CHECK(t_switch >= 0.0);
  if (t_switch == 0.0) return constant(rate_b, offset);
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, offset, rate_a});
  segs.push_back({t_switch, offset + rate_a * t_switch, rate_b});
  return HardwareClock(std::move(segs));
}

HardwareClock HardwareClock::random_walk(util::Rng& rng, double vartheta,
                                         double offset, double segment_len,
                                         double horizon) {
  CS_CHECK(segment_len > 0.0);
  std::vector<ClockSegment> segs;
  double t = 0.0;
  double h = offset;
  while (t < horizon) {
    const double rate = rng.uniform(1.0, vartheta);
    segs.push_back({t, h, rate});
    h += rate * segment_len;
    t += segment_len;
  }
  segs.push_back({t, h, 1.0});  // quiescent tail
  return HardwareClock(std::move(segs));
}

HardwareClock::HardwareClock(std::vector<ClockSegment> segments)
    : segments_(std::move(segments)) {
  CS_CHECK_MSG(!segments_.empty(), "clock needs at least one segment");
  CS_CHECK_MSG(segments_.front().t0 == 0.0, "first segment must start at t=0");
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    CS_CHECK_MSG(segments_[i].rate > 0.0, "clock rates must be positive");
    if (i + 1 < segments_.size()) {
      const auto& cur = segments_[i];
      const auto& nxt = segments_[i + 1];
      CS_CHECK_MSG(nxt.t0 > cur.t0, "segments must be strictly increasing");
      // Continuity: the next segment must start where this one ends.
      const double end_local = cur.h0 + cur.rate * (nxt.t0 - cur.t0);
      CS_CHECK_MSG(std::abs(end_local - nxt.h0) < 1e-9,
                   "clock segments must be continuous");
    }
  }
}

std::size_t HardwareClock::segment_for_real(double t) const {
  // Find the last segment with t0 <= t. Segments are few; linear scan from
  // binary search keeps this exact and simple.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double value, const ClockSegment& s) { return value < s.t0; });
  if (it == segments_.begin()) return 0;  // t below 0: clamp to first
  return static_cast<std::size_t>(std::distance(segments_.begin(), it)) - 1;
}

std::size_t HardwareClock::segment_for_local(double h) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), h,
      [](double value, const ClockSegment& s) { return value < s.h0; });
  if (it == segments_.begin()) return 0;
  return static_cast<std::size_t>(std::distance(segments_.begin(), it)) - 1;
}

double HardwareClock::local(double t) const {
  CS_CHECK_MSG(t >= 0.0, "hardware clocks are defined for t >= 0");
  const auto& s = segments_[segment_for_real(t)];
  return s.h0 + s.rate * (t - s.t0);
}

double HardwareClock::real(double h) const {
  CS_CHECK_MSG(h >= segments_.front().h0 - 1e-12,
               "local time " << h << " precedes H(0)=" << segments_.front().h0);
  const auto& s = segments_[segment_for_local(h)];
  return s.t0 + (h - s.h0) / s.rate;
}

double HardwareClock::timer_time(double h, double now) const {
  const double t = h <= offset() ? 0.0 : real(h);
  return std::max(t, now);
}

double HardwareClock::rate_at(double t) const {
  return segments_[segment_for_real(t)].rate;
}

double HardwareClock::min_rate() const {
  double m = segments_.front().rate;
  for (const auto& s : segments_) m = std::min(m, s.rate);
  return m;
}

double HardwareClock::max_rate() const {
  double m = segments_.front().rate;
  for (const auto& s : segments_) m = std::max(m, s.rate);
  return m;
}

void HardwareClock::check_valid(double vartheta) const {
  for (const auto& s : segments_) {
    CS_CHECK_MSG(s.rate >= 1.0 - 1e-12 && s.rate <= vartheta + 1e-12,
                 "clock rate " << s.rate << " outside [1, " << vartheta << "]");
  }
}

std::vector<HardwareClock> make_clocks(
    ClockKind kind, std::uint32_t n, double vartheta, double initial_offset,
    double walk_until, const util::Rng& rng,
    const std::vector<HardwareClock>& custom) {
  const double s0 = initial_offset;
  std::vector<HardwareClock> clocks;
  clocks.reserve(n);
  switch (kind) {
    case ClockKind::kNominal:
      for (std::uint32_t v = 0; v < n; ++v) {
        const double offset = n > 1 ? s0 * v / (n - 1) : 0.0;
        clocks.push_back(HardwareClock::constant(1.0, offset));
      }
      break;
    case ClockKind::kSpread:
      for (std::uint32_t v = 0; v < n; ++v) {
        const bool fast = (v % 2) == 1;
        clocks.push_back(
            HardwareClock::constant(fast ? vartheta : 1.0, fast ? s0 : 0.0));
      }
      break;
    case ClockKind::kRandomWalk:
      for (std::uint32_t v = 0; v < n; ++v) {
        util::Rng node_rng = rng.fork(0xc10c000ULL + v);
        const double offset = node_rng.uniform(0.0, s0);
        clocks.push_back(HardwareClock::random_walk(
            node_rng, vartheta, offset, kRandomWalkSegment, walk_until));
      }
      break;
    case ClockKind::kCustom:
      CS_CHECK_MSG(custom.size() == n, "custom clocks must cover all nodes");
      clocks = custom;
      break;
  }
  for (const auto& c : clocks) {
    c.check_valid(vartheta);
    CS_CHECK_MSG(c.offset() >= -1e-12 && c.offset() <= s0 + 1e-12,
                 "clock offset " << c.offset() << " outside [0, S0=" << s0
                                 << "]");
  }
  return clocks;
}

}  // namespace crusader::sim
