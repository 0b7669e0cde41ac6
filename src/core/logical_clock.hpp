#pragma once
// Logical clocks of bounded skew and rate from pulses, by interpolation —
// the construction sketched in the paper's introduction (and [14, Ch. 9,
// §3.3.4]): use the pulse number as the target clock value and interpolate
// between consecutive pulses with the hardware clock.
//
// L_v is piecewise linear with L_v(p_{v,i}) = i·Λ (Λ = `tick`), linear in
// LOCAL time between consecutive pulses — exactly what a node can compute
// online with a one-pulse lag. With pulse skew ≤ S and period ∈
// [P_min, P_max], concurrent logical readings differ by at most
// Λ·(S/P_min + (P_max−P_min)/P_min) and rates stay within
// [Λ/(ϑ·P_max), Λ·ϑ/P_min].
//
// Kept although no runner cell reaches it: it is the introduction's
// construction, pinned at world level by LogicalClockFuzz in
// tests/test_properties.cpp and shown by examples/distributed_timestamps.

#include <cstddef>
#include <vector>

#include "sim/hardware_clock.hpp"
#include "sim/trace.hpp"

namespace crusader::core {

class LogicalClockView {
 public:
  /// Build the logical clock of node `v` from its recorded pulses.
  /// `tick` is Λ, the logical duration of one pulse interval.
  LogicalClockView(const sim::PulseTrace& trace, NodeId v, double tick);

  /// Logical reading at real time t. Defined on
  /// [first pulse, last pulse] of the node; clamps outside.
  [[nodiscard]] double at(double t) const;

  /// Domain on which the clock is exactly defined.
  [[nodiscard]] double domain_begin() const;
  [[nodiscard]] double domain_end() const;

  [[nodiscard]] double tick() const noexcept { return tick_; }

 private:
  std::vector<sim::PulseEvent> pulses_;
  double tick_;
};

/// Maximum pairwise logical-clock skew over honest nodes, sampled at `steps`
/// points across the overlap of all domains. The E-series benches and the
/// timestamping example report this.
[[nodiscard]] double max_logical_skew(const sim::PulseTrace& trace, double tick,
                                      std::size_t steps);

}  // namespace crusader::core
