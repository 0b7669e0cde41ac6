#pragma once
// The Theorem-5 construction, executable: three cyclically-symmetric
// executions Ex⁰, Ex¹, Ex² of any 3-node pulse protocol, co-simulated via
// their local views.
//
// Construction (indices mod 3), properties P of the paper:
//   * in Ex^i the faulty node is i; honest are i+1 (identity clock) and
//     i+2 (the "fast" clock: ϑ·t until t* = 2ũ/(3(ϑ−1)), then t + 2ũ/3);
//   * honest↔honest delay d; links touching the faulty node: d − ũ.
//
// Node j's local views in Ex^{j+1} and Ex^{j+2} coincide, so three view
// machines V₀,V₁,V₂ suffice. A message sent by V_k at local time L arrives
// at V_j at local time
//     X_{k→j}(L) = fast(L + d)        if j = k+1 (mod 3)
//     X_{k→j}(L) = fast⁻¹(L) + d      if j = k+2 (mod 3)
// (derived from the delay-d honest link of the execution where both are
// honest). The views are interleaved on a master timeline
//     g_j(L) = fast⁻¹(L) + (2−j)·c,   c = (d − 2ũ/3)/2 > 0,
// under which every receive is ordered at or after its send (at the
// zero-slack boundary TripleExecution::transfer relies on the engine's FIFO
// order; well-definedness of the adversary's behaviour is Lemma 18 of the
// paper).
//
// Recovered quantities: node i+1 pulses in Ex^i at real time L (identity
// clock) and node i+2 at fast⁻¹(L); the per-execution skews telescope to
//     Σ_i skew_i(r) ≥ Σ_j [L_{j,r} − fast⁻¹(L_{j,r})] = 2ũ
// once every view is past the ramp, forcing max_i skew_i ≥ 2ũ/3.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/signature.hpp"
#include "lowerbound/local_env.hpp"
#include "sim/engine.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/model.hpp"
#include "sim/world.hpp"

namespace crusader::lowerbound {

struct TripleConfig {
  /// Model handed to the protocol (n = 3, f = 1). `u_tilde` is the ũ the
  /// construction exploits on faulty links (ũ ∈ [u, d]).
  sim::ModelParams model;
  /// Stop once every view produced this many pulses (or master horizon).
  std::size_t target_rounds = 40;
  double master_horizon = 1e6;
  crypto::Pki::Kind pki_kind = crypto::Pki::Kind::kSymbolic;
};

struct TripleResult {
  /// Local pulse times per view machine.
  std::array<std::vector<double>, 3> local_pulses;
  /// Per-execution, per-round skew |p^i_{i+1,r} − p^i_{i+2,r}|.
  std::array<std::vector<double>, 3> exec_skew;
  /// Rounds measured (min pulse count across views).
  std::size_t rounds = 0;
  /// First round at which every view is past the clock ramp.
  std::size_t first_settled_round = 0;
  /// max_i max_{r ≥ settled} skew_i(r).
  double max_skew = 0.0;
  /// The Theorem-5 bound 2ũ/3.
  double bound = 0.0;
  /// Σ_i skew_i at the last settled round (≈ 2ũ; diagnostic).
  double telescoped_sum = 0.0;
};

class TripleExecution {
 public:
  TripleExecution(const TripleConfig& config, sim::HonestFactory factory);
  ~TripleExecution();

  TripleResult run();

  // --- used by ViewEnv ---
  void transfer(NodeId from, NodeId to, sim::Message m);
  sim::EventId schedule_timer(NodeId view, double local_time, std::uint64_t tag);
  void cancel(sim::EventId id);
  void note_pulse(NodeId view);

  [[nodiscard]] double fast(double t) const;      ///< the fast clock H
  [[nodiscard]] double fast_inv(double h) const;  ///< its inverse

 private:
  [[nodiscard]] double master_of(NodeId view, double local) const;

  TripleConfig config_;
  double ramp_end_ = 0.0;  ///< t* = 2ũ/(3(ϑ−1))
  double c_ = 0.0;         ///< view-offset constant (d − 2ũ/3)/2
  sim::HardwareClock fast_clock_;
  sim::Engine engine_;
  std::unique_ptr<crypto::Pki> pki_;
  std::array<std::unique_ptr<ViewEnv>, 3> views_;
  std::size_t min_pulses_ = 0;
  bool done_ = false;
};

}  // namespace crusader::lowerbound
