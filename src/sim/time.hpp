#pragma once
// Time conventions.
//
// Real time and local (hardware-clock) time are both `double`, in abstract
// "time units" (benches typically set d = 1). We keep them as plain doubles
// for arithmetic convenience but name parameters `t`/`real` vs `h`/`local`
// consistently. All protocol-level boundary comparisons use `kTimeEps`
// tolerance so that no guarantee hinges on exact floating-point equality
// (kBoundarySlack below bounds what that tolerance costs).

namespace crusader::sim {

/// Tolerance for boundary comparisons in protocol logic. Six orders of
/// magnitude below the smallest uncertainty we simulate (u >= 1e-3).
inline constexpr double kTimeEps = 1e-9;

/// Acceptance-window slack. The paper's windows are open intervals whose
/// endpoints are *achieved* by the extremal executions our adversarial
/// worlds construct (e.g. ∥p∥ = S with maximal delays lands an honest
/// dealer's message exactly on the window close — the Lemma 10 bound with
/// equality). In continuous mathematics this is a measure-zero event; in a
/// simulator it happens exactly. Widening acceptance by this slack is
/// equivalent to running with W' = W + 1e-6, which perturbs the δ bound by
/// (ϑ−1)·1e-6 — far below every margin we assert.
inline constexpr double kBoundarySlack = 1e-6;

/// a < b with tolerance (strictly-less by more than eps).
[[nodiscard]] inline bool lt_eps(double a, double b) noexcept {
  return a < b - kTimeEps;
}

/// a <= b with tolerance.
[[nodiscard]] inline bool le_eps(double a, double b) noexcept {
  return a <= b + kTimeEps;
}

/// a in open interval (lo, hi) with tolerance applied symmetrically.
[[nodiscard]] inline bool in_open(double a, double lo, double hi) noexcept {
  return lt_eps(lo, a) && lt_eps(a, hi);
}

}  // namespace crusader::sim
