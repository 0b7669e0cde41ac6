#pragma once
// Derived protocol constants for Crusader Pulse Synchronization.
//
// The paper's closed forms (Theorem 17, Corollary 4) are re-derived here from
// the unambiguous proof steps, because the arXiv rendering of the constant
// expressions is OCR-mangled. The chain is:
//
//   Lemma 12 (validity error, honest dealer):
//       δ ≥ δ_valid(S) = u + (ϑ−1)d + (ϑ²+ϑ−2)·S
//   Lemma 13 (consistency error, arbitrary dealer):
//       δ ≥ δ_cons(S)  = (ϑ−1)(ϑd + (ϑ²+ϑ)S) + (1−1/ϑ)d + 2u/ϑ
//   Corollary 15 (every TCB instance finishes before the next pulse):
//       T ≥ (ϑ²+ϑ+1)·S + (ϑ+1)d − 2u
//   Lemma 16 (the skew recursion closes):
//       S·(2−ϑ) ≥ 2(2ϑ−1)·δ(S) + 2(ϑ−1)·T
//
// With δ(S) = max(δ_valid, δ_cons) and T at its minimum, the recursion is
// linear in S; the solver returns the minimal feasible S (and the matching
// T), or reports infeasibility — which happens above a threshold ϑ_max
// (our analogue of Corollary 4's ϑ ≤ 1.11).

#include <cstddef>
#include <vector>

#include "sim/model.hpp"

namespace crusader::core {

/// The Figure-1 selection rule: sort `values`, drop `discard` from each
/// end, and return the midpoint of the interval spanned by the rest. APA
/// discards max(0, f − b) per side (b = number of ⊥ outputs), CPS applies
/// the same rule to its TCB offset estimates (Figure 3), and Lynch–Welch is
/// the rule with b = 0. Throws unless more than 2·discard values are given.
[[nodiscard]] double trimmed_midpoint(std::vector<double> values,
                                      std::size_t discard);

struct CpsParams {
  bool feasible = false;
  double S = 0.0;      ///< skew bound (also the initial-offset bound)
  double T = 0.0;      ///< nominal round length
  double delta = 0.0;  ///< estimate error bound δ(S)
  double p_min = 0.0;  ///< Theorem 17: (T − (ϑ+1)S)/ϑ
  double p_max = 0.0;  ///< Theorem 17: T + 3S

  // Figure-2 window constants (local-time units).
  double accept_window = 0.0;  ///< ϑ(d + (ϑ+1)S)
  double echo_guard = 0.0;     ///< d − 2u
  double dealer_offset = 0.0;  ///< ϑ·S
};

class ParamSolver {
 public:
  explicit ParamSolver(sim::ModelParams model);

  /// Lemma 12 error bound as a function of S.
  [[nodiscard]] double delta_valid(double S) const noexcept;
  /// Lemma 13 error bound as a function of S.
  [[nodiscard]] double delta_cons(double S) const noexcept;
  [[nodiscard]] double delta(double S) const noexcept;
  /// Corollary 15 minimum round length for a given S.
  [[nodiscard]] double min_T(double S) const noexcept;

  /// Minimal feasible (S, T); `slack >= 1` scales S up (T recomputed), which
  /// benches use to show the bound is not tight-to-breaking.
  [[nodiscard]] CpsParams solve(double slack = 1.0) const;

  /// Largest vartheta (within 1e-9) for which the system stays feasible at
  /// the given d, u — the empirical Corollary 4 threshold.
  [[nodiscard]] static double max_vartheta(double d, double u);

  [[nodiscard]] const sim::ModelParams& model() const noexcept { return model_; }

 private:
  sim::ModelParams model_;
};

/// One-call helper used throughout tests/benches.
[[nodiscard]] CpsParams derive_cps_params(const sim::ModelParams& model,
                                          double slack = 1.0);

/// Lynch–Welch baseline constants: same recursion but the consistency error
/// of a faulty dealer is unbounded (no echo), so the derivation keeps only
/// δ_valid; resilience must satisfy n > 3f for convergence [25].
struct LwParams {
  bool feasible = false;
  double S = 0.0;
  double T = 0.0;
  double delta = 0.0;
  double accept_window = 0.0;
  double dealer_offset = 0.0;
};

[[nodiscard]] LwParams derive_lw_params(const sim::ModelParams& model,
                                        double slack = 1.0);

/// Srikanth–Toueg-style authenticated pulser constants: skew ≈ d by design;
/// the round spacing just has to outrun one full propagation.
struct StParams {
  double T = 0.0;       ///< local-time spacing between ready timers
  double skew = 0.0;    ///< d (up to drift over the propagation interval)
  double first_at = 0.0;///< local time of the first ready timer
};

[[nodiscard]] StParams derive_st_params(const sim::ModelParams& model);

}  // namespace crusader::core
