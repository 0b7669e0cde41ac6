#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::core {

double trimmed_midpoint(std::vector<double> values, std::size_t discard) {
  CS_CHECK_MSG(values.size() > 2 * discard,
               "discarding " << discard << " per side leaves nothing of "
                             << values.size());
  std::sort(values.begin(), values.end());
  return (values[discard] + values[values.size() - 1 - discard]) / 2.0;
}

ParamSolver::ParamSolver(sim::ModelParams model) : model_(model) {
  model_.validate();
}

double ParamSolver::delta_valid(double S) const noexcept {
  const double vt = model_.vartheta;
  return model_.u + (vt - 1.0) * model_.d + (vt * vt + vt - 2.0) * S;
}

double ParamSolver::delta_cons(double S) const noexcept {
  const double vt = model_.vartheta;
  return (vt - 1.0) * (vt * model_.d + (vt * vt + vt) * S) +
         (1.0 - 1.0 / vt) * model_.d + 2.0 * model_.u / vt;
}

double ParamSolver::delta(double S) const noexcept {
  return std::max(delta_valid(S), delta_cons(S));
}

double ParamSolver::min_T(double S) const noexcept {
  const double vt = model_.vartheta;
  return (vt * vt + vt + 1.0) * S + (vt + 1.0) * model_.d - 2.0 * model_.u;
}

CpsParams ParamSolver::solve(double slack) const {
  CS_CHECK_MSG(slack >= 1.0, "slack must be >= 1");
  const double vt = model_.vartheta;
  const double d = model_.d;
  const double u = model_.u;

  // δ_i(S) = a_i + b_i·S for the two error bounds.
  const double a_valid = u + (vt - 1.0) * d;
  const double b_valid = vt * vt + vt - 2.0;
  const double a_cons =
      (vt - 1.0) * vt * d + (1.0 - 1.0 / vt) * d + 2.0 * u / vt;
  const double b_cons = (vt - 1.0) * (vt * vt + vt);

  // T(S) = tS·S + tc (Corollary 15, at the minimum).
  const double tS = vt * vt + vt + 1.0;
  const double tc = (vt + 1.0) * d - 2.0 * u;

  // Lemma 16 closes iff S·(2−ϑ) ≥ 2(2ϑ−1)(a_i + b_i S) + 2(ϑ−1)(tS·S + tc)
  // for BOTH error bounds, i.e. S ≥ β_i / den_i with den_i > 0.
  CpsParams out;
  double s_req = 0.0;
  for (const auto& [a, b] : {std::pair{a_valid, b_valid},
                             std::pair{a_cons, b_cons}}) {
    const double den =
        (2.0 - vt) - 2.0 * (2.0 * vt - 1.0) * b - 2.0 * (vt - 1.0) * tS;
    const double beta = 2.0 * (2.0 * vt - 1.0) * a + 2.0 * (vt - 1.0) * tc;
    if (den <= 0.0) {
      out.feasible = false;
      return out;
    }
    s_req = std::max(s_req, beta / den);
  }

  out.feasible = true;
  out.S = s_req * slack;
  out.T = min_T(out.S);
  out.delta = delta(out.S);
  out.p_min = (out.T - (vt + 1.0) * out.S) / vt;
  out.p_max = out.T + 3.0 * out.S;
  out.accept_window = vt * (d + (vt + 1.0) * out.S);
  out.echo_guard = d - 2.0 * u;
  out.dealer_offset = vt * out.S;

  CS_CHECK_MSG(out.p_min > 0.0, "derived P_min must be positive");
  return out;
}

double ParamSolver::max_vartheta(double d, double u) {
  double lo = 1.0 + 1e-9;  // feasible
  double hi = 2.0;         // infeasible (the (2−ϑ) factor alone kills it)
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    sim::ModelParams m;
    m.n = 3;
    m.f = 1;
    m.d = d;
    m.u = u;
    m.u_tilde = u;
    m.vartheta = mid;
    const bool ok = ParamSolver(m).solve().feasible;
    (ok ? lo : hi) = mid;
  }
  return lo;
}

CpsParams derive_cps_params(const sim::ModelParams& model, double slack) {
  return ParamSolver(model).solve(slack);
}

LwParams derive_lw_params(const sim::ModelParams& model, double slack) {
  CS_CHECK_MSG(slack >= 1.0, "slack must be >= 1");
  const double vt = model.vartheta;
  const double d = model.d;
  const double u = model.u;

  const double a = u + (vt - 1.0) * d;     // δ_valid intercept
  const double b = vt * vt + vt - 2.0;      // δ_valid slope
  const double tS = vt * vt + vt + 1.0;
  const double tc = (vt + 1.0) * d - 2.0 * u;

  LwParams out;
  const double den =
      (2.0 - vt) - 2.0 * (2.0 * vt - 1.0) * b - 2.0 * (vt - 1.0) * tS;
  if (den <= 0.0) {
    out.feasible = false;
    return out;
  }
  const double beta = 2.0 * (2.0 * vt - 1.0) * a + 2.0 * (vt - 1.0) * tc;
  out.feasible = true;
  out.S = (beta / den) * slack;
  out.T = tS * out.S + tc;
  out.delta = a + b * out.S;
  out.accept_window = vt * (d + (vt + 1.0) * out.S);
  out.dealer_offset = vt * out.S;
  return out;
}

StParams derive_st_params(const sim::ModelParams& model) {
  StParams out;
  // After one node's ready timer fires, a pulse certificate reaches everyone
  // within 2d; spacing rounds 4·ϑ·d apart keeps rounds cleanly separated even
  // under maximal drift and Byzantine acceleration by one full propagation.
  out.T = 4.0 * model.vartheta * model.d;
  out.skew = model.d;
  out.first_at = out.T;
  return out;
}

}  // namespace crusader::core
