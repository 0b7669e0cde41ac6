// E4 — the headline comparison (paper, Section 1):
//
//   protocol         resilience     skew
//   Lynch–Welch [25] ⌈n/3⌉−1        Θ(u + (ϑ−1)d)
//   Srikanth–Toueg   ⌈n/2⌉−1        Θ(d)     (realized by the accelerator)
//   CPS (this paper) ⌈n/2⌉−1        Θ(u + (ϑ−1)d)
//
// Across a (u, ϑ) grid at fixed d = 1, CPS should track u + (ϑ−1)d while
// ST stays pinned at d-scale — the smaller u and ϑ−1, the bigger CPS's win.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "bench_common.hpp"

namespace crusader {
namespace {

/// ST under its worst-case certificate-acceleration attack.
double st_attacked_skew(const sim::ModelParams& model, std::size_t rounds,
                        std::uint64_t seed) {
  runner::ScenarioSpec spec;
  spec.set_model(model);
  spec.protocol = baselines::ProtocolKind::kSrikanthToueg;
  spec.f_actual = model.f;
  spec.rounds = rounds;
  spec.st_accelerator = true;
  return bench::run_spec(spec, seed).trace.max_skew(rounds / 4);
}

}  // namespace

int run_bench() {
  util::Table table(
      "E4: steady-state skew, CPS vs Srikanth-Toueg vs Lynch-Welch (d = 1)");
  table.set_header({"u", "vartheta", "u+(vt-1)d", "CPS skew", "CPS S bound",
                    "ST skew (attacked)", "LW skew", "ST/CPS"});

  const std::size_t rounds = 20;
  const std::uint32_t n = 7;
  const std::uint32_t f_signed = sim::ModelParams::max_faults_signed(n);
  const std::uint32_t f_plain = sim::ModelParams::max_faults_plain(n);

  for (double u : {0.002, 0.01, 0.05}) {
    for (double vartheta : {1.0005, 1.005, 1.02}) {
      const auto model = bench::bench_model(n, f_signed, u, vartheta);
      const auto cps_setup =
          baselines::make_setup(baselines::ProtocolKind::kCps, model);
      if (!cps_setup.feasible) continue;

      // CPS at full resilience under the colluding pull attack.
      const double cps_skew =
          bench::worst_steady_skew(baselines::ProtocolKind::kCps, model,
                                   f_signed, core::ByzStrategy::kPullEarly,
                                   rounds, rounds / 4, {1, 2});

      // ST at full resilience under the accelerator (its true worst case).
      const double st_skew = st_attacked_skew(model, rounds, 1);

      // LW within its resilience (f = ⌈n/3⌉−1, crash faults).
      auto lw_model = model;
      lw_model.f = f_plain;
      const double lw_skew = bench::worst_steady_skew(
          baselines::ProtocolKind::kLynchWelch, lw_model, f_plain,
          core::ByzStrategy::kCrash, rounds, rounds / 4, {1, 2});

      table.add_row(
          {util::Table::num(u, 4), util::Table::num(vartheta, 4),
           util::Table::num(u + (vartheta - 1.0) * model.d, 4),
           util::Table::num(cps_skew, 4), util::Table::num(cps_setup.cps.S, 4),
           util::Table::num(st_skew, 4), util::Table::num(lw_skew, 4),
           util::Table::num(st_skew / std::max(cps_skew, 1e-9), 1)});
    }
  }
  bench::print(table);

  util::Table summary("E4b: who wins where (expected shape)");
  summary.set_header({"claim", "expected", "observed"});
  {
    // Crossover check at the smallest u: CPS beats ST by a large factor.
    const auto model = bench::bench_model(n, f_signed, 0.002, 1.0005);
    const double cps = bench::worst_steady_skew(
        baselines::ProtocolKind::kCps, model, f_signed,
        core::ByzStrategy::kPullEarly, rounds, rounds / 4, {1});
    const double st = st_attacked_skew(model, rounds, 1);
    summary.add_row({"CPS skew << d when u << d", "ratio > 10x",
                     util::Table::num(st / std::max(cps, 1e-9), 1) + "x"});
    summary.add_row(
        {"CPS resilience", "ceil(n/2)-1 = " + std::to_string(f_signed),
         "holds (see E3)"});
    summary.add_row(
        {"LW resilience", "ceil(n/3)-1 = " + std::to_string(f_plain),
         "degrades beyond (see E7)"});
  }
  bench::print(summary);
  return 0;
}

}  // namespace crusader

int main() { return crusader::run_bench(); }
