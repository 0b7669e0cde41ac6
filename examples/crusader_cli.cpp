// crusader_cli — command-line driver for one-off experiments.
//
//   crusader_cli [--protocol cps|lw|st] [--n N] [--faulty F] [--u U] [--d D]
//                [--theta T] [--strategy crash|echo-rush|split|pull-early|
//                 pull-late|replay|random|greedy-skew] [--rounds R] [--seed S]
//                [--clocks nominal|spread|walk] [--delays max|min|random|split]
//                [--topology complete|ring|chordal-ring|ring-of-cliques|
//                 hypercube|random]
//                [--lower-bound] [--u-tilde U] [--csv]
//
// Enum flags take sweep_cli's spellings (runner::parse_*). A --topology other
// than complete runs the protocol over sweep_cli's relay graph of that family
// (crashing the --faulty relays) instead of the complete world; a size the
// family does not come in exits 2.
//
// Examples:
//   crusader_cli --n 9 --faulty 4 --strategy split
//   crusader_cli --protocol st --n 7 --faulty 3
//   crusader_cli --lower-bound --u-tilde 0.3
//   crusader_cli --topology cliques --n 12 --faulty 2
//   crusader_cli --protocol st --topology ring --n 8 --faulty 1

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "baselines/factories.hpp"
#include "sim/trace_io.hpp"
#include "core/adversaries.hpp"
#include "lowerbound/theorem5.hpp"
#include "relay/flood_world.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace crusader;

namespace {

struct Options {
  baselines::ProtocolKind protocol = baselines::ProtocolKind::kCps;
  std::uint32_t n = 7;
  std::optional<std::uint32_t> faulty;  // default: max for the protocol
  double u = 0.05;
  double d = 1.0;
  double theta = 1.01;
  double u_tilde = -1.0;  // default: = u
  core::ByzStrategy strategy = core::ByzStrategy::kSplit;
  std::size_t rounds = 25;
  std::uint64_t seed = 1;
  sim::ClockKind clocks = sim::ClockKind::kSpread;
  sim::DelayKind delays = sim::DelayKind::kRandom;
  runner::TopologyKind topology = runner::TopologyKind::kComplete;
  bool lower_bound = false;
  bool csv = false;
  std::string pulses_csv;  // --pulses-csv FILE: raw pulse trace export
  std::string rounds_csv;  // --rounds-csv FILE: per-round skew export
};

void export_traces(const Options& opt, const sim::PulseTrace& trace) {
  if (!opt.pulses_csv.empty()) {
    std::ofstream out(opt.pulses_csv);
    sim::write_pulses_csv(trace, out);
    std::cerr << "wrote " << opt.pulses_csv << "\n";
  }
  if (!opt.rounds_csv.empty()) {
    std::ofstream out(opt.rounds_csv);
    sim::write_rounds_csv(trace, out);
    std::cerr << "wrote " << opt.rounds_csv << "\n";
  }
}

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n";
  std::cerr <<
      "usage: crusader_cli [--protocol cps|lw|st] [--n N] [--faulty F]\n"
      "  [--u U] [--d D] [--theta T] [--u-tilde U] [--rounds R] [--seed S]\n"
      "  [--strategy crash|echo-rush|split|pull-early|pull-late|replay|random|\n"
      "   greedy-skew] [--clocks nominal|spread|walk]\n"
      "  [--delays max|min|random|split]\n"
      "  [--topology complete|ring|chordal-ring|ring-of-cliques|hypercube|\n"
      "   random] [--lower-bound] [--csv]\n";
  std::exit(2);
}

/// runner::parse_protocol narrowed to the pulse protocols this driver wires.
std::optional<baselines::ProtocolKind> parse_pulse_protocol(
    std::string_view s) {
  const auto protocol = runner::parse_protocol(s);
  if (protocol == baselines::ProtocolKind::kCps ||
      protocol == baselines::ProtocolKind::kLynchWelch ||
      protocol == baselines::ProtocolKind::kSrikanthToueg)
    return protocol;
  return std::nullopt;
}

std::optional<std::uint32_t> parse_u32(std::string_view s) {
  const auto value = runner::parse_u64_strict(s);
  if (!value || *value > UINT32_MAX) return std::nullopt;
  return static_cast<std::uint32_t>(*value);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // This flag's value, read by `parse` in need(); a missing or malformed
    // value exits 2 naming the flag.
    const auto text = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    const auto need = [&](auto parse) {
      const std::string value = text();
      const auto parsed = parse(value);
      if (!parsed) usage("bad value for " + arg + ": '" + value + "'");
      return *parsed;
    };
    if (arg == "--protocol") {
      opt.protocol = need(parse_pulse_protocol);
    } else if (arg == "--n") {
      opt.n = need(parse_u32);
    } else if (arg == "--faulty") {
      opt.faulty = need(parse_u32);
    } else if (arg == "--u") {
      opt.u = need(runner::parse_double_strict);
    } else if (arg == "--d") {
      opt.d = need(runner::parse_double_strict);
    } else if (arg == "--theta") {
      opt.theta = need(runner::parse_double_strict);
    } else if (arg == "--u-tilde") {
      opt.u_tilde = need(runner::parse_double_strict);
    } else if (arg == "--rounds") {
      opt.rounds = need(runner::parse_u64_strict);
    } else if (arg == "--seed") {
      opt.seed = need(runner::parse_u64_strict);
    } else if (arg == "--strategy") {
      opt.strategy = need(runner::parse_byz_strategy);
    } else if (arg == "--clocks") {
      opt.clocks = need(runner::parse_clock_kind);
    } else if (arg == "--delays") {
      opt.delays = need(runner::parse_delay_kind);
    } else if (arg == "--topology") {
      opt.topology = need(runner::parse_topology);
    } else if (arg == "--lower-bound") {
      opt.lower_bound = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--pulses-csv") {
      opt.pulses_csv = text();
    } else if (arg == "--rounds-csv") {
      opt.rounds_csv = text();
    } else if (arg == "--help" || arg == "-h") {
      usage("");
    } else {
      usage("unknown flag " + arg);
    }
  }
  return opt;
}

void emit(const util::Table& table, bool csv) {
  if (csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
}

int run_lower_bound(const Options& opt) {
  sim::ModelParams model;
  model.n = 3;
  model.f = 1;
  model.d = opt.d;
  model.u = opt.u;
  model.u_tilde = opt.u_tilde > 0 ? opt.u_tilde : opt.u;
  model.vartheta = opt.theta > 1.0 ? opt.theta : 1.05;

  const auto report =
      lowerbound::run_theorem5(opt.protocol, model, opt.rounds);
  if (!report.feasible) {
    std::cerr << "crusader_cli: " << baselines::to_string(opt.protocol)
              << " constants are unsolvable for this model; the construction "
                 "did not run\n";
    return 1;
  }
  util::Table table("Theorem 5 lower bound");
  table.set_header({"metric", "value"});
  table.add_row({"protocol", baselines::to_string(opt.protocol)});
  table.add_row({"u_tilde", util::Table::num(model.u_tilde, 4)});
  table.add_row({"bound 2*u_tilde/3", util::Table::num(report.bound, 4)});
  table.add_row({"realized skew", util::Table::num(report.max_skew, 4)});
  table.add_row({"telescoped sum", util::Table::num(report.telescoped_sum, 4)});
  table.add_row({"rounds measured", std::to_string(report.rounds)});
  table.add_row({"bound holds", util::Table::boolean(report.bound_holds)});
  emit(table, opt.csv);
  return report.bound_holds ? 0 : 1;
}

int run_sparse(const Options& opt, const sim::ModelParams& hop_model,
               std::uint32_t f_actual) {
  relay::RelayConfig config;
  config.hop_model = hop_model;
  // The fault budget a sparse topology can carry is set by its connectivity,
  // not by ⌈n/2⌉−1; tolerate exactly the requested faults.
  config.hop_model.f = std::max(f_actual, 1u);
  runner::ScenarioSpec spec;
  spec.topology = opt.topology;
  spec.n = opt.n;
  spec.f = config.hop_model.f;
  const std::string family = runner::to_string(opt.topology);
  try {
    config.topology = runner::relay_topology(spec, opt.seed);
  } catch (const util::CheckFailure&) {
    usage("no " + family + " topology with n = " + std::to_string(opt.n));
  }
  config.seed = opt.seed;
  config.clock_kind = opt.clocks;
  config.delay_kind = opt.delays;
  config.faulty = sim::default_faulty_set(f_actual);

  const auto effective = relay::compute_effective(config);
  const auto setup = baselines::make_setup(opt.protocol, effective.model);
  if (!setup.feasible) {
    std::cerr << "infeasible effective parameters\n";
    return 1;
  }
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(opt.rounds + 2) * setup.round_length;

  relay::RelayWorld world(config, baselines::make_protocol_factory(setup),
                          effective);
  const auto result = world.run();

  util::Table table(std::string(baselines::to_string(opt.protocol)) +
                    " over sparse topology '" + family + "'");
  table.set_header({"metric", "value", "bound"});
  table.add_row({"worst hops D_f", std::to_string(result.worst_hops), "-"});
  table.add_row({"d_eff / u_eff",
                 util::Table::num(effective.model.d, 3) + " / " +
                     util::Table::num(effective.model.u, 3),
                 "-"});
  table.add_row({"rounds", std::to_string(result.trace.complete_rounds()), "-"});
  table.add_row({"worst skew", util::Table::num(result.trace.max_skew(), 4),
                 util::Table::num(setup.predicted_skew, 4)});
  table.add_row({"physical messages", std::to_string(result.physical_messages),
                 "-"});
  emit(table, opt.csv);
  export_traces(opt, result.trace);
  return result.trace.max_skew() <= setup.predicted_skew + 1e-9 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  if (opt.lower_bound) return run_lower_bound(opt);

  sim::ModelParams model;
  model.n = opt.n;
  model.f = opt.protocol == baselines::ProtocolKind::kLynchWelch
                ? sim::ModelParams::max_faults_plain(opt.n)
                : sim::ModelParams::max_faults_signed(opt.n);
  model.d = opt.d;
  model.u = opt.u;
  model.u_tilde = opt.u_tilde > 0 ? opt.u_tilde : opt.u;
  model.vartheta = opt.theta;
  const std::uint32_t f_actual = opt.faulty.value_or(model.f);
  if (f_actual > model.f) usage("--faulty exceeds the protocol's resilience");

  if (opt.topology != runner::TopologyKind::kComplete)
    return run_sparse(opt, model, f_actual);

  const auto setup = baselines::make_setup(opt.protocol, model);
  if (!setup.feasible) {
    std::cerr << "infeasible parameters (vartheta too large?)\n";
    return 1;
  }

  auto honest = baselines::make_protocol_factory(setup);
  sim::ByzantineFactory byz;
  if (f_actual > 0)
    byz = core::make_byzantine_factory(opt.strategy, honest, opt.seed, 0.1,
                                       0.1);

  sim::WorldConfig config;
  config.model = model;
  config.seed = opt.seed;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(opt.rounds + 2) * setup.round_length;
  config.clock_kind = opt.clocks;
  config.delay_kind = opt.delays;
  config.faulty = sim::default_faulty_set(f_actual);

  sim::World world(config, honest, byz);
  const auto result = world.run();

  util::Table table(std::string(baselines::to_string(opt.protocol)) +
                    ", n=" + std::to_string(opt.n) +
                    ", f_actual=" + std::to_string(f_actual) + " (" +
                    core::to_string(opt.strategy) + ")");
  table.set_header({"metric", "value", "bound"});
  table.add_row({"rounds", std::to_string(result.trace.complete_rounds()), "-"});
  table.add_row({"worst skew", util::Table::num(result.trace.max_skew(), 4),
                 util::Table::num(setup.predicted_skew, 4)});
  table.add_row({"steady skew",
                 result.trace.complete_rounds() > opt.rounds / 3
                     ? util::Table::num(result.trace.max_skew(opt.rounds / 3), 4)
                     : "-",
                 "-"});
  table.add_row({"min period", util::Table::num(result.trace.min_period(), 4),
                 "-"});
  table.add_row({"max period", util::Table::num(result.trace.max_period(), 4),
                 "-"});
  table.add_row({"messages", std::to_string(result.messages), "-"});
  table.add_row({"violations", std::to_string(result.violations.size()), "0"});
  emit(table, opt.csv);
  export_traces(opt, result.trace);

  return result.trace.live(opt.rounds) ? 0 : 1;
}
