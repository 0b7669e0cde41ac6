#include "runner/scenario.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace crusader::runner {

namespace {

using util::fold;

std::uint64_t fold(std::uint64_t h, double value) noexcept {
  return fold(h, std::bit_cast<std::uint64_t>(value));
}

}  // namespace

const char* to_string(WorldKind kind) {
  return util::spell(kWorldSpellings, kind);
}

const char* to_string(TopologyKind kind) {
  return util::spell(kTopologySpellings, kind);
}

const char* to_string(CryptoMode mode) {
  return util::spell(kCryptoSpellings, mode);
}

std::string CustomDelaySpec::spelling() const {
  switch (kind) {
    case Kind::kAlternate:
      return "custom:alternate";
    case Kind::kTarget:
      return "custom:target:" + std::to_string(target);
    case Kind::kFixed:
      // Shortest round-trip float formatting keeps the spelling stable
      // across locales (it is a CSV value and must parse back).
      return "custom:fixed:" + util::fmt_double(fraction);
  }
  return "custom:?";
}

std::function<std::unique_ptr<sim::DelayPolicy>()> CustomDelaySpec::factory()
    const {
  switch (kind) {
    case Kind::kAlternate:
      return [] {
        return std::make_unique<sim::AlternatingDelayPolicy>();
      };
    case Kind::kTarget:
      return [target = target] {
        return std::make_unique<sim::TargetedDelayPolicy>(target);
      };
    case Kind::kFixed:
      break;
  }
  return [fraction = fraction] {
    return std::make_unique<sim::FixedFractionDelayPolicy>(fraction);
  };
}

std::optional<CustomDelaySpec> parse_custom_delay(std::string_view s) {
  constexpr std::string_view kPrefix = "custom:";
  if (s.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  const std::string_view body = s.substr(kPrefix.size());

  CustomDelaySpec spec;
  if (body == "alternate") {
    spec.kind = CustomDelaySpec::Kind::kAlternate;
    return spec;
  }
  constexpr std::string_view kFixed = "fixed:";
  if (body.substr(0, kFixed.size()) == kFixed) {
    const auto fraction = parse_double_strict(body.substr(kFixed.size()));
    if (!fraction || *fraction < 0.0 || *fraction > 1.0) return std::nullopt;
    spec.kind = CustomDelaySpec::Kind::kFixed;
    spec.fraction = *fraction;
    return spec;
  }
  constexpr std::string_view kTarget = "target:";
  if (body.substr(0, kTarget.size()) == kTarget) {
    const auto target = parse_u64_strict(body.substr(kTarget.size()));
    if (!target || *target > UINT32_MAX) return std::nullopt;
    spec.kind = CustomDelaySpec::Kind::kTarget;
    spec.target = static_cast<std::uint32_t>(*target);
    return spec;
  }
  return std::nullopt;
}

std::optional<double> parse_double_strict(std::string_view s) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;  // reject "inf"/"nan"
  return value;
}

std::optional<std::uint64_t> parse_u64_strict(std::string_view s) {
  // from_chars on unsigned already rejects '-', but be explicit about '+'
  // too: flags spell plain digits or they are malformed.
  if (s.empty() || s.front() == '+' || s.front() == '-') return std::nullopt;
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return value;
}

sim::ModelParams ScenarioSpec::model() const {
  sim::ModelParams m;
  m.n = n;
  m.f = f;
  m.d = d;
  m.u = u;
  m.u_tilde = u_tilde;
  m.vartheta = vartheta;
  return m;
}

void ScenarioSpec::set_model(const sim::ModelParams& m) {
  n = m.n;
  f = m.f;
  d = m.d;
  u = m.u;
  u_tilde = m.u_tilde;
  vartheta = m.vartheta;
}

std::string ScenarioSpec::name() const {
  std::ostringstream os;
  if (world == WorldKind::kRelay)
    os << "relay[" << to_string(topology) << "] ";
  else if (world == WorldKind::kTheorem5)
    os << "thm5 ";
  os << baselines::to_string(protocol) << " n=" << n << " f=" << f;
  if (f_actual != f) os << " f_actual=" << f_actual;
  os << " vt=" << vartheta << " u=" << u;
  if (u_tilde != u) os << " ut=" << u_tilde;
  if (d != 1.0) os << " d=" << d;
  if (world != WorldKind::kTheorem5) {
    os << " delay="
       << (custom_delay ? custom_delay->spelling() : sim::to_string(delay));
    if (clocks != sim::ClockKind::kSpread)
      os << " clocks=" << sim::to_string(clocks);
  }
  if (f_actual > 0 && world == WorldKind::kComplete) {
    os << " byz=" << (st_accelerator ? "st-accel" : core::to_string(strategy));
    if (late_shift != 0.0) os << " late=" << late_shift;
    if (split_shift != 0.0) os << " shift=" << split_shift;
  }
  if (f_actual > 0 && world == WorldKind::kRelay) {
    os << " fault=" << relay::to_string(relay_fault);
    if (relay_fault == relay::RelayFaultKind::kSearch)
      os << " budget=" << search_budget;
  }
  if (crypto != CryptoMode::kReal) os << " crypto=" << to_string(crypto);
  if (dynamic()) {
    os << " churn=" << churn_rate;
    if (join_batch > 0) os << " join=" << join_batch;
    os << " reconnect=" << relay::to_string(reconnect);
    if (kllo_stab != 1.0) os << " kstab=" << kllo_stab;
  }
  return os.str();
}

std::uint64_t ScenarioSpec::key() const noexcept {
  std::uint64_t h = 0x435053u;  // "CPS"
  h = fold(h, static_cast<std::uint64_t>(world));
  h = fold(h, static_cast<std::uint64_t>(topology));
  h = fold(h, static_cast<std::uint64_t>(protocol));
  h = fold(h, static_cast<std::uint64_t>(n));
  h = fold(h, static_cast<std::uint64_t>(f));
  h = fold(h, static_cast<std::uint64_t>(f_actual));
  h = fold(h, d);
  h = fold(h, u);
  h = fold(h, u_tilde);
  h = fold(h, vartheta);
  h = fold(h, static_cast<std::uint64_t>(delay));
  // Absent folds differently from every present kind (offset by 1) so adding
  // a custom delay to a spec always forks its seed.
  h = fold(h, custom_delay
                  ? 1 + static_cast<std::uint64_t>(custom_delay->kind)
                  : 0);
  if (custom_delay) {
    h = fold(h, custom_delay->fraction);
    h = fold(h, static_cast<std::uint64_t>(custom_delay->target));
  }
  h = fold(h, static_cast<std::uint64_t>(clocks));
  h = fold(h, static_cast<std::uint64_t>(strategy));
  h = fold(h, static_cast<std::uint64_t>(relay_fault));
  h = fold(h, static_cast<std::uint64_t>(st_accelerator));
  h = fold(h, late_shift);
  h = fold(h, split_shift);
  h = fold(h, static_cast<std::uint64_t>(rounds));
  h = fold(h, static_cast<std::uint64_t>(warmup));
  h = fold(h, slack);
  // The crypto axis folds only when non-default, appended after every older
  // field: kReal specs keep their historical digests (and hence seeds,
  // resume journals, and history baselines) bit-for-bit.
  if (crypto != CryptoMode::kReal)
    h = fold(h, 0xab57ac7u + static_cast<std::uint64_t>(crypto));
  // Same append-at-end pattern for the dynamic axes: only an active churn
  // point forks the digest, so static cells (and with them every historical
  // seed, resume journal, and history baseline) are byte-preserved.
  if (churn_rate != 0.0 || join_batch != 0) {
    h = fold(h, std::uint64_t{0xc4124e});
    h = fold(h, churn_rate);
    h = fold(h, static_cast<std::uint64_t>(join_batch));
    h = fold(h, static_cast<std::uint64_t>(reconnect));
    // The KLLO stabilization multiplier is appended after the churn block
    // and only when it departs from the paper-faithful default, so every
    // pre-KLLO dynamic digest (and its seed, resume journal, and history
    // baseline) survives unchanged.
    if (kllo_stab != 1.0) {
      h = fold(h, std::uint64_t{0x1c1105});
      h = fold(h, kllo_stab);
    }
  }
  // The search budget matters only to kSearch cells, which did not exist
  // before this axis did — folding it conditionally at the end keeps every
  // pre-existing digest (and seed, resume journal, and history baseline)
  // byte-identical, and lets the budget axis collapse on every other kind.
  if (relay_fault == relay::RelayFaultKind::kSearch) {
    h = fold(h, std::uint64_t{0x5ea4c4});
    h = fold(h, static_cast<std::uint64_t>(search_budget));
  }
  return h;
}

std::uint32_t max_resilience(baselines::ProtocolKind protocol,
                             std::uint32_t n) noexcept {
  return protocol == baselines::ProtocolKind::kLynchWelch
             ? sim::ModelParams::max_faults_plain(n)
             : sim::ModelParams::max_faults_signed(n);
}

std::uint32_t max_topology_faults(TopologyKind kind,
                                  std::uint32_t n) noexcept {
  switch (kind) {
    case TopologyKind::kRing:
      return n >= 3 ? 1u : 0u;  // a ring is 2-connected (n = 3 is a triangle)
    case TopologyKind::kChordalRing:
      // C_n(1, 2) is 4-connected (consecutive-stride circulants are
      // maximally connected); small n degenerate toward complete, where
      // only the trivial f + 2 <= n cap binds.
      return n >= 3 ? std::min(3u, n - 2) : 0u;
    case TopologyKind::kRingOfCliques:
      // The wired family is cliques of size 4 with 2 bridges per junction:
      // cutting the ring takes both junctions (2·bridges = 4 nodes), and
      // isolating a node takes its full degree-4 neighborhood — so it
      // survives 2·bridges − 1 = 3 faults. Zero for shapes the factory
      // rejects (n not a positive multiple of 4 with at least 2 cliques).
      return (n >= 8 && n % 4 == 0) ? 3u : 0u;
    case TopologyKind::kHypercube: {
      // Connectivity of a k-cube is k = log2(n); survives k − 1 faults.
      std::uint32_t dim = 0;
      while ((1u << (dim + 1)) <= n) ++dim;
      return dim > 0 ? dim - 1 : 0u;
    }
    case TopologyKind::kComplete:
    case TopologyKind::kRandomConnected:
      return n >= 2 ? n - 2 : 0u;  // only the trivial f + 2 ≤ n cap
  }
  return 0;
}

namespace {

/// One expansion in progress. Each row of kAxisRows sets its field on the
/// partial spec and hands it to the next row; past the last row the spec is
/// a cell, kept unless a collapsed axis already produced its digest.
struct Expansion {
  const SweepGrid& grid;
  std::vector<ScenarioSpec> specs{};
  std::unordered_set<std::uint64_t> seen{};  // membership only, not iterated
  std::size_t row = 0;

  void next(ScenarioSpec& spec);
};

constexpr ScenarioSpec kDefaults{};

/// Runs the rows below once per value of `values`, stored into `field`.
template <typename Field, typename Value>
void fan(Expansion& x, ScenarioSpec& spec, Field& field,
         const std::vector<Value>& values) {
  for (const auto& value : values) {
    field = value;
    x.next(spec);
  }
}

/// Runs the rows below once, with `field` fixed at `value`.
template <typename Field>
void pin(Expansion& x, ScenarioSpec& spec, Field& field, const Field& value) {
  field = value;
  x.next(spec);
}

bool always(const ScenarioSpec&) { return true; }
bool on_relay(const ScenarioSpec& s) { return s.world == WorldKind::kRelay; }
bool off_theorem5(const ScenarioSpec& s) {
  return s.world != WorldKind::kTheorem5;
}
bool faulty_complete(const ScenarioSpec& s) {
  return s.world == WorldKind::kComplete && s.f_actual > 0;
}
bool faulty_relay(const ScenarioSpec& s) {
  return s.world == WorldKind::kRelay && s.f_actual > 0;
}
/// Churn and Byzantine relays are separate regimes, except for the adaptive
/// relay faults: an adaptive adversary under churn is exactly the regime the
/// observation-refresh machinery exists for.
bool reads_churn(const ScenarioSpec& s) {
  return s.world == WorldKind::kRelay &&
         (s.f_actual == 0 || relay::adaptive(s.relay_fault));
}

/// The common row: fans `spec.*Field` out over `grid.*List` on cells that
/// read the axis and pins it to the ScenarioSpec default on the rest.
template <auto List, auto Field, bool (*Reads)(const ScenarioSpec&) = always>
void axis(Expansion& x, ScenarioSpec& spec) {
  if (Reads(spec)) return fan(x, spec, spec.*Field, x.grid.*List);
  pin(x, spec, spec.*Field, kDefaults.*Field);
}

/// Theorem 5 skips the flood probe (run_theorem5 would report it
/// infeasible) and the neighbor-scoped gradient/jump-max pair (the
/// construction has no topology for them to be local on).
void protocol_row(Expansion& x, ScenarioSpec& spec) {
  for (const auto protocol : x.grid.protocols) {
    if (spec.world == WorldKind::kTheorem5 &&
        (protocol == baselines::ProtocolKind::kFloodProbe ||
         baselines::neighbor_cast(protocol)))
      continue;
    pin(x, spec, spec.protocol, protocol);
  }
}

/// Theorem 5 pins its construction's n = 3, even when the axis is empty.
void n_row(Expansion& x, ScenarioSpec& spec) {
  if (spec.world == WorldKind::kTheorem5) return pin(x, spec, spec.n, 3u);
  fan(x, spec, spec.n, x.grid.ns);
}

/// kMaxResilience resolves to the protocol's optimal resilience at n, on
/// relay worlds capped by what the topology's connectivity survives.
/// Theorem 5 realizes its own single faulty node (f = 1, f_actual = 0);
/// relay crashes f relays; complete instantiates f Byzantine nodes. Loads
/// that resolve alike collapse in the digest dedup.
void fault_row(Expansion& x, ScenarioSpec& spec) {
  for (const std::int64_t load : x.grid.fault_loads) {
    const bool max = load == SweepGrid::kMaxResilience;
    std::uint32_t faults = max ? max_resilience(spec.protocol, spec.n)
                               : static_cast<std::uint32_t>(load);
    if (max && spec.world == WorldKind::kRelay)
      faults = std::min(faults, max_topology_faults(spec.topology, spec.n));
    const bool thm5 = spec.world == WorldKind::kTheorem5;
    spec.f = thm5 ? 1 : faults;
    pin(x, spec, spec.f_actual, thm5 ? 0 : faults);
  }
}

/// ũ tracks u on relay worlds (the overlay has no faulty links; ũ_eff
/// tracks u_eff), when the axis is empty, and for negative values; the rest
/// clamp into the model's [u, d] so the axis composes with any u axis.
void u_tilde_row(Expansion& x, ScenarioSpec& spec) {
  if (spec.world == WorldKind::kRelay || x.grid.u_tildes.empty())
    return pin(x, spec, spec.u_tilde, spec.u);
  for (const double ut : x.grid.u_tildes)
    pin(x, spec, spec.u_tilde,
        ut < 0.0 ? spec.u : std::min(std::max(ut, spec.u), spec.d));
}

/// The DelayKind values, then the custom policies; Theorem 5 owns its
/// delays.
void delay_row(Expansion& x, ScenarioSpec& spec) {
  spec.custom_delay.reset();
  if (spec.world == WorldKind::kTheorem5)
    return pin(x, spec, spec.delay, kDefaults.delay);
  fan(x, spec, spec.delay, x.grid.delays);
  spec.delay = kDefaults.delay;
  fan(x, spec, spec.custom_delay, x.grid.custom_delays);
}

/// Search cells only; every budget tries at least one candidate, and an
/// empty axis means the default budget.
void search_budget_row(Expansion& x, ScenarioSpec& spec) {
  if (spec.relay_fault != relay::RelayFaultKind::kSearch ||
      x.grid.search_budgets.empty())
    return pin(x, spec, spec.search_budget, kDefaults.search_budget);
  for (const std::uint32_t budget : x.grid.search_budgets)
    pin(x, spec, spec.search_budget, std::max(budget, 1u));
}

/// A non-churning point is the static cell: its rate and reconnect policy
/// normalize to the defaults, so rate 0 × several policies collapses to one
/// cell.
void reconnect_row(Expansion& x, ScenarioSpec& spec) {
  if (!reads_churn(spec))
    return pin(x, spec, spec.reconnect, kDefaults.reconnect);
  const double rate = spec.churn_rate;
  const bool churning = rate > 0.0 || spec.join_batch > 0;
  if (!churning) spec.churn_rate = kDefaults.churn_rate;
  for (const auto policy : x.grid.reconnects)
    pin(x, spec, spec.reconnect, churning ? policy : kDefaults.reconnect);
  spec.churn_rate = rate;
}

/// Fault-free churning relay cells only: on a static graph the envelope's
/// edge-age decay is degenerate. An empty axis means the default 1.0.
void kllo_stab_row(Expansion& x, ScenarioSpec& spec) {
  if (spec.f_actual > 0 || !spec.dynamic() || x.grid.kllo_stabs.empty())
    return pin(x, spec, spec.kllo_stab, kDefaults.kllo_stab);
  fan(x, spec, spec.kllo_stab, x.grid.kllo_stabs);
}

/// One `--<flag>=a,b,c` list on its way into an axis: the flag as typed
/// (parse errors echo it), its row's flag and `what` (the other errors name
/// them), and the comma-separated items, empty ones dropped.
struct AxisList {
  std::string typed;
  std::string flag;
  std::string what;
  std::vector<std::string> items;
};

/// Replaces an enum axis with the list, each item read by `Parse`; the first
/// it rejects fails as "unknown <what> '<item>'".
template <auto List, auto Parse>
void names(SweepGrid& grid, const AxisList& list) {
  auto& axis = grid.*List;
  axis.clear();
  for (const auto& item : list.items) {
    const auto value = Parse(item);
    if (!value)
      throw std::invalid_argument("unknown " + list.what + " '" + item + "'");
    axis.push_back(*value);
  }
}

/// Replaces a numeric axis with the list. Each item is read by the strict
/// `Parse` (else "bad numeric value for --<typed>: '<item>'") and must
/// satisfy `InRange`, when given (else "--<flag> takes <what>, got
/// '<item>'").
template <auto List, auto Parse, auto InRange = nullptr>
void numbers(SweepGrid& grid, const AxisList& list) {
  auto& axis = grid.*List;
  axis.clear();
  for (const auto& item : list.items) {
    const auto raw = Parse(item);
    if (!raw)
      throw std::invalid_argument("bad numeric value for --" + list.typed +
                                  ": '" + item + "'");
    if constexpr (InRange != nullptr) {
      if (!InRange(*raw))
        throw std::invalid_argument("--" + list.flag + " takes " + list.what +
                                    ", got '" + item + "'");
    }
    using T = typename std::remove_reference_t<decltype(axis)>::value_type;
    axis.push_back(static_cast<T>(*raw));
  }
}

/// Counts from `Min` that fit the spec's std::uint32_t fields.
template <std::uint64_t Min>
bool count_from(std::uint64_t v) {
  return v >= Min && v <= UINT32_MAX;
}
bool rate(double r) { return r >= 0.0 && r <= 1.0; }
bool positive(double m) { return m > 0.0; }
bool above_one(double v) { return v > 1.0; }
bool non_negative(double v) { return v >= 0.0; }

/// "max" is kMaxResilience; counts past UINT32_MAX saturate just above it
/// so the range check, not the sign of an int64 cast, rejects them.
std::optional<std::int64_t> parse_fault_load(std::string_view s) {
  if (s == "max") return SweepGrid::kMaxResilience;
  const auto count = parse_u64_strict(s);
  if (!count) return std::nullopt;
  return static_cast<std::int64_t>(
      std::min<std::uint64_t>(*count, std::uint64_t{UINT32_MAX} + 1));
}
bool fault_load(std::int64_t f) {
  return f == SweepGrid::kMaxResilience || (f >= 0 && f <= UINT32_MAX);
}

/// DelayKind spellings and "custom:..." policies share one list.
void read_delays(SweepGrid& grid, const AxisList& list) {
  grid.delays.clear();
  grid.custom_delays.clear();
  for (const auto& item : list.items) {
    if (item.rfind("custom:", 0) == 0) {
      const auto custom = parse_custom_delay(item);
      if (!custom)
        throw std::invalid_argument(
            "bad custom delay '" + item +
            "' (want custom:fixed:<fraction in [0,1]>, custom:alternate, or "
            "custom:target:<node>)");
      grid.custom_delays.push_back(*custom);
    } else {
      const auto kind = parse_delay_kind(item);
      if (!kind)
        throw std::invalid_argument("unknown " + list.what + " '" + item +
                                    "'");
      grid.delays.push_back(*kind);
    }
  }
}

/// "st-accel" is the st_accelerator switch, not a strategy; a list of only
/// that keeps the crash strategy for the other faulty cells.
void read_strategies(SweepGrid& grid, const AxisList& list) {
  grid.strategies.clear();
  grid.st_accelerator = false;
  for (const auto& item : list.items) {
    if (item == "st-accel") {
      grid.st_accelerator = true;
      continue;
    }
    const auto strategy = parse_byz_strategy(item);
    if (!strategy)
      throw std::invalid_argument("unknown " + list.what + " '" + item + "'");
    grid.strategies.push_back(*strategy);
  }
  if (grid.strategies.empty()) grid.strategies = {core::ByzStrategy::kCrash};
}

struct AxisRow {
  const char* flag;  ///< --<flag>; '_' also spells '-'
  const char* what;  ///< enum lists: the item noun; numbers: their range
  void (*expand)(Expansion&, ScenarioSpec&);
  void (*read)(SweepGrid&, const AxisList&);
  const char* alias = nullptr;  ///< a second flag for the same axis
};

using Grid = SweepGrid;
using Spec = ScenarioSpec;

/// One row per axis, outermost first: its command-line flag, how expand()
/// walks it and how set_axis reads its list. An axis whose list is empty
/// yields no cells for the worlds that read it.
constexpr AxisRow kAxisRows[] = {
    {"world", "world", axis<&Grid::worlds, &Spec::world>,
     names<&Grid::worlds, parse_world>},
    {"protocols", "protocol", protocol_row,
     names<&Grid::protocols, parse_protocol>},
    {"n", "cluster sizes >= 1", n_row,
     numbers<&Grid::ns, parse_u64_strict, count_from<1>>},
    {"topology", "topology",
     axis<&Grid::topologies, &Spec::topology, on_relay>,
     names<&Grid::topologies, parse_topology>},
    {"faults", "counts >= 0 or 'max'", fault_row,
     numbers<&Grid::fault_loads, parse_fault_load, fault_load>},
    {"vartheta", "drift bounds > 1", axis<&Grid::varthetas, &Spec::vartheta>,
     numbers<&Grid::varthetas, parse_double_strict, above_one>},
    {"u", "uncertainties >= 0", axis<&Grid::us, &Spec::u>,
     numbers<&Grid::us, parse_double_strict, non_negative>},
    {"u-tilde", "", u_tilde_row,
     numbers<&Grid::u_tildes, parse_double_strict>},
    {"delays", "delay policy", delay_row, read_delays, "delay"},
    {"clocks", "clock kind",
     axis<&Grid::clock_kinds, &Spec::clocks, off_theorem5>,
     names<&Grid::clock_kinds, parse_clock_kind>},
    {"crypto", "crypto mode",
     axis<&Grid::cryptos, &Spec::crypto, off_theorem5>,
     names<&Grid::cryptos, parse_crypto_mode>},
    {"byz", "byz strategy",
     axis<&Grid::strategies, &Spec::strategy, faulty_complete>,
     read_strategies},
    {"relay-fault", "relay fault",
     axis<&Grid::relay_faults, &Spec::relay_fault, faulty_relay>,
     names<&Grid::relay_faults, parse_relay_fault>},
    {"search-budget", "counts >= 1", search_budget_row,
     numbers<&Grid::search_budgets, parse_u64_strict, count_from<1>>},
    {"churn-rate", "rates in [0,1]",
     axis<&Grid::churn_rates, &Spec::churn_rate, reads_churn>,
     numbers<&Grid::churn_rates, parse_double_strict, rate>},
    {"join-batch", "counts >= 0",
     axis<&Grid::join_batches, &Spec::join_batch, reads_churn>,
     numbers<&Grid::join_batches, parse_u64_strict, count_from<0>>},
    {"reconnect", "reconnect policy", reconnect_row,
     names<&Grid::reconnects, parse_reconnect>},
    {"kllo-stab", "multipliers > 0", kllo_stab_row,
     numbers<&Grid::kllo_stabs, parse_double_strict, positive>},
};

void Expansion::next(ScenarioSpec& spec) {
  if (row == std::size(kAxisRows)) {
    if (seen.insert(spec.key()).second) specs.push_back(spec);
    return;
  }
  kAxisRows[row++].expand(*this, spec);
  --row;
}

}  // namespace

std::vector<ScenarioSpec> SweepGrid::expand() const {
  ScenarioSpec spec;
  spec.d = d;
  spec.rounds = rounds;
  spec.warmup = warmup;
  spec.slack = slack;
  Expansion x{*this};
  x.next(spec);
  if (st_accelerator) {
    const std::size_t cells = x.specs.size();
    for (std::size_t i = 0; i < cells; ++i) {
      ScenarioSpec attack = x.specs[i];
      if (attack.protocol != baselines::ProtocolKind::kSrikanthToueg ||
          attack.world != WorldKind::kComplete || attack.f_actual == 0)
        continue;
      attack.st_accelerator = true;
      x.specs.push_back(std::move(attack));
    }
  }
  return std::move(x.specs);
}

bool SweepGrid::set_axis(std::string_view flag, std::string_view list) {
  std::string name(flag);
  std::replace(name.begin(), name.end(), '_', '-');
  const auto row = std::find_if(
      std::begin(kAxisRows), std::end(kAxisRows), [&](const AxisRow& r) {
        return name == r.flag || (r.alias && name == r.alias);
      });
  if (row == std::end(kAxisRows)) return false;
  AxisList axis{std::string(flag), row->flag, row->what, {}};
  for (std::size_t at = 0; at <= list.size();) {
    const std::size_t comma = std::min(list.find(',', at), list.size());
    if (comma > at) axis.items.emplace_back(list.substr(at, comma - at));
    at = comma + 1;
  }
  // An empty list would drop every cell that reads the axis and let a gate
  // pass vacuously; only ũ gives it a meaning (ũ = u).
  if (axis.items.empty() && axis.flag != "u-tilde")
    throw std::invalid_argument("--" + axis.flag +
                                " needs at least one value");
  row->read(*this, axis);
  return true;
}

}  // namespace crusader::runner
