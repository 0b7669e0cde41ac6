#include "runner/scenario.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace crusader::runner {

namespace {

/// Fold one 64-bit word into a running digest (splitmix-based; order
/// sensitive, which is what we want for a field-by-field hash).
std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept {
  return util::mix64(h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::uint64_t fold(std::uint64_t h, double value) noexcept {
  return fold(h, std::bit_cast<std::uint64_t>(value));
}

}  // namespace

const char* to_string(WorldKind kind) {
  switch (kind) {
    case WorldKind::kComplete: return "complete";
    case WorldKind::kRelay: return "relay";
    case WorldKind::kTheorem5: return "theorem5";
  }
  return "?";
}

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kComplete: return "complete";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kChordalRing: return "chordal-ring";
    case TopologyKind::kRingOfCliques: return "ring-of-cliques";
    case TopologyKind::kHypercube: return "hypercube";
    case TopologyKind::kRandomConnected: return "random";
  }
  return "?";
}

const char* to_string(CryptoMode mode) {
  switch (mode) {
    case CryptoMode::kReal: return "real";
    case CryptoMode::kAbstract: return "abstract";
  }
  return "?";
}

std::optional<WorldKind> parse_world(std::string_view s) {
  if (s == "complete" || s == "flat") return WorldKind::kComplete;
  if (s == "relay" || s == "sparse") return WorldKind::kRelay;
  if (s == "theorem5" || s == "thm5" || s == "lower-bound")
    return WorldKind::kTheorem5;
  return std::nullopt;
}

std::optional<TopologyKind> parse_topology(std::string_view s) {
  if (s == "complete") return TopologyKind::kComplete;
  if (s == "ring") return TopologyKind::kRing;
  if (s == "chordal-ring" || s == "chordal") return TopologyKind::kChordalRing;
  if (s == "ring-of-cliques" || s == "cliques")
    return TopologyKind::kRingOfCliques;
  if (s == "hypercube") return TopologyKind::kHypercube;
  if (s == "random") return TopologyKind::kRandomConnected;
  return std::nullopt;
}

std::optional<baselines::ProtocolKind> parse_protocol(std::string_view s) {
  if (s == "cps" || s == "CPS") return baselines::ProtocolKind::kCps;
  if (s == "lw" || s == "lynch-welch")
    return baselines::ProtocolKind::kLynchWelch;
  if (s == "st" || s == "srikanth-toueg")
    return baselines::ProtocolKind::kSrikanthToueg;
  if (s == "probe" || s == "flood-probe")
    return baselines::ProtocolKind::kFloodProbe;
  if (s == "gradient") return baselines::ProtocolKind::kGradient;
  if (s == "jump-max" || s == "jumpmax")
    return baselines::ProtocolKind::kJumpMax;
  return std::nullopt;
}

std::optional<sim::DelayKind> parse_delay_kind(std::string_view s) {
  if (s == "max") return sim::DelayKind::kMax;
  if (s == "min") return sim::DelayKind::kMin;
  if (s == "random") return sim::DelayKind::kRandom;
  if (s == "split") return sim::DelayKind::kSplit;
  return std::nullopt;
}

std::optional<sim::ClockKind> parse_clock_kind(std::string_view s) {
  if (s == "nominal") return sim::ClockKind::kNominal;
  if (s == "spread") return sim::ClockKind::kSpread;
  if (s == "random-walk" || s == "walk") return sim::ClockKind::kRandomWalk;
  return std::nullopt;  // kCustom needs a clock vector, not a flag
}

std::optional<relay::RelayFaultKind> parse_relay_fault(std::string_view s) {
  if (s == "crash") return relay::RelayFaultKind::kCrash;
  if (s == "max-delay" || s == "delay") return relay::RelayFaultKind::kMaxDelay;
  if (s == "reorder") return relay::RelayFaultKind::kReorder;
  if (s == "selective-drop" || s == "drop")
    return relay::RelayFaultKind::kSelectiveDrop;
  if (s == "greedy-skew" || s == "greedy")
    return relay::RelayFaultKind::kGreedySkew;
  if (s == "search") return relay::RelayFaultKind::kSearch;
  return std::nullopt;
}

std::optional<CryptoMode> parse_crypto_mode(std::string_view s) {
  if (s == "real") return CryptoMode::kReal;
  if (s == "abstract") return CryptoMode::kAbstract;
  return std::nullopt;
}

std::optional<relay::ReconnectPolicy> parse_reconnect(std::string_view s) {
  if (s == "random") return relay::ReconnectPolicy::kRandom;
  if (s == "preferential" || s == "pref")
    return relay::ReconnectPolicy::kPreferential;
  if (s == "ring-repair" || s == "repair")
    return relay::ReconnectPolicy::kRingRepair;
  return std::nullopt;
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

std::optional<core::ByzStrategy> parse_byz_strategy(std::string_view s) {
  if (s == "crash") return core::ByzStrategy::kCrash;
  if (s == "echo-rush") return core::ByzStrategy::kEchoRush;
  if (s == "split") return core::ByzStrategy::kSplit;
  if (s == "pull-early") return core::ByzStrategy::kPullEarly;
  if (s == "pull-late") return core::ByzStrategy::kPullLate;
  if (s == "replay") return core::ByzStrategy::kReplay;
  if (s == "random") return core::ByzStrategy::kRandom;
  if (s == "greedy-skew") return core::ByzStrategy::kGreedySkew;
  return std::nullopt;
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

using AxisRow = void (*)(Expansion&, ScenarioSpec&);

/// One row per axis, outermost first. An axis whose list is empty yields
/// no cells for the worlds that read it.
constexpr AxisRow kAxisRows[] = {
    axis<&SweepGrid::worlds, &ScenarioSpec::world>,
    protocol_row,
    n_row,
    axis<&SweepGrid::topologies, &ScenarioSpec::topology, on_relay>,
    fault_row,
    axis<&SweepGrid::varthetas, &ScenarioSpec::vartheta>,
    axis<&SweepGrid::us, &ScenarioSpec::u>,
    u_tilde_row,
    delay_row,
    axis<&SweepGrid::clock_kinds, &ScenarioSpec::clocks, off_theorem5>,
    axis<&SweepGrid::cryptos, &ScenarioSpec::crypto, off_theorem5>,
    axis<&SweepGrid::strategies, &ScenarioSpec::strategy, faulty_complete>,
    axis<&SweepGrid::relay_faults, &ScenarioSpec::relay_fault, faulty_relay>,
    search_budget_row,
    axis<&SweepGrid::churn_rates, &ScenarioSpec::churn_rate, reads_churn>,
    axis<&SweepGrid::join_batches, &ScenarioSpec::join_batch, reads_churn>,
    reconnect_row,
    kllo_stab_row,
};

void Expansion::next(ScenarioSpec& spec) {
  if (row == std::size(kAxisRows)) {
    if (seen.insert(spec.key()).second) specs.push_back(spec);
    return;
  }
  kAxisRows[row++](*this, spec);
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
  return std::move(x.specs);
}

}  // namespace crusader::runner
