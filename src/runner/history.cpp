#include "runner/history.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "runner/scenario.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"

namespace crusader::runner {

namespace {

using util::fmt_double;
constexpr auto fmt = fmt_double;

// Serializes in-process appends: two sweeps sharing one history file (e.g.
// a test harness driving runs on worker threads) must interleave whole
// lines, never buffered fragments. Cross-process appends remain the
// caller's concern (CI runs are sequential).
util::Mutex g_append_mu;

}  // namespace

std::uint64_t grid_digest(const std::vector<ScenarioSpec>& specs,
                          std::uint64_t base_seed) noexcept {
  std::uint64_t h = util::mix64(0x47524944ULL ^ base_seed);  // "GRID"
  for (const auto& spec : specs) h = util::mix64(h ^ spec.key());
  return h;
}

HistoryEntry make_history_entry(const SweepSummary& summary,
                                std::uint64_t base_seed,
                                std::uint64_t grid) {
  HistoryEntry entry;
  entry.seed = base_seed;
  entry.grid = grid;
  entry.cells = summary.scenarios;
  entry.errors = summary.errors;
  entry.timed_out = summary.timed_out;
  for (const auto& w : summary.worlds) {
    HistoryEntry::WorldRatio ratio;
    ratio.world = w.world;
    for (std::size_t s = 0; s < std::size(kTrendSeries); ++s) {
      auto& out = ratio.series[s];
      out.count = w.series[s].count();
      if (out.count > 0) {
        out.max = w.series[s].max();
        out.mean = w.series[s].mean();
      }
    }
    entry.worlds.push_back(ratio);
  }
  return entry;
}

std::string format_history_line(const HistoryEntry& entry) {
  std::ostringstream os;
  os << "seed=" << entry.seed << " grid=" << entry.grid
     << " cells=" << entry.cells << " errors=" << entry.errors
     << " timed_out=" << entry.timed_out;
  for (const auto& w : entry.worlds) {
    os << ' ' << to_string(w.world) << ':';
    const char* sep = "";
    for (std::size_t s = 0; s < std::size(kTrendSeries); ++s) {
      const auto& row = kTrendSeries[s];
      const auto& series = w.series[s];
      if (!row.required && series.count == 0) continue;
      os << sep << row.prefix << "max=" << fmt(series.max) << ','
         << row.prefix << "mean=" << fmt(series.mean) << ',' << row.prefix
         << "count=" << series.count;
      sep = ",";
    }
  }
  return os.str();
}

std::optional<HistoryEntry> parse_history_line(std::string_view line) {
  // Tokenize on whitespace; reject anything that is not key=value or
  // world:max=..,mean=..,count=.. so a corrupted line never half-parses
  // into a bogus baseline.
  std::istringstream tokens{std::string(line)};
  std::string token;
  HistoryEntry entry;
  bool seed_seen = false;
  bool cells_seen = false;

  auto parse_kv = [](std::string_view t, std::string_view key)
      -> std::optional<std::string_view> {
    if (t.size() <= key.size() + 1) return std::nullopt;
    if (t.substr(0, key.size()) != key || t[key.size()] != '=')
      return std::nullopt;
    return t.substr(key.size() + 1);
  };

  if (!(tokens >> token)) return std::nullopt;
  if (token.front() == '#') return std::nullopt;

  do {
    if (const auto v = parse_kv(token, "seed")) {
      const auto seed = parse_u64_strict(*v);
      if (!seed) return std::nullopt;
      entry.seed = *seed;
      seed_seen = true;
    } else if (const auto v = parse_kv(token, "grid")) {
      const auto grid = parse_u64_strict(*v);
      if (!grid) return std::nullopt;
      entry.grid = *grid;
    } else if (const auto v = parse_kv(token, "cells")) {
      const auto cells = parse_u64_strict(*v);
      if (!cells) return std::nullopt;
      entry.cells = static_cast<std::size_t>(*cells);
      cells_seen = true;
    } else if (const auto v = parse_kv(token, "errors")) {
      const auto errors = parse_u64_strict(*v);
      if (!errors) return std::nullopt;
      entry.errors = static_cast<std::size_t>(*errors);
    } else if (const auto v = parse_kv(token, "timed_out")) {
      const auto timed_out = parse_u64_strict(*v);
      if (!timed_out) return std::nullopt;
      entry.timed_out = static_cast<std::size_t>(*timed_out);
    } else {
      // world:max=..,mean=..,count=..[,<prefix>max=..,...]
      const auto colon = token.find(':');
      if (colon == std::string::npos) return std::nullopt;
      const auto world = parse_world(std::string_view(token).substr(0, colon));
      if (!world) return std::nullopt;
      HistoryEntry::WorldRatio ratio;
      ratio.world = *world;
      // Per series, the fields seen: bit 0 max, bit 1 mean, bit 2 count.
      std::array<unsigned, std::size(kTrendSeries)> seen{};
      std::string_view rest = std::string_view(token).substr(colon + 1);
      while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string_view part = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        const auto eq = part.find('=');
        if (eq == std::string_view::npos || eq + 1 == part.size())
          return std::nullopt;
        const std::string_view key = part.substr(0, eq);
        const std::string_view value = part.substr(eq + 1);
        bool known = false;
        for (std::size_t s = 0; s < std::size(kTrendSeries) && !known; ++s) {
          const std::string_view prefix = kTrendSeries[s].prefix;
          if (key.substr(0, prefix.size()) != prefix) continue;
          const std::string_view field = key.substr(prefix.size());
          auto& series = ratio.series[s];
          if (field == "max" || field == "mean") {
            const auto v = parse_double_strict(value);
            if (!v) return std::nullopt;
            (field == "max" ? series.max : series.mean) = *v;
          } else if (field == "count") {
            const auto count = parse_u64_strict(value);
            if (!count) return std::nullopt;
            series.count = static_cast<std::size_t>(*count);
          } else {
            continue;
          }
          seen[s] |= field == "max" ? 1u : field == "mean" ? 2u : 4u;
          known = true;
        }
        if (!known) return std::nullopt;
      }
      // Optional series are absent from lines of grids that never fed them
      // (and from lines older than the series); required triples are not.
      for (std::size_t s = 0; s < std::size(kTrendSeries); ++s)
        if (kTrendSeries[s].required && seen[s] != 7u) return std::nullopt;
      entry.worlds.push_back(ratio);
    }
  } while (tokens >> token);

  if (!seed_seen || !cells_seen) return std::nullopt;
  return entry;
}

std::optional<HistoryEntry> load_last_entry(std::istream& is) {
  std::optional<HistoryEntry> last;
  std::string line;
  while (std::getline(is, line)) {
    if (auto entry = parse_history_line(line)) last = std::move(entry);
  }
  return last;
}

std::optional<HistoryEntry> load_baseline(std::istream& is,
                                          std::uint64_t grid) {
  std::optional<HistoryEntry> baseline;
  std::string line;
  while (std::getline(is, line)) {
    auto entry = parse_history_line(line);
    if (!entry) continue;
    if (entry->grid != grid) continue;
    if (entry->errors > 0 || entry->timed_out > 0) continue;
    baseline = std::move(entry);
  }
  return baseline;
}

void append_history(const std::string& path, const HistoryEntry& entry) {
  util::MutexLock lock(g_append_mu);
  const bool fresh = [&] {
    std::ifstream probe(path);
    return !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
  }();
  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("cannot open history file '" + path + "'");
  if (fresh)
    os << "# crusader skew_ratio history v1: one line per sweep run; "
          "world:max is the trend-gate signal\n";
  os << format_history_line(entry) << '\n';
  if (!os) throw std::runtime_error("cannot write history file '" + path + "'");
}

std::vector<std::string> check_trend(
    const std::optional<HistoryEntry>& baseline, const HistoryEntry& current,
    double pct) {
  std::vector<std::string> failures;
  if (current.errors > 0)
    failures.push_back(std::to_string(current.errors) +
                       " errored cell(s): a run that did not fully execute "
                       "cannot attest a trend");
  if (current.timed_out > 0)
    failures.push_back(std::to_string(current.timed_out) +
                       " timed-out cell(s): a run that did not fully execute "
                       "cannot attest a trend");
  if (!baseline) return failures;
  // A world is comparable only when every required series counted rows.
  const auto comparable = [](const HistoryEntry::WorldRatio& w) {
    for (std::size_t s = 0; s < std::size(kTrendSeries); ++s)
      if (kTrendSeries[s].required && w.series[s].count == 0) return false;
    return true;
  };
  for (const auto& w : current.worlds) {
    if (!comparable(w)) continue;
    for (const auto& b : baseline->worlds) {
      if (b.world != w.world || !comparable(b)) continue;
      // A series either run did not count says nothing about its trend (a
      // baseline without churn axes says nothing about local skew). Note
      // the adaptive series' sign: a HIGHER ratio is a stronger empirical
      // worst case, but as a conformance trend the gate still reads growth
      // past the baseline as a regression of the protocol's margin.
      for (std::size_t s = 0; s < std::size(kTrendSeries); ++s) {
        const auto& cur = w.series[s];
        const auto& base = b.series[s];
        if (cur.count == 0 || base.count == 0) continue;
        // Tiny absolute epsilon so pct=0 tolerates formatting round-trips.
        const double limit = base.max * (1.0 + pct / 100.0) + 1e-12;
        if (cur.max > limit)
          failures.push_back(std::string(to_string(w.world)) + ": max " +
                             std::string(kTrendSeries[s].name) + " " +
                             fmt(cur.max) + " regressed > " + fmt(pct) +
                             "% over baseline " + fmt(base.max));
      }
      break;
    }
  }
  return failures;
}

}  // namespace crusader::runner
