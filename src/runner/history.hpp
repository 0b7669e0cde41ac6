#pragma once
// skew_ratio history: one appended summary line per sweep run (max/mean
// realized-vs-bound ratio per world, plus failure counts), giving the
// per-run --gate a memory. The trend gate compares the current run's
// per-world max ratio against the most recent recorded baseline and fails
// on regression, so bound-conformance drift across PRs is caught in CI
// instead of discovered in a plot months later.
//
// The line format is deliberately plain key=value text:
//
//   seed=1 grid=123456789 cells=36 errors=0 timed_out=0
//       complete:max=0.81,mean=0.42,count=30     (one line in the file)
//
// Each world token carries one max/mean/count triple per trend series
// (kTrendSeries in runner.hpp), its keys prefixed by the series' prefix:
// `relay:max=..,mean=..,count=..,lmax=..,lmean=..,lcount=..`. Optional series
// appear only when they counted a row.
//
// — greppable, diffable, append-only, and free of timestamps so identical
// sweeps write identical lines.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/runner.hpp"

namespace crusader::runner {

/// One history line: the per-world skew_ratio summary of one sweep run.
struct HistoryEntry {
  std::uint64_t seed = 0;
  /// Digest of the expanded grid + base seed (grid_digest below). Two
  /// entries are trend-comparable only when their grids match — a larger
  /// grid's legitimately higher max ratio is not a regression of a smaller
  /// one.
  std::uint64_t grid = 0;
  std::size_t cells = 0;
  std::size_t errors = 0;
  std::size_t timed_out = 0;
  struct SeriesRatio {
    double max = 0.0;
    double mean = 0.0;
    std::size_t count = 0;  ///< rows with a finite ratio
  };
  struct WorldRatio {
    WorldKind world = WorldKind::kComplete;
    /// One summary per kTrendSeries row.
    std::array<SeriesRatio, std::size(kTrendSeries)> series{};
  };
  std::vector<WorldRatio> worlds;
};

/// Order-sensitive digest of the sweep's identity: every spec key plus the
/// base seed. History entries carry it so trend checks never compare runs
/// of different grids.
[[nodiscard]] std::uint64_t grid_digest(const std::vector<ScenarioSpec>& specs,
                                        std::uint64_t base_seed) noexcept;

/// Condenses a streamed sweep summary into a history entry.
[[nodiscard]] HistoryEntry make_history_entry(const SweepSummary& summary,
                                              std::uint64_t base_seed,
                                              std::uint64_t grid = 0);

/// The entry as one history line (no trailing newline). Deterministic:
/// shortest-round-trip float formatting, worlds in first-appearance order.
[[nodiscard]] std::string format_history_line(const HistoryEntry& entry);

/// Parses one history line; nullopt for blank lines, comments (leading '#'),
/// and anything malformed.
[[nodiscard]] std::optional<HistoryEntry> parse_history_line(
    std::string_view line);

/// Last parseable entry of a history stream. nullopt when the stream holds
/// no entry (first run ever).
[[nodiscard]] std::optional<HistoryEntry> load_last_entry(std::istream& is);

/// The trend baseline for a run of grid `grid`: the last entry that is
/// comparable (same grid digest) AND complete (no errors or timeouts — a
/// run that did not fully execute understates its ratios and would turn
/// into a booby-trapped baseline). nullopt when no such entry exists.
[[nodiscard]] std::optional<HistoryEntry> load_baseline(std::istream& is,
                                                        std::uint64_t grid);

/// Appends `entry` as one line to the history file at `path`, creating it
/// with a comment header when absent. Throws std::runtime_error when the
/// file cannot be opened.
void append_history(const std::string& path, const HistoryEntry& entry);

/// Trend gate: one human-readable failure string per regression, empty =
/// pass. Fails when (a) the current run has errors or timed-out cells — a
/// run that did not fully execute cannot attest a trend — or (b) any trend
/// series' current max ratio in a world exceeds the baseline's by more than
/// `pct` percent. Worlds absent from the baseline pass (no history to regress
/// against), as do series either side did not count; `baseline` == nullopt
/// passes unless (a) applies.
[[nodiscard]] std::vector<std::string> check_trend(
    const std::optional<HistoryEntry>& baseline, const HistoryEntry& current,
    double pct);

}  // namespace crusader::runner
