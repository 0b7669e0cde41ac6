#include "runner/campaign.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "runner/export.hpp"

namespace crusader::runner {

namespace {

constexpr std::string_view kManifestMagic = "# crusader-sweep-manifest v1";

[[noreturn]] void bail(const std::string& what) {
  throw std::runtime_error("campaign: " + what);
}

/// Whole file as a string; nullopt when it does not exist.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

struct Manifest {
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> keys;
};

Manifest parse_manifest(const std::string& path, std::string content,
                        std::uint64_t expected_seed) {
  // A kill can tear the final digest mid-write; a partial line without its
  // newline would otherwise parse as a valid-but-truncated number and make
  // the prefix check refuse a perfectly resumable campaign. Only complete
  // (newline-terminated) lines count.
  const auto last_newline = content.rfind('\n');
  content.resize(last_newline == std::string::npos ? 0 : last_newline + 1);

  // A kill between the fresh CSV flush and the manifest header flush leaves
  // the manifest created but empty (or header-torn): that is a campaign
  // with zero recorded rows, not an unusable file.
  if (content.empty()) return Manifest{expected_seed, {}};

  Manifest manifest;
  std::istringstream is(content);
  std::string line;
  if (!std::getline(is, line) ||
      std::string_view(line).substr(0, kManifestMagic.size()) !=
          kManifestMagic)
    bail("'" + path + "' is not a sweep manifest");
  const auto seed_at = line.find(" seed=");
  if (seed_at == std::string::npos) bail("'" + path + "' has no seed");
  const auto seed = parse_u64_strict(std::string_view(line).substr(seed_at + 6));
  if (!seed) bail("'" + path + "' has a malformed seed");
  manifest.seed = *seed;
  while (std::getline(is, line)) {
    if (line.empty()) continue;  // tolerate a torn trailing newline
    const auto key = parse_u64_strict(line);
    // A torn final digest (killed mid-write) ends the usable prefix; rows
    // past it simply re-run.
    if (!key) break;
    manifest.keys.push_back(*key);
  }
  return manifest;
}

/// Where a replayed CSV column lands in the ScenarioResult; the member's
/// type says how the cell is read: a "1" flag, a count (0 when malformed),
/// a double (NaN when empty), or the string as is.
using ReplayMember =
    std::variant<bool ScenarioResult::*, std::size_t ScenarioResult::*,
                 double ScenarioResult::*, std::string ScenarioResult::*>;

struct ReplayField {
  std::string_view column;
  ReplayMember member;
};

/// Every column the replay restores, in header-resolution order. The seed
/// column is not restored but checked against the spec-derived seed.
constexpr ReplayField kReplayFields[] = {
    {"feasible", &ScenarioResult::feasible},
    {"live", &ScenarioResult::live},
    {"rounds_completed", &ScenarioResult::rounds_completed},
    {"within_bound", &ScenarioResult::within_bound},
    {"skew_ratio", &ScenarioResult::skew_ratio},
    {"local_skew", &ScenarioResult::local_skew},
    {"local_skew_ratio", &ScenarioResult::local_skew_ratio},
    // Replayed so resumed campaigns feed --gate-kllo and the history
    // k-tokens identically to a fresh run.
    {"kllo_ratio", &ScenarioResult::kllo_ratio},
    {"edge_age_min", &ScenarioResult::edge_age_min},
    {"timed_out", &ScenarioResult::timed_out},
    {"error", &ScenarioResult::error},
};
constexpr std::size_t kReplayCount = std::size(kReplayFields);

/// Column indices the replay needs, resolved from the header once: the seed
/// column, then one per kReplayFields entry.
struct ReplayColumns {
  std::size_t seed;
  std::array<std::size_t, kReplayCount> fields;
  std::size_t last;  ///< the largest index; shorter rows are malformed
};

ReplayColumns resolve_columns(const std::vector<std::string>& header) {
  auto find = [&](std::string_view name) {
    for (std::size_t i = 0; i < header.size(); ++i)
      if (header[i] == name) return i;
    bail("recorded CSV lacks column '" + std::string(name) + "'");
  };
  ReplayColumns columns{};
  columns.seed = find("seed");
  columns.last = columns.seed;
  for (std::size_t f = 0; f < kReplayCount; ++f) {
    columns.fields[f] = find(kReplayFields[f].column);
    columns.last = std::max(columns.last, columns.fields[f]);
  }
  return columns;
}

/// Restores one recorded cell into its ScenarioResult member.
void replay_cell(const ReplayMember& member, const std::string& cell,
                 ScenarioResult& result) {
  std::visit(
      [&](auto m) {
        using T = std::remove_reference_t<decltype(result.*m)>;
        if constexpr (std::is_same_v<T, bool>) {
          result.*m = cell == "1";
        } else if constexpr (std::is_same_v<T, std::size_t>) {
          const auto count = parse_u64_strict(cell);
          result.*m = count ? static_cast<std::size_t>(*count) : 0;
        } else if constexpr (std::is_same_v<T, double>) {
          const auto value = parse_double_strict(cell);
          result.*m = value ? *value : ScenarioResult::kNan;
        } else {
          result.*m = cell;
        }
      },
      member);
}

}  // namespace

CsvCampaign::CsvCampaign(Options options,
                         const std::vector<ScenarioSpec>& specs,
                         const ReplayFn& replay)
    : options_(std::move(options)) {
  expected_keys_.reserve(specs.size());
  for (const auto& spec : specs) expected_keys_.push_back(spec.key());

  const std::string header = csv_header();
  const auto csv_content = slurp(options_.csv_path);

  if (!csv_content || csv_content->empty()) {
    // Fresh campaign: write the header and an empty manifest.
    csv_.open(options_.csv_path, std::ios::binary | std::ios::trunc);
    if (!csv_) bail("cannot open CSV '" + options_.csv_path + "'");
    csv_ << header << '\n';
    csv_.flush();
    manifest_.open(options_.manifest_path, std::ios::binary | std::ios::trunc);
    if (!manifest_) bail("cannot open manifest '" + options_.manifest_path + "'");
    manifest_ << kManifestMagic << " seed=" << options_.base_seed << '\n';
    manifest_.flush();
    return;
  }

  // Existing campaign: reconcile CSV and manifest, keeping the shorter of
  // the two prefixes (a kill can leave either file ahead of the other; an
  // external truncation leaves the CSV behind the manifest).
  const auto manifest_content = slurp(options_.manifest_path);
  if (!manifest_content)
    bail("CSV '" + options_.csv_path + "' exists but manifest '" +
         options_.manifest_path +
         "' does not; delete the CSV to start the campaign over");
  const auto manifest = parse_manifest(options_.manifest_path,
                                       *manifest_content, options_.base_seed);
  if (manifest.seed != options_.base_seed)
    bail("manifest seed " + std::to_string(manifest.seed) +
         " does not match --seed " + std::to_string(options_.base_seed));

  const auto ends = csv_record_ends(*csv_content);
  if (ends.empty() ||
      std::string_view(*csv_content).substr(0, ends[0] - 1) != header)
    bail("CSV '" + options_.csv_path +
         "' does not start with the current schema header; was it written by "
         "a different build?");
  const std::size_t rows = ends.size() - 1;

  done_ = std::min(rows, manifest.keys.size());
  if (done_ > specs.size())
    bail("recorded campaign has " + std::to_string(done_) +
         " rows but the grid expands to only " + std::to_string(specs.size()) +
         " specs; this is a different sweep");
  for (std::size_t i = 0; i < done_; ++i)
    if (manifest.keys[i] != expected_keys_[i])
      bail("recorded spec digest #" + std::to_string(i) +
           " does not match the grid; resuming would splice two different "
           "sweeps into one CSV");

  // Replay the surviving rows into the caller's accumulators, verifying
  // each row's recorded seed against the spec-derived one as we go. A
  // recorded timed_out row is a scheduling artifact (the budget tripped on
  // that machine at that moment), not a measurement — keeping it would bake
  // a transient timeout into the campaign forever — so the prefix is cut
  // there and the cell (and everything after it) re-runs.
  if (done_ > 0) {
    const auto columns =
        resolve_columns(parse_csv_fields(
            std::string_view(*csv_content).substr(0, ends[0] - 1)));
    for (std::size_t i = 0; i < done_; ++i) {
      const std::string_view record =
          std::string_view(*csv_content)
              .substr(ends[i], ends[i + 1] - ends[i] - 1);
      const auto row = parse_csv_fields(record);
      if (row.size() <= columns.last)
        bail("recorded row #" + std::to_string(i) + " is malformed");
      ScenarioResult result;
      result.spec = specs[i];
      result.seed = scenario_seed(specs[i], options_.base_seed);
      if (row[columns.seed] != std::to_string(result.seed))
        bail("recorded row #" + std::to_string(i) +
             " has seed " + row[columns.seed] + ", expected " +
             std::to_string(result.seed) +
             "; was this campaign run under a different --seed?");
      for (std::size_t f = 0; f < kReplayCount; ++f)
        replay_cell(kReplayFields[f].member, row[columns.fields[f]], result);
      if (result.timed_out) {
        done_ = i;  // retry the timed-out cell and the rows after it
        break;
      }
      if (replay) replay(result);
    }
  }

  // Trim both files to the reconciled prefix, then reopen for append.
  std::filesystem::resize_file(options_.csv_path, ends[done_]);
  csv_.open(options_.csv_path, std::ios::binary | std::ios::app);
  if (!csv_) bail("cannot reopen CSV '" + options_.csv_path + "'");
  manifest_.open(options_.manifest_path, std::ios::binary | std::ios::trunc);
  if (!manifest_) bail("cannot reopen manifest '" + options_.manifest_path + "'");
  manifest_ << kManifestMagic << " seed=" << options_.base_seed << '\n';
  for (std::size_t i = 0; i < done_; ++i)
    manifest_ << expected_keys_[i] << '\n';
  manifest_.flush();
  checkpointed_ = done_;
}

void CsvCampaign::append(const ScenarioResult& result) {
  util::MutexLock lock(mu_);
  if (done_ >= expected_keys_.size())
    bail("append past the end of the grid");
  if (result.spec.key() != expected_keys_[done_])
    bail("append out of order: result for '" + result.spec.name() +
         "' does not match grid position " + std::to_string(done_));
  write_csv_row(csv_, result);
  csv_.flush();
  if (!csv_) bail("cannot write CSV '" + options_.csv_path + "'");
  ++done_;
  if (done_ - checkpointed_ >= options_.checkpoint_every) checkpoint();
}

void CsvCampaign::checkpoint() {
  for (std::size_t i = checkpointed_; i < done_; ++i)
    manifest_ << expected_keys_[i] << '\n';
  manifest_.flush();
  if (!manifest_) bail("cannot write manifest '" + options_.manifest_path + "'");
  checkpointed_ = done_;
}

void CsvCampaign::finish() {
  util::MutexLock lock(mu_);
  checkpoint();
}

}  // namespace crusader::runner
