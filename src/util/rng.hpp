#pragma once
// Deterministic, seedable random number generation.
//
// We implement splitmix64 (for seeding / hashing) and xoshiro256++ (bulk
// generation) from scratch so that simulation runs are bit-reproducible
// across standard libraries — std::mt19937 would also work, but distribution
// implementations (uniform_real_distribution etc.) differ across platforms.

#include <array>
#include <cstdint>
#include <random>

namespace crusader::util {

/// splitmix64: used to expand a single 64-bit seed into a full RNG state and
/// as a cheap, high-quality integer mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of a single value (e.g. for hashing tuples of ids).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Folds one 64-bit word into a running digest: a splitmix combine that is
/// order sensitive, which is what a field-by-field digest wants.
[[nodiscard]] std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept;

/// xoshiro256++ by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform in [lo, hi). Requires lo <= hi; returns lo when lo == hi.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Derive an independent child generator (stable: depends only on current
  /// seed lineage and `stream`). Useful for giving each node its own stream.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t lineage_ = 0;  // remembers the seed for fork()
};

}  // namespace crusader::util
