#include "util/rng.hpp"

#include <cstdint>

namespace crusader::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept {
  return mix64(h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : lineage_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire-style rejection-free enough for simulation purposes; bias is
  // < 2^-32 for the n we use (tiny), but we do proper rejection anyway.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

bool Rng::chance(double p) noexcept { return next_double() < p; }

Rng Rng::fork(std::uint64_t stream) const noexcept {
  std::uint64_t s = lineage_;
  const std::uint64_t base = splitmix64(s);
  return Rng(base ^ mix64(stream * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL));
}

}  // namespace crusader::util
