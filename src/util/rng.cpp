#include "util/rng.hpp"

#include "util/assert.hpp"

namespace hybrid {

namespace {
constexpr u64 splitmix64(u64& x) {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void rng::reseed(u64 seed) {
  u64 x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

u64 rng::next() {
  const u64 result = rotl(s_[1] * 5, 7) * 9;
  const u64 t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

u64 rng::next_below(u64 bound) {
  HYB_REQUIRE(bound > 0, "next_below needs a positive bound");
  // Lemire's method with rejection for exact uniformity.
  u64 x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  u64 l = static_cast<u64>(m);
  if (l < bound) {
    u64 threshold = (~bound + 1) % bound;
    while (l < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<u64>(m);
    }
  }
  return static_cast<u64>(m >> 64);
}

double rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

u64 rng::next_in(u64 lo, u64 hi) {
  HYB_REQUIRE(lo <= hi, "empty range");
  return lo + next_below(hi - lo + 1);
}

std::vector<u32> rng::sample_without_replacement(u32 n, u32 m) {
  HYB_REQUIRE(m <= n, "cannot sample more elements than available");
  // Partial Fisher–Yates on an index array; O(n) memory, fine at sim scales.
  std::vector<u32> idx(n);
  for (u32 i = 0; i < n; ++i) idx[i] = i;
  for (u32 i = 0; i < m; ++i) {
    u32 j = i + static_cast<u32>(next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(m);
  return idx;
}

}  // namespace hybrid
