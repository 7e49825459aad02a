// Deterministic, seedable randomness for simulations.
//
// The simulator needs (a) per-node private randomness and (b) public shared
// randomness (the paper's protocols assume a broadcastable O(log² n)-bit seed;
// lower-bound arguments assume public coins). Both derive from a single run
// seed so every experiment is reproducible from one integer.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bits.hpp"

namespace hybrid {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
class rng {
 public:
  explicit rng(u64 seed) { reseed(seed); }

  void reseed(u64 seed);

  u64 next();

  /// Uniform in [0, bound) via Lemire's unbiased multiply-shift rejection.
  u64 next_below(u64 bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability p.
  bool next_bool(double p);

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  u64 next_in(u64 lo, u64 hi);

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (u64 i = v.size(); i > 1; --i) {
      u64 j = next_below(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample m distinct values from [0, n) (m <= n), in random order.
  std::vector<u32> sample_without_replacement(u32 n, u32 m);

 private:
  u64 s_[4];
};

/// Derive a child seed from (seed, stream) — used to give every node and
/// every protocol phase an independent stream. SplitMix64 finalizer; inline
/// because the per-item fault stream (sim/fault.hpp) calls it in hot loops.
constexpr u64 derive_seed(u64 seed, u64 stream) {
  u64 z = (seed ^ (0x510e527fade682d1ULL * (stream + 1))) +
          0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace hybrid
