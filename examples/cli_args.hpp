// Strict command-line parsing shared by the examples. Every argument is a
// plain decimal integer (digits only, no sign) inside its range; anything
// else — a stray word, a negative count, an out-of-range size, too many
// arguments — prints the example's usage line and exits with status 2
// instead of wrapping around or aborting deep inside a generator.
#pragma once

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string_view>

#include "util/bits.hpp"

namespace hybrid::cli {

/// Largest node count the examples accept: token routing packs node ids
/// into 21-bit label fields.
inline constexpr u64 kMaxNodes = u64{1} << 21;

class args {
 public:
  /// `usage` is the synopsis after the program name, e.g. "[n>=2] [seed]".
  args(int argc, char** argv, std::string_view usage, int max_args)
      : argc_(argc), argv_(argv), usage_(usage) {
    if (argc - 1 > max_args) fail();
  }

  /// Positional argument `i` (1-based) in [lo, hi], or `fallback` when the
  /// caller passed fewer arguments.
  u64 get(int i, u64 fallback, u64 lo = 0,
          u64 hi = std::numeric_limits<u64>::max()) const {
    if (i >= argc_) return fallback;
    const std::string_view s = argv_[i];
    if (s.empty() || s.size() > 20) fail();
    u64 v = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') fail();
      const u64 d = static_cast<u64>(c - '0');
      if (v > (std::numeric_limits<u64>::max() - d) / 10) fail();
      v = v * 10 + d;
    }
    if (v < lo || v > hi) fail();
    return v;
  }

  /// Prints the usage line and exits with status 2.
  [[noreturn]] void fail() const {
    std::cerr << "usage: " << (argc_ > 0 ? argv_[0] : "example") << ' '
              << usage_ << '\n';
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  std::string_view usage_;
};

}  // namespace hybrid::cli
