// FNV-1a (64-bit) digest over a stream of 64-bit words and strings, for
// tests that pin a computed result to a value captured from an earlier
// build: one number stands for a whole result vector or report.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace testutil {

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(std::string_view s) {
    for (char c : s) {
      add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  /// Bit patterns, so -0.0 / 0.0 and every last-ulp difference count.
  void add(std::span<const double> xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (double x : xs) add(std::bit_cast<std::uint64_t>(x));
  }
};

}  // namespace testutil
