// A small, thread-safe, bounded memo for PURE functions.
//
// The serial references every bitwise verification compares against
// (histogram_reference, cg_reference, sparse_cg_reference and the stencil's
// serial_reference) are pure functions of a few config fields (plus the rank
// count, where the reduction order follows the partition), and a sweep or a
// fleet asks for the same one many times. Memo keeps the last
// `Capacity` answers so a repeated question is answered from memory, while
// every run is still compared against the exact reference value.
//
// Contract:
//  * Only memoize pure functions, and key them by EVERY input the function
//    reads (and nothing else): a hit must return what a recomputation would.
//  * Bounded: at most `Capacity` entries, evicted oldest-inserted first.
//  * Thread-safe: lookups and inserts hold one mutex; the computation runs
//    outside it, so concurrent misses do not serialize. Two threads missing
//    on the same key may both compute; purity makes the answers identical
//    and only the first is stored.
//  * Observable: stats() counts hits and misses (every compute() call is a
//    miss), so a caller can report how often a memo saved a computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace sim {

/// Entries each serial-reference memo keeps.
inline constexpr std::size_t kReferenceMemoCapacity = 16;

template <class Key, class Value, std::size_t Capacity>
class Memo {
  static_assert(Capacity > 0, "a memo needs room for one entry");

 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// The memoized value for `key`, running `compute()` on a miss.
  template <class Compute>
  [[nodiscard]] Value get(const Key& key, Compute&& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const Value* hit = find(key)) {
        ++stats_.hits;
        return *hit;
      }
      ++stats_.misses;
    }
    Value value = std::forward<Compute>(compute)();
    std::lock_guard<std::mutex> lock(mu_);
    if (find(key) == nullptr) {
      if (entries_.size() == Capacity) entries_.pop_front();
      entries_.emplace_back(key, value);
    }
    return value;
  }

  [[nodiscard]] Stats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  const Value* find(const Key& key) const {
    for (const auto& [k, v] : entries_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::mutex mu_;
  std::deque<std::pair<Key, Value>> entries_;
  Stats stats_;
};

}  // namespace sim
