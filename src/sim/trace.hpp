// Interval trace recorder and overlap analysis.
//
// Plays the role Nsight Systems plays in the paper: every simulated activity
// (kernel execution, communication, synchronization, host API call) records a
// closed interval tagged with a category, device and lane (stream / thread
// block group). The analysis helpers compute the quantities reported in
// Figure 2.2: total communication time, total compute time, and the fraction
// of communication hidden under compute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace sim {

enum class Cat : std::uint8_t {
  kCompute,   // stencil / tasklet computation on a device
  kComm,      // inter-device data movement (memcpy, put, MPI payload)
  kSync,      // barriers, signal waits, stream/event synchronization
  kHostApi,   // host-side runtime API call overhead (launch, issue, sync call)
  kKernel,    // whole-kernel envelope intervals
  kOther,
};

[[nodiscard]] const char* cat_name(Cat c) noexcept;

struct Interval {
  Cat cat = Cat::kOther;
  std::int32_t device = -1;  // -1 == host
  std::int32_t lane = 0;     // stream id / block-group id within the device
  Nanos begin = 0;
  Nanos end = 0;
  std::string name;
};

/// A set of categories for Trace::union_lengths: bit `i` selects Cat(i).
using CatMask = std::uint8_t;

[[nodiscard]] constexpr CatMask cat_mask(Cat c) noexcept {
  return static_cast<CatMask>(1u << static_cast<unsigned>(c));
}

[[nodiscard]] constexpr CatMask cat_mask(std::initializer_list<Cat> cats) noexcept {
  CatMask m = 0;
  for (Cat c : cats) m = static_cast<CatMask>(m | cat_mask(c));
  return m;
}

/// THREAD CONFINEMENT: a Trace (like the Engine that owns it) is
/// single-threaded state. It must be recorded into from exactly one thread;
/// the sweep executor runs one whole Machine/Engine/Trace per worker, never
/// sharing one across workers. `record` enforces this: it captures the
/// recording thread on first use and throws std::logic_error on a record
/// from any other thread. Read-only analysis from a different thread after
/// the owning thread finished (join/future provides the happens-before) is
/// fine. `clear()` releases ownership.
class Trace {
 public:
  /// Enables or disables recording. Disabled traces drop all intervals,
  /// which keeps timing-only benchmark sweeps allocation-free.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(Cat cat, std::int32_t device, std::int32_t lane, Nanos begin,
              Nanos end, std::string name = {});

  void clear() {
    intervals_.clear();
    owner_ = std::thread::id{};
  }

  [[nodiscard]] const std::vector<Interval>& intervals() const noexcept {
    return intervals_;
  }

  /// Union lengths of several category sets in one pass over the trace:
  /// `lengths[k]` is the total length of the union of every interval whose
  /// category is in `sets[k]` (optionally restricted to one device; -2 means
  /// all). Overlapping intervals are merged, so concurrent communication on
  /// two lanes is not double-counted. At most kMaxUnionSets sets.
  static constexpr std::size_t kMaxUnionSets = 8;
  void union_lengths(std::span<const CatMask> sets, std::span<Nanos> lengths,
                     std::int32_t device = -2) const;

  /// Total length of the union of all intervals with category `cat`.
  [[nodiscard]] Nanos union_length(Cat cat, std::int32_t device = -2) const;

  /// Union length across several categories merged together (e.g. all
  /// non-compute activity: comm + sync + host API).
  [[nodiscard]] Nanos union_length_any(std::initializer_list<Cat> cats,
                                       std::int32_t device = -2) const;

  /// Length of the intersection of the unions of categories `a` and `b`
  /// (optionally restricted to one device): e.g. how much communication time
  /// was covered by concurrently running computation. Computed as
  /// |a| + |b| - |a ∪ b|.
  [[nodiscard]] Nanos overlap_length(Cat a, Cat b, std::int32_t device = -2) const;

  /// overlap_length(a, b) / union_length(a) in [0, 1]; returns 0 when no
  /// `a` intervals exist.
  [[nodiscard]] double overlap_ratio(Cat a, Cat b, std::int32_t device = -2) const;

  /// Serializes the trace in Chrome `chrome://tracing` JSON array format so
  /// timelines analogous to the paper's Nsight figures can be inspected.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Human-readable per-device activity breakdown over [0, total]:
  /// compute/comm/sync/host busy time and percentages, one line per device
  /// plus the host row. The text form of the Nsight summary view.
  [[nodiscard]] std::string summary(Nanos total) const;

 private:
  std::vector<Interval> intervals_;
  /// Thread that first recorded; default-constructed id == unowned.
  std::thread::id owner_;
  bool enabled_ = true;
};

}  // namespace sim
