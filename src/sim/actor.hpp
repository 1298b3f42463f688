// Actor identities and wait predicates.
//
// The vocabulary shared by the engine's open-wait registry, the
// synchronization primitives (sim/sync.hpp) and the observer interface
// (sim/observe.hpp). Kept free of other simulator headers so the engine can
// name a waiting actor and its predicate without an include cycle.
#pragma once

#include <cstdint>
#include <string>

namespace sim {

/// One sequential timeline participating in the happens-before order.
struct Actor {
  enum class Kind : std::uint8_t {
    kNone,         // "no actor": disables publication for this site
    kHost,         // the host thread driving device `a`
    kStream,       // stream `b` of device `a`
    kKernelGroup,  // block group `c` of the kernel on stream `b`, device `a`
    kWire,         // the directed link `a` -> `b`
  };

  Kind kind = Kind::kNone;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;

  [[nodiscard]] static constexpr Actor host(int dev) {
    return Actor{Kind::kHost, dev, -1, -1};
  }
  [[nodiscard]] static constexpr Actor stream(int dev, int lane) {
    return Actor{Kind::kStream, dev, lane, -1};
  }
  [[nodiscard]] static constexpr Actor group(int dev, int lane, int g) {
    return Actor{Kind::kKernelGroup, dev, lane, g};
  }
  [[nodiscard]] static constexpr Actor wire(int src, int dst) {
    return Actor{Kind::kWire, src, dst, -1};
  }

  [[nodiscard]] constexpr bool valid() const noexcept {
    return kind != Kind::kNone;
  }

  friend constexpr bool operator==(const Actor&, const Actor&) = default;
  friend constexpr auto operator<=>(const Actor&, const Actor&) = default;

  /// Human-readable identity for reports: "host0", "pe1/s0", "pe1/k0.g2",
  /// "wire0->1".
  [[nodiscard]] std::string str() const {
    switch (kind) {
      case Kind::kHost:
        return "host" + std::to_string(a);
      case Kind::kStream:
        return "pe" + std::to_string(a) + "/s" + std::to_string(b);
      case Kind::kKernelGroup:
        return "pe" + std::to_string(a) + "/k" + std::to_string(b) + ".g" +
               std::to_string(c);
      case Kind::kWire:
        return "wire" + std::to_string(a) + "->" + std::to_string(b);
      case Kind::kNone:
        break;
    }
    return "<none>";
  }
};

/// Comparison operators mirroring NVSHMEM_CMP_*.
enum class Cmp : std::uint8_t { kEq, kNe, kGt, kGe, kLt, kLe };

[[nodiscard]] constexpr bool compare(Cmp cmp, std::int64_t lhs, std::int64_t rhs) {
  switch (cmp) {
    case Cmp::kEq: return lhs == rhs;
    case Cmp::kNe: return lhs != rhs;
    case Cmp::kGt: return lhs > rhs;
    case Cmp::kGe: return lhs >= rhs;
    case Cmp::kLt: return lhs < rhs;
    case Cmp::kLe: return lhs <= rhs;
  }
  return false;
}

/// Operator token for reports ("==", ">=", ...).
[[nodiscard]] constexpr const char* cmp_str(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq: return "==";
    case Cmp::kNe: return "!=";
    case Cmp::kGt: return ">";
    case Cmp::kGe: return ">=";
    case Cmp::kLt: return "<";
    case Cmp::kLe: return "<=";
  }
  return "?";
}

}  // namespace sim
