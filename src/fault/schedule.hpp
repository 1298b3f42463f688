// Deterministic fault-injection plane (src/fault/).
//
// A fault::Schedule is a counter-based PRNG keyed by (seed, site class,
// site id) — never by wall clock — that the topo/vgpu/vshmem layers consult
// at well-defined injection sites:
//
//   * kLinkWindow   — link degradation / transient flap windows; the
//                     topo::LinkLedger scales a link's bandwidth while the
//                     window is open (pure function of simulated time).
//   * kStallWindow  — device stall/slowdown windows; vgpu::KernelCtx scales
//                     kernel step costs while the window is open.
//   * kSignalLost / kSignalDelay — a device-side signal delivery is dropped
//                     or postponed by Config::signal_delay.
//   * kPutDrop / kPutDup — a one-sided put's payload is dropped (never
//                     written to the destination) or written twice.
//
// Determinism rules (DESIGN.md §10):
//   1. Decisions depend only on (seed, site, id, consult counter) for
//      event-shaped faults, or (seed, site, id, window index) for
//      window-shaped faults. Simulated time is deterministic, so both are.
//   2. A Schedule is owned per vgpu::Machine; sweep jobs never share one,
//      so sweep thread count cannot perturb decisions.
//   3. Window predicates are pure: re-consulting at the same simulated time
//      returns the same answer, so cost recomputation (e.g. the ledger's
//      water-filling) never double-rolls.
//   4. The observer only *sees* injections (on_fault); it is never
//      consulted, so attaching check::Detector cannot change the schedule.
//
// Hard (fail-stop) faults are configured as an explicit list (Config::hard),
// not as a rate: each entry kills one device after it completes a given
// number of persistent-kernel iterations, or one directed link after a given
// number of transfer crossings. Both triggers are counter-based, so the same
// spec kills the same component at the same simulated instant for every
// thread count. Death is permanent: payloads to/from a dead component are
// blackholed (the wire still completes so quiet() drains), kernels launched
// on a dead device retire immediately, and the wait-side protocol escalates
// a starved watchdog into a job-level verdict (see cpufree::IterationProtocol
// and serve::Server).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace fault {

/// Resilience ladder for the wait-side protocols (cpufree::IterationProtocol).
enum class Resilience : std::uint8_t {
  kNone = 0,      ///< plain spin-wait; a lost signal hangs (engine reports it)
  kRetry,         ///< watchdog + bounded retries re-pull the payload/signal
  kRetryDegrade,  ///< after retries exhaust, fall back to host-style polling
};

[[nodiscard]] constexpr const char* name(Resilience r) noexcept {
  switch (r) {
    case Resilience::kNone: return "no-retry";
    case Resilience::kRetry: return "retry";
    case Resilience::kRetryDegrade: return "retry+degrade";
  }
  return "?";
}

/// Bounded-retry protocol constants. Backoff is simulated (engine delay),
/// linear in the attempt index, and therefore deterministic.
struct RetryPolicy {
  int max_retries = 3;
  sim::Nanos timeout = sim::usec(200);  ///< watchdog deadline, first attempt
  sim::Nanos backoff = sim::usec(100);  ///< added per subsequent attempt
};

/// Watchdog deadline for a given retry attempt (0-based): timeout plus
/// attempt * backoff. Keeping this closed-form (instead of stateful) makes
/// the wait-side protocol trivially reproducible.
[[nodiscard]] constexpr sim::Nanos attempt_timeout(const RetryPolicy& p,
                                                   int attempt) noexcept {
  return p.timeout + static_cast<sim::Nanos>(attempt) * p.backoff;
}

/// Fault classes (bitmask in Config::classes).
enum : std::uint32_t {
  kClassLink = 1u << 0,         ///< bandwidth-degradation windows
  kClassFlap = 1u << 1,         ///< deep transient flaps (near-dead link)
  kClassStall = 1u << 2,        ///< device stall/slowdown windows
  kClassSignalLost = 1u << 3,   ///< signal delivery dropped
  kClassSignalDelay = 1u << 4,  ///< signal delivery postponed
  kClassPutDrop = 1u << 5,      ///< put payload never lands
  kClassPutDup = 1u << 6,       ///< put payload lands twice
  /// All *transient* classes (what a bare --faults rate draws from).
  kClassAll = (1u << 7) - 1,
  /// Permanent fail-stop classes. Never part of kClassAll: they fire from
  /// the explicit Config::hard list, not from the rate, and must be opted
  /// into by mask so a rate-only config can never kill hardware.
  kClassDeviceDead = 1u << 7,   ///< device fail-stop (Config::hard entries)
  kClassLinkDead = 1u << 8,     ///< link fail-stop (Config::hard entries)
  /// Classes whose injection or recovery reads the SignalShadow plane.
  /// Window-shaped classes (link/flap/stall) are pure in simulated time and
  /// do not.
  kClassSignalCoupled =
      kClassSignalLost | kClassSignalDelay | kClassPutDrop | kClassPutDup,
};

/// One permanent fail-stop event. Device deaths trigger on an iteration
/// counter (the device dies at the top of persistent-kernel iteration `at`
/// of whichever resident kernel first reaches it — it completes 1..at-1 and
/// never executes `at`). Link deaths trigger on a transfer-crossing counter
/// of the directed (src, dst) device pair.
struct HardFault {
  enum class Kind : std::uint8_t { kDevice, kLink };
  Kind kind = Kind::kDevice;
  int device = -1;         ///< kDevice: the device to kill
  int src = -1;            ///< kLink: source endpoint device
  int dst = -1;            ///< kLink: destination endpoint device
  std::int64_t at = 1;     ///< kDevice: iteration index; kLink: crossing count
};

/// Everything a Schedule needs to decide and price faults. rate == 0 means
/// the fault plane is structurally inert: no site consults it, no timed
/// waits are armed, and runs are byte-identical to a build without it.
struct Config {
  std::uint64_t seed = 0;
  double rate = 0.0;  ///< per-consult (or per-window) injection probability
  std::uint32_t classes = kClassAll;
  Resilience resilience = Resilience::kNone;
  RetryPolicy retry;

  double link_degrade_scale = 0.35;  ///< degraded link keeps 35% bandwidth
  double flap_scale = 0.05;          ///< flapped link keeps 5% bandwidth
  double stall_scale = 3.0;          ///< stalled device: step costs x3
  sim::Nanos fault_window = sim::usec(400);  ///< degradation window length
  sim::Nanos signal_delay = sim::usec(150);  ///< kSignalDelay postponement

  /// Permanent fail-stop events (independent of `rate`; each entry is live
  /// only while its class bit — kClassDeviceDead / kClassLinkDead — is set).
  std::vector<HardFault> hard;

  [[nodiscard]] bool enabled() const noexcept { return rate > 0.0; }

  /// True iff any hard-fault entry is active under the class mask. Note
  /// this is independent of enabled(): a config may kill hardware without
  /// injecting any transient faults (rate == 0).
  [[nodiscard]] bool hard_enabled() const noexcept {
    for (const HardFault& h : hard) {
      const std::uint32_t c = h.kind == HardFault::Kind::kDevice
                                  ? kClassDeviceDead
                                  : kClassLinkDead;
      if ((classes & c) != 0) return true;
    }
    return false;
  }
};

/// Counters surfaced into cpufree::RunMetrics (cpufree-bench-v1 JSON).
struct Stats {
  std::int64_t injected = 0;        ///< fault events actually injected
  std::int64_t retries = 0;         ///< recovery re-issues
  std::int64_t watchdog_fires = 0;  ///< timed waits that expired
  std::int64_t degraded_iters = 0;  ///< iterations completed degraded
  std::int64_t devices_dead = 0;    ///< permanent device deaths fired
  std::int64_t links_dead = 0;      ///< permanent link deaths fired
};

/// Injection-site classes; combined with a site-local id (link index, device
/// index, PE pair, flag slot) they key the PRNG stream.
enum class Site : std::uint32_t {
  kLinkWindow = 1,
  kStallWindow = 2,
  kSignalLost = 3,
  kSignalDelay = 4,
  kPutDrop = 5,
  kPutDup = 6,
};

[[nodiscard]] const char* site_name(Site s) noexcept;

/// The seeded decision plane. One per Machine; all layers share it through
/// vgpu::Machine::faults().
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(const Config& cfg) : cfg_(cfg) {}

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled(); }
  [[nodiscard]] bool has_class(std::uint32_t c) const noexcept {
    return enabled() && (cfg_.classes & c) != 0;
  }

  /// True iff the transient class mask touches the SignalShadow plane.
  /// Window-only masks (link/flap/stall) return false and keep no shadows.
  [[nodiscard]] bool signal_coupled() const noexcept {
    return has_class(kClassSignalCoupled);
  }

  /// True iff any permanent fail-stop entry is active (independent of the
  /// transient rate). Gates every hard-fault branch: when false, no timed
  /// waits are armed and no death state is ever consulted, keeping the
  /// no-hard-faults path byte-identical to builds without the plane.
  [[nodiscard]] bool hard_enabled() const noexcept {
    return cfg_.hard_enabled();
  }

  // --- Permanent device death -------------------------------------------
  // Trigger and state are split so callers in the persistent-kernel loop
  // can make schedule-order-independent decisions: device_dead_at() is a
  // pure function of (device, iteration) and config, identical for every
  // group of a device at the same loop top; note_device_iteration()
  // performs the stateful transition (death time, stats) exactly once.

  /// Pure: would `device` be dead at the top of iteration `iter`?
  [[nodiscard]] bool device_dead_at(int device, std::int64_t iter) const;

  /// Stateful transition: `device` reached the top of iteration `iter` at
  /// simulated time `now`. Returns true exactly once per device — at the
  /// first consult at/after its kill point — so the caller can publish the
  /// death (engine incident, observer on_fault) without duplicates.
  [[nodiscard]] bool note_device_iteration(int device, std::int64_t iter,
                                           sim::Nanos now);

  /// Current death state (set by note_device_iteration).
  [[nodiscard]] bool device_dead(int device) const {
    return dead_devices_.count(device) != 0;
  }
  [[nodiscard]] bool any_device_dead() const noexcept {
    return !dead_devices_.empty();
  }
  /// Devices currently declared dead (iteration order = device id order).
  [[nodiscard]] const std::map<int, sim::Nanos>& dead_devices() const {
    return dead_devices_;
  }
  /// Kill iteration K of `device`'s hard-fault entry (for lost/replayed-
  /// iteration accounting); -1 when no entry targets it.
  [[nodiscard]] std::int64_t device_kill_iteration(int device) const;

  // --- Permanent link death ---------------------------------------------

  [[nodiscard]] bool has_hard_links() const;

  /// Stateful: one transfer crossed the directed (src, dst) device pair at
  /// `now`. Returns true exactly once — when the crossing counter reaches a
  /// matching entry's kill point.
  [[nodiscard]] bool note_link_crossing(int src, int dst, sim::Nanos now);

  [[nodiscard]] bool link_dead(int src, int dst) const {
    return dead_links_.count({src, dst}) != 0;
  }

  /// True iff a delivery from `src` to `dst` must be blackholed: either
  /// endpoint device is dead, or the directed link between them is.
  [[nodiscard]] bool delivery_blackholed(int src, int dst) const {
    if (dead_devices_.empty() && dead_links_.empty()) return false;
    return device_dead(src) || device_dead(dst) || link_dead(src, dst);
  }

  [[nodiscard]] Stats& stats() noexcept { return stats_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Event-shaped decision: advances the (site, id) consult counter and
  /// returns true iff this consult injects. Counts into stats().injected.
  [[nodiscard]] bool roll(Site site, std::uint64_t id);

  /// Bandwidth multiplier for link `link_id` at simulated time `now`:
  /// 1.0 (healthy), Config::link_degrade_scale (degraded window), or
  /// Config::flap_scale (flap window). Pure in (link_id, window(now)).
  [[nodiscard]] double link_scale(std::uint64_t link_id,
                                  sim::Nanos now) const;

  /// Step-cost multiplier for device `device` at `now`: 1.0 or
  /// Config::stall_scale. Pure in (device, window(now)).
  [[nodiscard]] double stall_scale_at(int device, sim::Nanos now) const;

  /// Window-shaped faults are consulted many times per window; callers use
  /// this to count the injection (and publish on_fault) exactly once per
  /// (site, id, window). Returns true the first time only.
  [[nodiscard]] bool first_sight(Site site, std::uint64_t id, sim::Nanos now);

  /// Window index at `now` (exposed for the once-per-window bookkeeping).
  [[nodiscard]] std::uint64_t window_of(sim::Nanos now) const noexcept {
    const sim::Nanos w = cfg_.fault_window > 0 ? cfg_.fault_window : 1;
    return static_cast<std::uint64_t>(now / w);
  }

  /// Degradation-ladder state (Resilience::kRetryDegrade): once a PE
  /// exhausts its retries it finishes the run on host-style polling. Sticky
  /// for the rest of the run, like a real fallback reconfiguration.
  [[nodiscard]] bool degraded(int pe) const {
    return degraded_.count(pe) != 0;
  }
  void mark_degraded(int pe) { degraded_.insert(pe); }

 private:
  /// U(0,1) draw for stream (seed, site, id, n). splitmix64-style mixing;
  /// no global state, no wall clock.
  [[nodiscard]] double uniform(Site site, std::uint64_t id,
                               std::uint64_t n) const;

  Config cfg_{};
  Stats stats_{};
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> counters_;
  // (site, id) -> last window already counted/published
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> seen_;
  std::set<int> degraded_;
  // Fail-stop state: device -> death time; (src, dst) -> death time;
  // (src, dst) -> crossings so far (only tracked while hard links exist).
  std::map<int, sim::Nanos> dead_devices_;
  std::map<std::pair<int, int>, sim::Nanos> dead_links_;
  std::map<std::pair<int, int>, std::int64_t> crossings_;
};

}  // namespace fault
