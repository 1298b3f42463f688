// The benchmark harness: ops, passes, host spans and the counting observer.
//
// A workload is a function from (run seed, pass seed) to a list of ops. The
// runner (main.cpp) runs passes one op at a time on one thread until the
// time budget is spent. Each op calls into the public entry points of the
// simulator's layers and verifies what it gets back; the harness times it.
//
// Layers are measured from outside only: a Scope records a host span around
// each public call, and a CountingObserver attached through the layers'
// `observer` hooks counts simulated events. Neither changes simulated time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cpufree/metrics.hpp"
#include "sim/observe.hpp"
#include "vgpu/costmodel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Runs a fixed, program-independent calibration kernel and returns its
/// host time in ms. Its work is a mix of what the simulator's host time is
/// made of: an event queue on a binary heap, hash-map updates, small heap
/// allocations and a floating-point sweep over a cache-sized array. On a
/// shared host the CPU speed drifts with the neighbours' load; the runner
/// scales host times by this kernel's time around them (see main.cpp).
[[nodiscard]] double calibrate_ms();

/// Counts the simulated events the vgpu, vshmem, topo and sim layers
/// publish. Pure bookkeeping: observers never influence simulated time.
class CountingObserver final : public sim::Observer {
 public:
  struct Counts {
    std::int64_t kernel_groups = 0;
    std::int64_t stream_ops = 0;
    std::int64_t stream_syncs = 0;
    std::int64_t barrier_arrivals = 0;
    std::int64_t puts = 0;
    std::int64_t signal_updates = 0;
    std::int64_t signal_waits = 0;
    /// Distinct flights (transfers), not link hops.
    std::int64_t link_flights = 0;
    /// Flights that started with another flight already on one of their
    /// links. Only the shared-trunk (water-filling) path reports other
    /// flights; an exclusive-lane flight always reports itself alone.
    std::int64_t shared_flights = 0;
    /// Sum over flights of on_link_busy queued_ns.
    std::int64_t link_wait_ns = 0;
  };

  /// Marks the start of an op.
  void start_op() { links_.clear(); }

  void on_actor_begin(const sim::Actor& actor, const sim::Actor&,
                      std::string_view) override {
    if (actor.kind == sim::Actor::Kind::kKernelGroup) ++counts.kernel_groups;
  }
  void on_stream_op_begin(const sim::Actor&, std::int64_t) override {
    ++counts.stream_ops;
  }
  void on_stream_sync(const sim::Actor&, const sim::Actor&) override {
    ++counts.stream_syncs;
  }
  void on_barrier_arrive(const sim::Actor&, const void*, std::size_t,
                         std::string_view) override {
    ++counts.barrier_arrivals;
  }
  void on_signal_update(const sim::Actor&, const void*, std::int64_t,
                        std::string_view) override {
    ++counts.signal_updates;
  }
  void on_signal_wait_begin(const sim::Actor&, const void*, sim::Cmp,
                            std::int64_t, std::string_view) override {
    ++counts.signal_waits;
  }
  void on_put_issue(std::uint64_t, const sim::Actor&, const sim::Actor&,
                    const sim::MemRange&, const sim::MemRange&, bool,
                    std::string_view) override {
    ++counts.puts;
  }
  // The ledger reports a flight once per link of its route, in one run of
  // calls with the same id; count the flight at its first link. Every
  // machine's ledger numbers its flights afresh, so a repeated link under
  // the same id also starts a new flight (a route crosses a link once).
  void on_link_busy(std::uint64_t flight, std::string_view link,
                    int concurrent, sim::Nanos queued_ns,
                    std::string_view) override {
    if (links_.empty() || flight != flight_ ||
        std::find(links_.begin(), links_.end(), link) != links_.end()) {
      links_.clear();
      flight_ = flight;
      shared_ = false;
      ++counts.link_flights;
      counts.link_wait_ns += queued_ns;
    }
    links_.emplace_back(link);
    if (concurrent > 1 && !shared_) {
      shared_ = true;
      ++counts.shared_flights;
    }
  }

  Counts counts;

 private:
  std::uint64_t flight_ = 0;
  /// Links reported so far for the current flight.
  std::vector<std::string> links_;
  bool shared_ = false;
};

/// In-memory host-span recorder. Spans nest by call order: a span's parent
/// is the innermost span open when it began. Disabled, it records nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t op = -1;
    /// The op's key, on the op's outermost span only.
    std::string key;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::int64_t op) { op_ = op; }
  /// Labels the most recent span with `key`.
  void label(const std::string& key) {
    if (enabled_ && !spans_.empty()) spans_.back().key = key;
  }

  /// Opens a span; returns its index, or -1 when disabled.
  int begin(const char* name);
  void end(int index);

  /// Self time (span duration minus the time its children cover) summed
  /// per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Writes every span as a Chrome-trace "X" event.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), index_(t.begin(name)) {}
  ~Scope() { t_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

/// Named per-layer outcomes that only some ops produce (fleet and tuner
/// results, paired-call probes). Reported as the mean of their samples.
class Outcomes {
 public:
  void add(const std::string& name, double v) {
    Acc& a = acc_[name];
    a.sum += v;
    ++a.n;
  }
  [[nodiscard]] double mean(const std::string& name) const {
    auto it = acc_.find(name);
    return it == acc_.end() || it->second.n == 0
               ? 0.0
               : it->second.sum / static_cast<double>(it->second.n);
  }
  [[nodiscard]] double sum(const std::string& name) const {
    auto it = acc_.find(name);
    return it == acc_.end() ? 0.0 : it->second.sum;
  }

 private:
  struct Acc {
    double sum = 0.0;
    std::int64_t n = 0;
  };
  std::map<std::string, Acc> acc_;
};

/// What an op hands to the layers it calls.
struct OpCtx {
  Tracer& tracer;
  /// The counting observer in traced passes, nullptr otherwise.
  sim::Observer* observer = nullptr;
  /// Collects per-layer outcomes (only during the canonical passes).
  Outcomes* outcomes = nullptr;

  void outcome(const std::string& name, double v) const {
    if (outcomes != nullptr) outcomes->add(name, v);
  }
};

/// The result of one op.
struct OpResult {
  bool ok = true;
  std::string error;
  /// Exact digest of everything the op simulated (metrics as integers).
  std::string digest;
  /// Simulated time of the op's result, in ms.
  double sim_ms = 0.0;
  /// Simulated latency of each job the op ran (a run, or a served job), us.
  std::vector<double> job_us;
  /// Simulated runs recorded with add_run, their summed time split and
  /// the sum of their hidden-communication ratios.
  int runs = 0;
  cpufree::RunMetrics split;
  double hidden_ratio_sum = 0.0;

  void fail(std::string why) {
    ok = false;
    if (!error.empty()) error += "; ";
    error += std::move(why);
  }
  /// Records one simulated run: digest, time, latency and split.
  void add_run(const cpufree::RunMetrics& m);
};

/// How an op enters the CPU-Free vs CPU-controlled speedup.
enum class Role : std::uint8_t { kNone, kBaseline, kCpuFree };

struct Op {
  /// Identity of the op's configuration within a pass.
  std::string key;
  /// Ops with the same group solve the same problem on the same machine;
  /// each CPU-Free op is compared with the group's fastest baseline.
  std::string group;
  Role role = Role::kNone;
  /// Timing-only op: its digest must repeat in every pass of a run.
  bool timing_only = false;
  /// Serial-reference identity ("" = none); ops sharing one could share
  /// the reference evaluation.
  std::string reference_key;
  std::function<OpResult(OpCtx&)> run;
  /// Optional paired measurement made once, outside the timed passes, in
  /// the traced run (fleet with and without isolated baselines, tuner with
  /// and without the checker).
  std::function<void(OpCtx&)> probe;
};

/// A machine model a workload runs on.
struct MachineDef {
  const char* key = "";
  vgpu::MachineSpec (*make)() = nullptr;
};

struct Workload {
  const char* name = "";
  const char* why = "";
  /// The ops of one pass. The run seed fixes the problem set; the pass
  /// seed gives each pass fresh inputs and its own op order.
  std::function<std::vector<Op>(std::uint64_t run_seed,
                                std::uint64_t pass_seed)>
      pass;
  /// Passes whose simulated results form the sim metrics; every run
  /// completes at least this many passes.
  int canonical_passes = 1;
  /// Warm-up runs every `warmup_stride`-th op of a pass.
  int warmup_stride = 1;
};

[[nodiscard]] Workload paper_figs();
[[nodiscard]] Workload irregular();
[[nodiscard]] Workload serve_fleet();
[[nodiscard]] Workload compile_tune();

/// Deterministic draw in [0, n) from (seed, a, b).
[[nodiscard]] std::uint64_t draw(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b, std::uint64_t n);

/// A fresh 64-bit seed derived from (seed, a), for seeds handed to the
/// program and for per-pass seeds.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t a);

}  // namespace perfbench
