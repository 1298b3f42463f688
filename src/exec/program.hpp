// exec::Program: the workload-agnostic execution contract behind every
// driver in the tree.
//
// A workload describes itself as per-iteration phases — local compute,
// neighbour or data-dependent communication, optional global reduction —
// packaged as two kinds of hooks:
//
//  * `host_step`  — one step of a host-driven discrete loop (the kHostLoop
//    compositions). The driver owns stream creation, signal allocation and
//    the loop; the workload only issues the step's launches/copies/waits.
//  * `groups`     — the per-PE persistent block groups (the kPersistent /
//    kPersistentPair compositions). The driver owns the per-iteration JOIN
//    protocol (grid.sync() alone for the single-kernel design; grid.sync()
//    plus the local pair handshake for the two-kernel design) and hands it
//    to the workload as an IterationJoin, so the same group builder serves
//    both persistent launch policies.
//
// The (launch, comm, sync) Plan machinery composes the hooks: run_program()
// dispatches on the plan exactly like the old slab-only driver did, but the
// problem shape is no longer baked in — run_slab() is now a thin adapter
// over this driver, and irregular workloads (generalized histogram,
// sparse CG) plug in beside it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/policy.hpp"
#include "sim/observe.hpp"
#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace exec {

/// The launch policy's per-iteration join, handed to Program::groups. The
/// workload must call the matching callback at the end of every iteration of
/// every group body (comm groups call comm_end with `lead` true for exactly
/// one group per PE — the group that speaks for the kernel in the two-kernel
/// handshake). The callbacks are copyable; group bodies must copy them (the
/// IterationJoin itself lives on the driver's frame).
struct IterationJoin {
  std::function<sim::Task(vgpu::KernelCtx&, bool lead, int t)> comm_end;
  std::function<sim::Task(vgpu::KernelCtx&, int t)> inner_end;
};

/// Deterministic checkpoint store for persistent runs. Every
/// `checkpoint_every` iterations the lead comm group of each PE snapshots
/// the PE's owned state at the iteration join — after every group of the PE
/// committed iteration t and before any t+1 write can touch the captured
/// parity (double buffering isolates it) — so the bytes are a pure function
/// of (workload, t) and identical across --threads and reruns. The
/// capture's DRAM drain is charged to simulated time.
///
/// A snapshot at iteration t is usable for restart only once EVERY PE
/// committed its slice; last_complete() reports the newest such t.
struct CheckpointStore {
  explicit CheckpointStore(int pes = 0) : n_pes(pes) {}

  int n_pes = 0;
  /// snapshots[t][pe] -> that PE's owned interior at the end of iteration t.
  std::map<int, std::map<int, std::vector<double>>> snapshots;

  void put(int t, int pe, std::vector<double> slice) {
    snapshots[t][pe] = std::move(slice);
  }
  /// Newest iteration with a slice from every PE; 0 when none (restart from
  /// scratch).
  [[nodiscard]] int last_complete() const {
    int best = 0;
    for (const auto& [t, slices] : snapshots) {
      if (static_cast<int>(slices.size()) == n_pes && t > best) best = t;
    }
    return best;
  }
  [[nodiscard]] const std::vector<double>& slice(int t, int pe) const {
    return snapshots.at(t).at(pe);
  }
};

/// One PE's persistent block groups, split by role: `comm` groups run the
/// communication protocol, `inner` groups the bulk local compute. The
/// single-kernel composition concatenates them into one cooperative kernel;
/// the two-kernel composition launches them as separate co-resident kernels.
struct ProgramGroups {
  std::vector<vgpu::BlockGroup> comm;
  std::vector<vgpu::BlockGroup> inner;
};

/// Type-erased view of an iterative multi-GPU workload. All hooks must stay
/// valid for the run; hooks a composition does not use may be null (e.g. a
/// persistent-only workload needs no host_step).
struct Program {
  vgpu::Machine* machine = nullptr;
  vshmem::World* world = nullptr;
  int n_pes = 0;

  /// Signal variables backing the workload's signaled-put protocol,
  /// allocated by the driver BEFORE any stream exists (deterministic
  /// resource-creation order) and only for compositions that signal
  /// (kSignaledPut comm / persistent launches). Null when the workload
  /// manages its own SignalSet lifetime (CG-style cores).
  std::function<std::unique_ptr<vshmem::SignalSet>(vshmem::World&)> signals;

  /// kHostLoop: streams the driver creates per device, in creation order
  /// (index 0 first). The slab convention: [0] = compute, [1] = comm.
  int streams_per_device = 1;
  /// One step of the host-driven loop on device `dev` at iteration `t`.
  /// `sig` is the driver-allocated SignalSet (null unless `signals` ran).
  /// Host-loop compositions require a whole-machine world (one host thread
  /// per device, like every discrete baseline).
  std::function<sim::Task(vgpu::HostCtx&, int dev, int t,
                          std::span<vgpu::Stream* const> streams,
                          vshmem::SignalSet* sig)>
      host_step;
  /// Optional data-dependent termination, consulted before each host step.
  std::function<bool(int dev)> stop;

  /// Persistent compositions: PE `dev`'s block groups under `join`.
  std::function<ProgramGroups(int dev, vshmem::SignalSet* sig,
                              const IterationJoin& join)>
      groups;

  /// Checkpoint hook (nullable): PE `pe`'s owned state at the end of
  /// iteration `t`, read under the capture-safety window described on
  /// CheckpointStore. Only consulted when the run's exec params configure a
  /// checkpoint interval and store.
  std::function<std::vector<double>(int pe, int t)> capture;
};

/// Composition knobs that belong to the run, not the workload shape.
struct ProgramExecParams {
  int iterations = 1;
  int threads_per_block = 1024;
  /// Multi-tenant attribution (persistent task variant only): streams the
  /// launch creates are bound (device, lane) -> job_label in this map so
  /// checker/hang reports can name the owning job. Must outlive the run.
  sim::JobMap* job_map = nullptr;
  std::string job_label;
  /// Persistent compositions: snapshot every N iterations into
  /// `checkpoint_store` via the program's capture hook (0 = off). The store
  /// must outlive the run.
  int checkpoint_every = 0;
  CheckpointStore* checkpoint_store = nullptr;
};

/// Runs `program` under `plan`, driving the machine to completion. Throws
/// std::invalid_argument (naming the offending policy component) for plans
/// that fail exec::valid(), and vgpu::CooperativeLaunchError when a
/// persistent composition exceeds the co-residency limit.
void run_program(const Program& program, const Plan& plan,
                 const ProgramExecParams& params);

/// Spawnable variant of the single-kernel persistent composition: builds the
/// groups and co_awaits completion of every device's cooperative launch
/// WITHOUT driving the engine — the caller (e.g. the multi-tenant job
/// server) owns the engine. Only kPersistent plans are accepted. The
/// program's world may be a device slice; launches go to the world's
/// physical devices. A `signals` hook's SignalSet is handed to
/// World::retain_signals so in-flight final puts outlive this coroutine.
/// The program, plan and params must outlive the returned task.
sim::Task run_program_persistent_task(const Program& program, const Plan& plan,
                                      const ProgramExecParams& params);

}  // namespace exec
