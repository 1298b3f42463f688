// The multi-tenant job server: admission-controlled scheduling of
// concurrent CPU-Free jobs on ONE shared simulated machine.
//
// Where every other driver in the tree runs one application per Machine,
// run_serve() keeps a single Machine (one engine, one trace, one shared
// topo::LinkLedger) and multiplexes a whole job list onto it: a dispatcher
// coroutine paces the deterministic arrival schedule, the admission
// controller carves per-job device slices under the cooperative occupancy
// cap, and each admitted job runs as its own spawned task over its own
// vshmem::World slice — so co-resident tenants contend for links and
// devices exactly the way concurrent CPU-Free applications would, while a
// faulty tenant's injections stay gated to its own world.
//
// Everything is deterministic: arrivals come from the counter-based RNG,
// admission is FIFO with no bypass (head-of-line blocking is the price of
// reproducible queueing), and the serial engine makes per-job metrics
// bit-identical across reruns.
#pragma once

#include <vector>

#include "serve/arrival.hpp"
#include "serve/job.hpp"
#include "serve/placement.hpp"
#include "sim/observe.hpp"
#include "vgpu/costmodel.hpp"

namespace serve {

struct ServeConfig {
  vgpu::MachineSpec machine;
  ArrivalConfig arrival;
  PlacePolicy policy = PlacePolicy::kFirstFit;
  /// Re-run every distinct completed job alone on an idle, fault-free copy
  /// of the machine to compute slowdown-vs-isolated and SLO attainment.
  /// Baselines are deduplicated by every field the run reads (kind, shape,
  /// iterations, skew, imbalance, threads per block, checkpoint interval,
  /// blocks per device and the device tuple), so the extra cost is one run
  /// per distinct job, not per job. A baseline only reads simulated time,
  /// so it runs timing-only unless the job's schedule reads computed values
  /// (Workload::schedule_reads_values).
  bool compute_isolated = true;
  /// Optional race/deadlock observer for the SHARED machine; a
  /// check::Detector is additionally wired to the server's job map so its
  /// findings carry job labels.
  sim::Observer* observer = nullptr;
  /// Fleet-wide checkpoint interval, applied to every checkpoint-capable
  /// job that does not set its own JobSpec::checkpoint_every: snapshot
  /// state every N iterations so a fail-stopped device costs at most N-1
  /// iterations of progress (0 = no checkpointing; an aborted job is lost).
  int checkpoint_every = 0;
};

/// Runs `jobs` (submission order = arrival order) to completion and returns
/// per-job records plus fleet metrics. A deadlock on the shared machine
/// (e.g. a faulty tenant with no retry budget) is caught: stuck jobs report
/// completed=false and every drained job's record stays valid.
[[nodiscard]] ServeReport run_serve(const ServeConfig& config,
                                    std::vector<JobSpec> jobs);

}  // namespace serve
