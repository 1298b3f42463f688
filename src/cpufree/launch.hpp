// Multi-GPU persistent cooperative launch (paper §3.1.1).
//
// In the CPU-Free model the host's entire job is one cooperative kernel
// launch per device; everything else (time loop, synchronization,
// communication) happens on the devices. launch_persistent_all() models
// exactly that: each per-device host thread pays one launch cost, the
// persistent kernels run to completion, and the host only returns at the
// end. Cooperative co-residency limits are enforced per device.
#pragma once

#include <string_view>
#include <vector>

#include "sim/combinators.hpp"
#include "sim/observe.hpp"
#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"

namespace cpufree {

struct PersistentConfig {
  int threads_per_block = 1024;
  std::string_view name = "persistent";
  /// Multi-tenant attribution: when set, every stream this launch creates is
  /// bound as (device, lane) -> job_label so checker reports and hang dumps
  /// can name the owning job. The map must outlive the run.
  sim::JobMap* job_map = nullptr;
  std::string_view job_label = {};
};

/// Block groups for one device's persistent kernel.
using DeviceGroups = std::vector<vgpu::BlockGroup>;

/// Launches one persistent cooperative kernel per device (device i runs
/// groups[i]) and runs the machine until every kernel finished. This is the
/// whole host-side control flow of a CPU-Free application.
inline void launch_persistent_all(vgpu::Machine& machine,
                                  std::vector<DeviceGroups> groups,
                                  PersistentConfig config = {}) {
  if (static_cast<int>(groups.size()) != machine.num_devices()) {
    throw std::invalid_argument(
        "launch_persistent_all: one group set per device required");
  }
  // Streams live for the duration of the run (created up front, as a real
  // application would).
  std::vector<vgpu::Stream*> streams;
  streams.reserve(groups.size());
  for (int d = 0; d < machine.num_devices(); ++d) {
    streams.push_back(&machine.device(d).create_stream());
  }
  auto shared_groups =
      std::make_shared<std::vector<DeviceGroups>>(std::move(groups));
  machine.run_host_threads([&machine, &streams, shared_groups,
                            config](int dev) -> sim::Task {
    vgpu::HostCtx host(machine, dev);
    vgpu::LaunchConfig lc;
    lc.threads_per_block = config.threads_per_block;
    lc.cooperative = true;
    lc.name = config.name;
    DeviceGroups dg = std::move((*shared_groups)[static_cast<std::size_t>(dev)]);
    CO_AWAIT(host.launch(*streams[static_cast<std::size_t>(dev)], lc,
                         std::move(dg)));
    // The CPU is now free: it only synchronizes once at the very end.
    CO_AWAIT(host.sync_stream(*streams[static_cast<std::size_t>(dev)]));
  });
}

namespace detail {

inline sim::Task persistent_one_device(vgpu::Machine& machine, int dev,
                                       vgpu::Stream* stream, DeviceGroups dg,
                                       PersistentConfig config,
                                       std::shared_ptr<sim::Flag> done) {
  vgpu::HostCtx host(machine, dev);
  vgpu::LaunchConfig lc;
  lc.threads_per_block = config.threads_per_block;
  lc.cooperative = true;
  lc.name = config.name;
  CO_AWAIT(host.launch(*stream, lc, std::move(dg)));
  CO_AWAIT(host.sync_stream(*stream));
  done->add(1);
}

}  // namespace detail

/// Spawnable variant of launch_persistent_all for callers that already drive
/// the engine (the multi-tenant server): launches one persistent cooperative
/// kernel on each listed *physical* device (devices[i] runs groups[i]) and
/// completes when all of them synced. The caller — not this function — runs
/// the engine; any device subset works, so several jobs can be in flight on
/// disjoint (or overlapping) slices of one machine.
inline sim::Task persistent_launch_task(vgpu::Machine& machine,
                                        std::vector<int> devices,
                                        std::vector<DeviceGroups> groups,
                                        PersistentConfig config = {}) {
  if (devices.size() != groups.size()) {
    throw std::invalid_argument(
        "persistent_launch_task: one group set per device required");
  }
  // Streams live for the duration of the run (created up front, before the
  // first suspension, so stream lanes are assigned in a deterministic order).
  std::vector<vgpu::Stream*> streams;
  streams.reserve(devices.size());
  for (int dev : devices) {
    vgpu::Stream& s = machine.device(dev).create_stream();
    if (config.job_map != nullptr) {
      config.job_map->bind(dev, s.lane(), std::string(config.job_label));
    }
    streams.push_back(&s);
  }
  auto done = std::make_shared<sim::Flag>(machine.engine(), 0);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const int dev = devices[i];
    machine.engine().spawn(detail::persistent_one_device(
        machine, dev, streams[i], std::move(groups[i]), config, done));
  }
  co_await done->wait_geq(static_cast<std::int64_t>(devices.size()));
}

}  // namespace cpufree
