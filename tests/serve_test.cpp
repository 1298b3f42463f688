// Multi-tenant job server (src/serve/): admission determinism, occupancy
// arbitration, cross-tenant contention and fault isolation on one shared
// machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/engine.hpp"
#include "solvers/cg.hpp"
#include "solvers/sparse_cg.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/machine.hpp"

namespace {

using serve::ArrivalConfig;
using serve::JobKind;
using serve::JobSpec;
using serve::ServeConfig;
using serve::ServeReport;

JobSpec job(int id, std::string tenant, JobKind kind, int devices,
            std::size_t n, int iterations) {
  JobSpec j;
  j.id = id;
  j.tenant = std::move(tenant);
  j.kind = kind;
  j.devices = devices;
  j.nx = n;
  j.ny = n;
  j.iterations = iterations;
  return j;
}

/// A small mixed fleet: all five workload families, 1- and 2-device slices,
/// including the irregular ones (skewed histogram, imbalanced sparse CG).
std::vector<JobSpec> mixed_fleet() {
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "t0", JobKind::kStencil, 2, 64, 8));
  jobs.push_back(job(1, "t1", JobKind::kCg, 2, 48, 12));
  jobs.push_back(job(2, "t2", JobKind::kDacelite, 1, 24, 6));
  jobs.push_back(job(3, "t0", JobKind::kStencil, 1, 48, 6));
  jobs.push_back(job(4, "t1", JobKind::kDacelite, 2, 24, 6));
  jobs.push_back(job(5, "t2", JobKind::kCg, 1, 32, 8));
  jobs.push_back(job(6, "t0", JobKind::kStencil, 4, 64, 8));
  jobs.push_back(job(7, "t1", JobKind::kCg, 2, 40, 10));
  jobs.push_back(job(8, "t2", JobKind::kStencil, 2, 56, 6));
  JobSpec hist = job(9, "t1", JobKind::kHistogram, 2, 97, 4);
  hist.ny = 256;  // keys per PE per round
  hist.skew = 2;
  hist.threads_per_block = 128;
  jobs.push_back(hist);
  JobSpec sparse = job(10, "t2", JobKind::kSparseCg, 2, 24, 20);
  sparse.imbalance = 3.0;
  jobs.push_back(sparse);
  return jobs;
}

ServeConfig open_loop_config(vgpu::MachineSpec machine) {
  ServeConfig cfg;
  cfg.machine = machine;
  cfg.arrival.mode = ArrivalConfig::Mode::kOpen;
  cfg.arrival.mean_interarrival_us = 30.0;
  cfg.arrival.seed = 7;
  return cfg;
}

/// Every per-job number that must be bit-identical across reruns and
/// engine thread counts, one line per job.
std::string fingerprint(const ServeReport& rep) {
  std::ostringstream os;
  for (const auto& r : rep.jobs) {
    os << r.spec.id << '|' << r.out.arrival << '|' << r.out.admit << '|'
       << r.out.end << '|' << r.out.admitted << r.out.completed
       << r.out.verified << '|' << r.out.first_device << '|'
       << r.out.blocks_per_device << '|' << r.isolated_us << '|'
       << r.slowdown << '|' << r.out.detail << '\n';
  }
  os << rep.fleet.fleet_makespan_us << '|' << rep.fleet.mean_queue_wait_us
     << '|' << rep.fleet.jain_fairness << '\n';
  return os.str();
}

TEST(Serve, MixedFleetCompletesAndVerifies) {
  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const ServeReport rep = serve::run_serve(cfg, mixed_fleet());
  EXPECT_EQ(rep.fleet.jobs, 11);
  EXPECT_EQ(rep.fleet.rejected, 0);
  EXPECT_EQ(rep.fleet.completed, 11);
  EXPECT_EQ(rep.fleet.verified, 11);
  for (const auto& r : rep.jobs) {
    EXPECT_TRUE(r.out.verified) << r.spec.id << ": " << r.out.detail;
    EXPECT_GT(r.isolated_us, 0.0);
    // Contention can only slow a job down; admission may also delay it.
    EXPECT_GE(r.slowdown, 0.999) << r.spec.id;
    EXPECT_GE(r.out.admit, r.out.arrival);
    EXPECT_GT(r.out.end, r.out.admit);
  }
  EXPECT_GT(rep.fleet.jain_fairness, 0.0);
  EXPECT_LE(rep.fleet.jain_fairness, 1.0 + 1e-12);
}

TEST(Serve, BitIdenticalAcrossReruns) {
  const ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  std::vector<std::string> prints;
  for (int rerun = 0; rerun < 3; ++rerun) {
    prints.push_back(fingerprint(serve::run_serve(cfg, mixed_fleet())));
  }
  EXPECT_EQ(prints[0], prints[1]) << "rerun differs";
  EXPECT_EQ(prints[0], prints[2]) << "second rerun differs";
}

TEST(Serve, FifoAdmissionHasNoBypass) {
  // Full-capacity jobs (216 blocks of 1024 on an A100 fill the cooperative
  // cap), all submitted at t=0: A takes 2 devices, B wants all 4 and must
  // wait for A, and C — though 1 device is free the whole time — must wait
  // behind B (FIFO, head-of-line blocking is the determinism contract).
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 6));
  jobs.push_back(job(1, "b", JobKind::kStencil, 4, 64, 6));
  jobs.push_back(job(2, "c", JobKind::kStencil, 1, 48, 6));
  for (auto& j : jobs) j.persistent_blocks = 216;

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(4);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;  // no cap: admission is capacity-driven
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 3);
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_GE(rep.jobs[1].out.admit, rep.jobs[0].out.end);
  EXPECT_GE(rep.jobs[2].out.admit, rep.jobs[1].out.end);
  EXPECT_GT(rep.jobs[2].out.queue_wait(), 0);
}

TEST(Serve, OccupancyCapArbitratesCoResidency) {
  // Default blocks = one per SM = half the 1024-thread cooperative cap, so
  // exactly two persistent jobs co-reside on one device; the third queues
  // until a slot frees.
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 1, 48, 8));
  jobs.push_back(job(1, "b", JobKind::kStencil, 1, 48, 8));
  jobs.push_back(job(2, "c", JobKind::kStencil, 1, 48, 8));

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(1);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 3);
  ASSERT_EQ(rep.fleet.verified, 3);
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_EQ(rep.jobs[1].out.admit, 0);  // co-resident with job 0
  const sim::Nanos first_end =
      std::min(rep.jobs[0].out.end, rep.jobs[1].out.end);
  EXPECT_GE(rep.jobs[2].out.admit, first_end);
  EXPECT_GT(rep.jobs[2].out.queue_wait(), 0);
}

TEST(Serve, CrossbarTenantsDoNotInterfere) {
  // Full-capacity jobs force disjoint 2-device slices; on the NVSwitch
  // crossbar every lane is dedicated, so each tenant runs at its isolated
  // speed (slowdown ~= 1).
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 10));
  jobs.push_back(job(1, "b", JobKind::kStencil, 2, 64, 10));
  for (auto& j : jobs) j.persistent_blocks = 216;

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(4);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.verified, 2);
  EXPECT_EQ(rep.jobs[0].out.first_device, 0);
  EXPECT_EQ(rep.jobs[1].out.first_device, 2);
  for (const auto& r : rep.jobs) {
    EXPECT_GE(r.slowdown, 0.999) << r.spec.id;
    EXPECT_LE(r.slowdown, 1.01) << r.spec.id;
  }
}

TEST(Serve, SharedLinksContend) {
  // Two half-capacity 4-device jobs co-resident on a 2x2 multi-node
  // machine: both tenants' node-crossing halos share the per-node NIC
  // links, so each runs measurably slower than alone.
  // Wide, shallow domains make the node-crossing halo (plane = nx doubles)
  // the dominant per-iteration cost, so NIC sharing is clearly visible.
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 4, 16, 30));
  jobs.push_back(job(1, "b", JobKind::kStencil, 4, 16, 30));
  for (auto& j : jobs) j.nx = 4096;

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::multi_node(2, 2);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.verified, 2);
  // Both jobs span the same 4 devices (co-resident under the occupancy cap).
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_EQ(rep.jobs[1].out.admit, 0);
  EXPECT_GT(rep.fleet.mean_slowdown, 1.02);
}

TEST(Serve, InFlightFinalPutsSurviveJobTeardown) {
  // Regression: the slab halo protocol signals iteration t+1 after its last
  // step, so a job's final put_signal is still in flight — unconsumed —
  // when its task completes mid-run. The workload (world, flags) must stay
  // alive until the shared engine drains, or the delivery callback touches
  // freed memory (caught under ASan). Wide shallow slabs maximise the
  // in-flight window; the follow-up jobs reuse the same devices right after
  // the wide job's slot frees.
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 4, 16, 12));
  jobs[0].nx = 4096;
  jobs.push_back(job(1, "b", JobKind::kStencil, 1, 48, 6));
  jobs.push_back(job(2, "b", JobKind::kCg, 2, 32, 8));
  jobs.push_back(job(3, "a", JobKind::kDacelite, 1, 24, 6));

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::multi_node(2, 2);
  cfg.arrival.mode = ArrivalConfig::Mode::kOpen;
  cfg.arrival.mean_interarrival_us = 10.0;
  cfg.arrival.seed = 21;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 4);
  EXPECT_EQ(rep.fleet.verified, 4);
}

TEST(Serve, FaultyTenantDoesNotPerturbNeighbors) {
  // Tenant A injects put/signal faults (recovered by retry+degrade) on its
  // own 2-device slice; tenant B's disjoint slice must verify AND keep the
  // exact timeline it has when A is clean.
  auto make = [](bool a_faulty) {
    std::vector<JobSpec> jobs;
    jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 10));
    jobs.push_back(job(1, "b", JobKind::kCg, 2, 48, 12));
    jobs[0].faulty = a_faulty;
    jobs[0].persistent_blocks = 216;
    jobs[1].persistent_blocks = 216;
    ServeConfig cfg;
    cfg.machine = vgpu::MachineSpec::hgx_a100(4);
    cfg.machine.faults.seed = 17;
    cfg.machine.faults.rate = 0.05;
    cfg.machine.faults.resilience = fault::Resilience::kRetryDegrade;
    cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
    cfg.arrival.concurrency = 0;
    return serve::run_serve(cfg, jobs);
  };

  const ServeReport faulty = make(true);
  const ServeReport clean = make(false);
  ASSERT_EQ(faulty.fleet.completed, 2);
  EXPECT_EQ(faulty.fleet.verified, 2);
  ASSERT_EQ(clean.fleet.completed, 2);
  EXPECT_EQ(clean.fleet.verified, 2);
  // The injections slow tenant A down...
  EXPECT_GE(faulty.jobs[0].out.makespan(), clean.jobs[0].out.makespan());
  // ...but tenant B's timeline is byte-identical either way.
  EXPECT_EQ(faulty.jobs[1].out.admit, clean.jobs[1].out.admit);
  EXPECT_EQ(faulty.jobs[1].out.end, clean.jobs[1].out.end);
}

TEST(Serve, IrregularJobsVerifyBitwiseUnderContention) {
  // A skewed histogram and an imbalanced sparse CG co-resident on the SAME
  // 2-device slice (default blocks = half the cooperative cap): contended
  // links and interleaved engine events must not perturb either job's
  // numerics — both verify bitwise against their serial references.
  std::vector<JobSpec> jobs;
  JobSpec hist = job(0, "a", JobKind::kHistogram, 2, 61, 5);
  hist.ny = 192;
  hist.skew = 3;
  hist.threads_per_block = 128;
  jobs.push_back(hist);
  JobSpec sparse = job(1, "b", JobKind::kSparseCg, 2, 20, 24);
  sparse.imbalance = 4.0;
  jobs.push_back(sparse);

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(2);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 2);
  EXPECT_EQ(rep.fleet.verified, 2);
  // Co-resident from t=0 on the same slice.
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_EQ(rep.jobs[1].out.admit, 0);
  EXPECT_EQ(rep.jobs[0].out.first_device, rep.jobs[1].out.first_device);
  EXPECT_EQ(rep.jobs[0].out.detail.rfind("histogram", 0), 0u)
      << rep.jobs[0].out.detail;
  EXPECT_EQ(rep.jobs[1].out.detail.rfind("sparse_cg", 0), 0u)
      << rep.jobs[1].out.detail;
}

TEST(Serve, IrregularSpecsAreValidated) {
  std::vector<JobSpec> jobs;
  JobSpec hist = job(0, "a", JobKind::kHistogram, 4, 3, 4);  // 3 bins < 4 PEs
  jobs.push_back(hist);
  JobSpec sparse = job(1, "b", JobKind::kSparseCg, 4, 24, 10);
  sparse.ny = 6;  // fewer than two rows per device
  jobs.push_back(sparse);
  jobs.push_back(job(2, "c", JobKind::kSparseCg, 2, 16, 10));

  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const ServeReport rep = serve::run_serve(cfg, jobs);
  EXPECT_EQ(rep.fleet.rejected, 2);
  EXPECT_EQ(rep.fleet.completed, 1);
  EXPECT_EQ(rep.fleet.verified, 1);
  EXPECT_NE(rep.jobs[0].out.detail.find("bin per device"), std::string::npos)
      << rep.jobs[0].out.detail;
  EXPECT_NE(rep.jobs[1].out.detail.find("two rows per device"),
            std::string::npos)
      << rep.jobs[1].out.detail;
}

TEST(Serve, InfeasibleJobsAreRejectedNotWedged) {
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 8, 64, 6));  // > 4 devices
  jobs.push_back(job(1, "b", JobKind::kStencil, 2, 64, 6));
  JobSpec thin = job(2, "c", JobKind::kStencil, 4, 64, 6);
  thin.ny = 4;  // fewer than two slabs per device
  jobs.push_back(thin);

  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const ServeReport rep = serve::run_serve(cfg, jobs);
  EXPECT_EQ(rep.fleet.rejected, 2);
  EXPECT_EQ(rep.fleet.completed, 1);
  EXPECT_EQ(rep.fleet.verified, 1);
  EXPECT_EQ(rep.jobs[0].out.detail.rfind("rejected:", 0), 0u);
  EXPECT_EQ(rep.jobs[2].out.detail.rfind("rejected:", 0), 0u);
  EXPECT_TRUE(rep.jobs[1].out.verified);
}

// --- Isolated baselines ---------------------------------------------------

/// A one-at-a-time fleet: every job starts on an idle machine, so first-fit
/// places it on devices 0..devices-1.
ServeConfig serial_config(vgpu::MachineSpec machine) {
  ServeConfig cfg;
  cfg.machine = std::move(machine);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 1;
  return cfg;
}

/// The isolated baseline computed the direct way: the job alone, run
/// functionally and verified, on an idle, fault-free, serial copy of the
/// machine, on devices 0..devices-1.
sim::Nanos functional_isolated_ns(const vgpu::MachineSpec& machine,
                                  const JobSpec& spec, int blocks_per_device) {
  vgpu::MachineSpec ms = machine;
  ms.faults = fault::Config{};
  vgpu::Machine m(ms);
  m.trace().set_enabled(false);
  serve::Placement place;
  for (int d = 0; d < spec.devices; ++d) place.devices.push_back(d);
  place.blocks_per_device = blocks_per_device;
  auto work = serve::make_workload(m, spec, place, "direct", nullptr);
  m.engine().spawn(work->task());
  m.engine().run();
  EXPECT_TRUE(work->verify()) << serve::name(spec.kind);
  return m.engine().now();
}

TEST(ServeIsolated, BaselinesEqualAFunctionalRunOfEveryKind) {
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 8));
  JobSpec ckpt = job(1, "a", JobKind::kStencil, 2, 64, 10);
  ckpt.checkpoint_every = 2;
  jobs.push_back(ckpt);
  jobs.push_back(job(2, "b", JobKind::kCg, 2, 48, 12));
  // Small Laplacians converge well before their caps: the loop ends on the
  // devices' residual test, which only a functional baseline reaches.
  JobSpec cg_conv = job(3, "b", JobKind::kCg, 2, 6, 200);
  jobs.push_back(cg_conv);
  jobs.push_back(job(4, "c", JobKind::kDacelite, 1, 24, 6));
  jobs.push_back(job(5, "c", JobKind::kDacelite, 2, 24, 6));
  JobSpec hist = job(6, "d", JobKind::kHistogram, 2, 97, 4);
  hist.ny = 192;
  hist.skew = 2;
  hist.threads_per_block = 128;
  jobs.push_back(hist);
  JobSpec sparse = job(7, "e", JobKind::kSparseCg, 2, 24, 20);
  sparse.imbalance = 4.0;
  jobs.push_back(sparse);
  JobSpec sparse_conv = job(8, "e", JobKind::kSparseCg, 2, 6, 200);
  sparse_conv.imbalance = 2.0;
  jobs.push_back(sparse_conv);

  // The converging shapes really do stop early.
  solvers::CgConfig cc;
  cc.nx = cc.ny = 6;
  cc.max_iterations = 200;
  ASSERT_LT(solvers::cg_reference(cc, 2).iterations_run, 200);
  solvers::SparseCgConfig sc;
  sc.nx = sc.ny = 6;
  sc.max_iterations = 200;
  sc.imbalance = 2.0;
  ASSERT_LT(solvers::sparse_cg_reference(sc, 2).iterations_run, 200);

  for (const vgpu::MachineSpec& machine :
       {vgpu::MachineSpec::dgx_pcie(8), vgpu::MachineSpec::multi_node(2, 4)}) {
    const ServeReport rep = serve::run_serve(serial_config(machine), jobs);
    ASSERT_EQ(rep.fleet.verified, static_cast<int>(jobs.size()));
    for (const serve::JobRecord& r : rep.jobs) {
      EXPECT_EQ(r.out.first_device, 0);
      const sim::Nanos direct =
          functional_isolated_ns(machine, r.spec, r.out.blocks_per_device);
      EXPECT_EQ(r.isolated_us, sim::to_usec(direct))
          << r.spec.id << " " << serve::name(r.spec.kind) << " "
          << r.out.detail;
    }
  }
}

TEST(ServeIsolated, CacheKeySeparatesCheckpointIntervals) {
  // Two serial 64x64x10 stencil jobs on 2 devices, one checkpointing every
  // 2 iterations: the checkpoint captures cost time, so their isolated
  // runtimes differ, and neither may inherit the other's in either order.
  const vgpu::MachineSpec machine = vgpu::MachineSpec::dgx_pcie(8);
  for (bool ckpt_first : {true, false}) {
    std::vector<JobSpec> jobs;
    jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 10));
    jobs.push_back(job(1, "b", JobKind::kStencil, 2, 64, 10));
    jobs[ckpt_first ? 0 : 1].checkpoint_every = 2;
    const ServeReport rep = serve::run_serve(serial_config(machine), jobs);
    ASSERT_EQ(rep.fleet.verified, 2);
    for (const serve::JobRecord& r : rep.jobs) {
      const bool ckpt = r.spec.checkpoint_every > 0;
      EXPECT_EQ(r.isolated_us, sim::to_usec(ckpt ? 51642 : 51590))
          << "ckpt_first=" << ckpt_first << " job " << r.spec.id;
      EXPECT_GE(r.slowdown, 1.0)
          << "ckpt_first=" << ckpt_first << " job " << r.spec.id;
    }
  }
}

}  // namespace
