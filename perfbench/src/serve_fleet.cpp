// serve_fleet: seeded multi-tenant fleets on the shared-trunk machines
// (dgx_pcie(8) and multi_node(2, 4)).
//
// One op serves one fleet: tenants submit jobs of all five kinds (stencil,
// CG, dacelite, histogram, sparse CG) with open-loop Poisson arrivals in
// simulated time, first-fit admission, and isolated baselines on, so every
// job gets a slowdown and an SLO verdict. The server verifies every job
// against its serial reference itself; the op fails unless every job
// completed and verified. Job latency runs from arrival to end, so queue
// wait counts. The pass seed draws the fleet's shapes and arrivals.
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

constexpr int kTenants = 8;
constexpr int kJobsPerTenant = 6;
constexpr int kFleetsPerMachine = 2;

const MachineDef kMachines[] = {
    {"dgx_pcie", [] { return vgpu::MachineSpec::dgx_pcie(8); }},
    {"multi_node", [] { return vgpu::MachineSpec::multi_node(2, 4); }},
};

constexpr serve::JobKind kKinds[] = {
    serve::JobKind::kStencil, serve::JobKind::kCg, serve::JobKind::kDacelite,
    serve::JobKind::kHistogram, serve::JobKind::kSparseCg};

/// The fleet's jobs, tenant-major round robin in submission order.
std::vector<serve::JobSpec> make_fleet(std::uint64_t fleet_seed) {
  static constexpr int kDevices[] = {1, 2, 4};
  // Few sizes, so shapes repeat within a fleet as tenant traffic does.
  static constexpr std::size_t kStencilN[] = {48, 64, 96};
  static constexpr std::size_t kCgN[] = {32, 48, 64};
  static constexpr std::size_t kHistBins[] = {61, 97, 193};
  static constexpr std::size_t kSparseN[] = {16, 24, 32};
  enum Draw : std::uint64_t { kKind, kDev, kShape };
  std::vector<serve::JobSpec> jobs;
  int id = 0;
  for (int j = 0; j < kJobsPerTenant; ++j) {
    for (int t = 0; t < kTenants; ++t) {
      const auto slot = static_cast<std::uint64_t>(j * kTenants + t);
      serve::JobSpec s;
      s.id = id++;
      s.tenant = "t";  // += sidesteps a GCC 12 -Wrestrict false positive
      s.tenant += std::to_string(t);
      // Every fleet holds the same mix of kinds; the draws pick the order,
      // the widths and the shapes.
      const std::uint64_t turn =
          slot + draw(fleet_seed, kKind, 0, std::size(kKinds));
      s.kind = kKinds[turn % std::size(kKinds)];
      s.devices = kDevices[draw(fleet_seed, kDev, slot, 3)];
      // Every fourth stencil job is a halo-heavy wide slab on four devices:
      // what loads the shared trunks. A fixed count per fleet keeps the
      // fleets' peak memory alike.
      const bool wide_slab = turn % (4 * std::size(kKinds)) == 0;
      const std::uint64_t shape = draw(fleet_seed, kShape, slot, 1u << 16);
      const std::size_t size = shape % 3;
      const bool longer = ((shape >> 8) & 1) != 0;
      switch (s.kind) {
        case serve::JobKind::kStencil:
          if (wide_slab) {
            s.devices = 4;
            s.nx = 4096;
            s.ny = 16;
            s.iterations = 12;
          } else {
            s.nx = s.ny = kStencilN[size];
            s.iterations = longer ? 10 : 6;
          }
          break;
        case serve::JobKind::kCg:
          s.nx = s.ny = kCgN[size];
          s.iterations = longer ? 12 : 8;
          break;
        case serve::JobKind::kDacelite:
          // One device until a known defect is fixed: dacelite's persistent
          // lowering sends halos with putmem_signal_nbi and rewrites the
          // source array in the same iteration without a quiet, so under
          // shared-trunk contention a multi-device job's peer can receive
          // next-iteration values (about 1 fleet in 100 on dgx_pcie fails
          // verification). Drop this line to reproduce it.
          s.devices = 1;
          s.nx = s.ny = (shape & 1) != 0 ? 48 : 24;
          s.iterations = longer ? 10 : 6;
          break;
        case serve::JobKind::kHistogram:
          s.nx = kHistBins[size];
          s.ny = 192;
          s.skew = static_cast<int>((shape >> 4) & 3);
          s.iterations = longer ? 6 : 4;
          s.threads_per_block = 128;
          break;
        case serve::JobKind::kSparseCg:
          s.nx = s.ny = kSparseN[size];
          s.imbalance = ((shape >> 4) & 1) != 0 ? 4.0 : 1.0;
          s.iterations = longer ? 20 : 12;
          break;
      }
      jobs.push_back(std::move(s));
    }
  }
  return jobs;
}

/// Distinct job shapes in a fleet (what the isolated-baseline and
/// verification caches inside the server can share).
std::size_t distinct_shapes(const std::vector<serve::JobSpec>& jobs) {
  std::set<std::tuple<int, int, int, std::size_t, std::size_t, int, double>>
      shapes;
  for (const serve::JobSpec& s : jobs) {
    shapes.emplace(static_cast<int>(s.kind), s.devices, s.iterations, s.nx,
                   s.ny, s.skew, s.imbalance);
  }
  return shapes.size();
}

serve::ServeConfig fleet_config(const MachineDef& m, std::uint64_t fleet_seed,
                                bool isolated) {
  serve::ServeConfig cfg;
  cfg.machine = m.make();
  cfg.arrival.mean_interarrival_us = 30.0;
  cfg.arrival.seed = fleet_seed;
  cfg.compute_isolated = isolated;
  return cfg;
}

Op fleet_op(const MachineDef& m, int index, std::uint64_t fleet_seed) {
  Op op;
  op.key = std::string(m.key) + "/fleet" + std::to_string(index);
  op.run = [&m, fleet_seed](OpCtx& ctx) {
    serve::ServeConfig cfg = fleet_config(m, fleet_seed, true);
    cfg.observer = ctx.observer;
    std::vector<serve::JobSpec> jobs = make_fleet(fleet_seed);
    const double shapes = static_cast<double>(distinct_shapes(jobs));
    serve::ServeReport rep;
    {
      Scope s(ctx.tracer, "serve.run");
      rep = serve::run_serve(cfg, std::move(jobs));
    }
    OpResult r;
    const serve::FleetMetrics& f = rep.fleet;
    char buf[160];
    for (const serve::JobRecord& j : rep.jobs) {
      if (!j.out.completed || !j.out.verified) {
        r.fail("job " + std::to_string(j.spec.id) + " (" +
               serve::name(j.spec.kind) + ") not verified: " + j.out.detail);
      }
      r.job_us.push_back(sim::to_usec(j.out.end - j.out.arrival));
      std::snprintf(buf, sizeof(buf), "[%d %lld %lld %lld %d %.17g]",
                    j.spec.id, static_cast<long long>(j.out.arrival),
                    static_cast<long long>(j.out.admit),
                    static_cast<long long>(j.out.end), j.slo_met ? 1 : 0,
                    j.slowdown);
      r.digest += buf;
    }
    r.sim_ms = f.fleet_makespan_us * 1e-3;
    ctx.outcome("serve.queue_wait_us_mean", f.mean_queue_wait_us);
    ctx.outcome("serve.jain_fairness", f.jain_fairness);
    ctx.outcome("serve.mean_slowdown", f.mean_slowdown);
    ctx.outcome("serve.rejected", f.rejected);
    ctx.outcome("serve.slo_attainment",
                f.jobs > 0 ? static_cast<double>(f.slo_met) / f.jobs : 0.0);
    ctx.outcome("serve.jobs_per_shape", f.jobs / shapes);
    return r;
  };
  // The fleet alone, then with isolated baselines: the difference is the
  // baselines' share of a fleet op.
  op.probe = [&m, fleet_seed](OpCtx& ctx) {
    double ms[2] = {0.0, 0.0};
    for (bool isolated : {false, true}) {
      const std::int64_t t0 = now_ns();
      (void)serve::run_serve(fleet_config(m, fleet_seed, isolated),
                             make_fleet(fleet_seed));
      ms[isolated ? 1 : 0] = static_cast<double>(now_ns() - t0) * 1e-6;
    }
    ctx.outcome("serve.fleet_ms", ms[0]);
    ctx.outcome("serve.isolated_ms", ms[1] - ms[0]);
  };
  return op;
}

std::vector<Op> make_pass(std::uint64_t /*seed*/, std::uint64_t pass_seed) {
  std::vector<Op> ops;
  std::uint64_t n = 0;
  for (const MachineDef& m : kMachines) {
    for (int f = 0; f < kFleetsPerMachine; ++f) {
      ops.push_back(fleet_op(m, f, derive(pass_seed, n++)));
    }
  }
  return ops;
}

}  // namespace

Workload serve_fleet() {
  Workload w;
  w.name = "serve_fleet";
  w.why = "multi-tenant fleets: shared-trunk ledger, many small references";
  w.pass = make_pass;
  w.canonical_passes = 40;
  w.warmup_stride = 2;
  return w;
}

}  // namespace perfbench
