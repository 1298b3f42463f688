// Fault-resilience study — the deterministic fault plane (src/fault/)
// exercised across the resilience ladder:
//
//   fault rate x { CPU-Free stencil (1- and 2-kernel), CPU-Free CG }
//              x { no-retry, retry, retry+degrade }
//
// Every case runs FUNCTIONALLY and is verified against the serial
// reference, so "recovered" means the numerics are bit-identical, not
// merely that the run finished. Expected shape: with faults on,
//   * no-retry hangs on the first lost signal (the engine's attributed
//     deadlock report names the stuck actor and wait site);
//   * retry completes while the loss stays within the retry budget;
//   * retry+degrade completes every case, falling back to host-style
//     polling when the budget is exhausted.
//
// --faults seed=S picks the injection seed (rate/resilience from the
// command line are ignored: this driver sweeps them itself). The final
// RESILIENT/FRAGILE line gates the CI fault-soak: exit is nonzero iff a
// recovering configuration failed to complete with correct numerics.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "solvers/cg.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"

namespace {

using stencil::StencilConfig;
using stencil::Variant;

constexpr double kRates[] = {0.0, 0.01, 0.05};
constexpr fault::Resilience kModes[] = {fault::Resilience::kNone,
                                        fault::Resilience::kRetry,
                                        fault::Resilience::kRetryDegrade};
constexpr int kGpus = 4;
constexpr int kStencilIters = 30;

struct Workload {
  const char* key;                 // JSON parameter value / table caption
  bool is_cg;
  Variant variant;                 // stencil workloads only
};

const Workload kWorkloads[] = {
    {"stencil/cpu_free", false, Variant::kCpuFree},
    {"stencil/cpu_free_2k", false, Variant::kCpuFreeTwoKernels},
    {"cg/cpu_free", true, Variant::kCpuFree},
};

fault::Config make_faults(std::uint64_t seed, double rate,
                          fault::Resilience mode) {
  fault::Config cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  cfg.resilience = mode;
  return cfg;
}

/// One case end to end. A deadlock (expected for no-retry at nonzero rate)
/// is caught and reported as completed=0; everything else must verify.
sweep::RunResult run_case(const Workload& w, const fault::Config& faults,
                          sim::Observer* obs = nullptr) {
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(kGpus);
  spec.faults = faults;
  sweep::RunResult res;
  res.spec = spec;
  bool completed = false;
  bool verified = false;
  try {
    if (w.is_cg) {
      solvers::CgConfig cfg;
      cfg.nx = 96;
      cfg.ny = 96;
      cfg.max_iterations = 40;
      cfg.functional = true;
      cfg.observer = obs;
      const solvers::CgResult out = solvers::run_cg_cpufree(spec, cfg);
      const solvers::CgResult ref = solvers::cg_reference(cfg, kGpus);
      completed = true;
      verified = out.iterations_run == ref.iterations_run &&
                 out.final_rr == ref.final_rr;
      res.metrics = out.metrics;
    } else {
      stencil::Jacobi2D p;
      p.nx = 256;
      p.ny = 256;
      StencilConfig cfg;
      cfg.iterations = kStencilIters;
      cfg.functional = true;
      cfg.persistent_blocks = 12;
      cfg.observer = obs;
      const stencil::RunOutput out = stencil::run_jacobi2d(w.variant, spec, p, cfg);
      completed = true;
      verified = out.verified;
      res.metrics = out.result.metrics;
    }
  } catch (const sim::DeadlockError&) {
    // The engine already printed/threw an attributed report; for the sweep
    // this outcome is simply "did not complete".
  }
  res.set("completed", completed ? 1.0 : 0.0);
  res.set("verified", verified ? 1.0 : 0.0);
  res.set("total_ms", res.metrics.total_ms());
  res.set("retries", static_cast<double>(res.metrics.retries));
  res.set("watchdog_fires", static_cast<double>(res.metrics.watchdog_fires));
  res.set("degraded_iters", static_cast<double>(res.metrics.degraded_iters));
  res.set("faults_injected",
          static_cast<double>(res.metrics.faults_injected));
  bench::tag_workload(res, w.is_cg ? "cg" : "jacobi2d",
                      bench::slab_imbalance(w.is_cg ? 96 : 256, kGpus));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  if (args.topo) {
    bench::print_topology(vgpu::MachineSpec::hgx_a100(kGpus),
                          "hgx_a100(4)");
    return 0;
  }
  const std::uint64_t seed = args.faults.seed;
  if (args.check) {
    // Recovering configurations only: a no-retry case at nonzero rate hangs
    // by design (its verdict would be the engine's deadlock report, not a
    // protocol bug), so the race/deadlock gate covers retry and degrade.
    std::vector<bench::CheckCase> cases;
    for (const Workload& w : kWorkloads) {
      for (fault::Resilience mode :
           {fault::Resilience::kRetry, fault::Resilience::kRetryDegrade}) {
        cases.push_back({std::string(w.key) + "/" + fault::name(mode),
                         [&w, mode, seed](sim::Observer* o) {
                           (void)run_case(w, make_faults(seed, 0.05, mode), o);
                         }});
      }
    }
    return bench::run_check(cases);
  }

  bench::print_header("Fault resilience",
                      "injection rate x workload x resilience ladder");
  bench::print_calibration(vgpu::MachineSpec::hgx_a100(kGpus));
  std::printf("injection seed %llu (override with --faults seed=S)\n\n",
              static_cast<unsigned long long>(seed));
  bench::print_policies(
      {{stencil::variant_name(Variant::kCpuFree),
        stencil::plan_for(Variant::kCpuFree)},
       {stencil::variant_name(Variant::kCpuFreeTwoKernels),
        stencil::plan_for(Variant::kCpuFreeTwoKernels)}});

  sweep::Executor ex(args.sweep_options());
  for (const Workload& w : kWorkloads) {
    for (double rate : kRates) {
      for (fault::Resilience mode : kModes) {
        ex.add(std::string(w.key) + "/rate=" + std::to_string(rate) + "/" +
                   fault::name(mode),
               {{"workload", w.key},
                {"rate", std::to_string(rate)},
                {"resilience", fault::name(mode)},
                {"seed", std::to_string(seed)},
                {"gpus", std::to_string(kGpus)}},
               [&w, rate, mode, seed] {
                 return run_case(w, make_faults(seed, rate, mode));
               });
      }
    }
  }

  const int threads = ex.resolved_threads();
  const std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  int fragile = 0;  // recovering configurations that failed
  for (const Workload& w : kWorkloads) {
    std::printf("%s\n", w.key);
    std::printf("  %-16s", "resilience");
    for (double rate : kRates) std::printf("  %16s", ("rate " + std::to_string(rate)).c_str());
    std::printf("\n");
    // records are queued rate-major, printed mode-major: buffer the grid.
    const sweep::RunRecord* grid[std::size(kRates)][std::size(kModes)];
    for (std::size_t r = 0; r < std::size(kRates); ++r) {
      for (std::size_t m = 0; m < std::size(kModes); ++m) {
        grid[r][m] = &cur.next();
      }
    }
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
      std::printf("  %-16s", fault::name(kModes[m]));
      for (std::size_t r = 0; r < std::size(kRates); ++r) {
        const sweep::RunRecord& rec = *grid[r][m];
        const bool completed = rec.value("completed") != 0.0;
        const bool verified = rec.value("verified") != 0.0;
        char cell[64];
        if (!completed) {
          std::snprintf(cell, sizeof(cell), "HUNG");
        } else {
          std::snprintf(cell, sizeof(cell), "%s %.2f ms",
                        verified ? "ok" : "WRONG", rec.value("total_ms"));
        }
        std::printf("  %16s", cell);
        if (kModes[m] != fault::Resilience::kNone && !(completed && verified)) {
          ++fragile;
        }
      }
      std::printf("\n");
    }
    // Recovery-protocol activity at the highest rate, per rung.
    for (std::size_t m = 1; m < std::size(kModes); ++m) {
      const sweep::RunRecord& rec = *grid[std::size(kRates) - 1][m];
      std::printf("  %-16s at rate %g: %d injected, %d watchdog, %d retries,"
                  " %d degraded wait(s)\n",
                  fault::name(kModes[m]), kRates[std::size(kRates) - 1],
                  static_cast<int>(rec.value("faults_injected")),
                  static_cast<int>(rec.value("watchdog_fires")),
                  static_cast<int>(rec.value("retries")),
                  static_cast<int>(rec.value("degraded_iters")));
    }
    std::printf("\n");
  }

  std::printf("%s: %d recovering configuration(s) failed\n\n",
              fragile == 0 ? "RESILIENT" : "FRAGILE", fragile);

  bench::emit_records("fig_fault_resilience", args, threads, records);
  return fragile == 0 ? 0 : 1;
}
