// paper_figs: timing-only runs of the paper's comparisons on the HGX
// crossbar (hgx_a100(g), g = 1, 2, 4, 8).
//
//   * Jacobi2D weak scaling and Jacobi3D strong scaling, all seven stencil
//     variants (Fig. 6.1, Fig. 6.2);
//   * compute-off overhead runs of Jacobi2D (Fig. 2.2);
//   * dacelite Jacobi2D, discrete vs persistent backend (Fig. 6.3);
//   * dense CG, CPU-Free vs CPU-controlled baseline.
//
// No numerics and no references run, so the host time is the simulator
// core: engine dispatch, coroutines, streams, signalling and the
// exclusive-lane link ledger. The run seed adds -1, 0 or +1 to each
// problem's iteration count; every pass runs the same problems in a fresh
// order, so each op's simulated-metrics digest must repeat across passes.
#include <string>
#include <type_traits>
#include <vector>

#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "harness.hpp"
#include "hostmpi/comm.hpp"
#include "solvers/cg.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"

namespace perfbench {
namespace {

using stencil::Variant;

constexpr Variant kVariants[] = {
    Variant::kBaselineCopy, Variant::kBaselineOverlap,
    Variant::kBaselineP2P,  Variant::kBaselineNvshmem,
    Variant::kCpuFree,      Variant::kCpuFreePerks,
    Variant::kCpuFreeTwoKernels,
};

constexpr int kGpus[] = {1, 2, 4, 8};

bool cpu_free(Variant v) {
  return v == Variant::kCpuFree || v == Variant::kCpuFreePerks ||
         v == Variant::kCpuFreeTwoKernels;
}

/// `base` iterations plus -1, 0 or +1, drawn per (family, gpus) from the run
/// seed so every variant of one problem runs the same count. Every op's
/// simulated time moves with it, but only by a few percent.
int jitter(std::uint64_t seed, std::uint64_t family, int gpus, int base) {
  return base - 1 +
         static_cast<int>(draw(seed, family, static_cast<std::uint64_t>(gpus), 3));
}

/// Weak scaling as in Fig. 6.1: double the partitioned axis (rows) first,
/// then alternate.
stencil::Jacobi2D weak2d(std::size_t nx, std::size_t ny, int gpus) {
  stencil::Jacobi2D p;
  p.nx = nx;
  p.ny = ny;
  bool grow_rows = true;
  for (int r = gpus; r > 1; r /= 2) {
    (grow_rows ? p.ny : p.nx) *= 2;
    grow_rows = !grow_rows;
  }
  return p;
}

std::string gkey(const char* family, int gpus) {
  return std::string(family) + "/g" + std::to_string(gpus);
}

template <typename Problem>
Op stencil_op(const char* family, Variant v, int gpus, Problem problem,
              stencil::StencilConfig cfg) {
  Op op;
  op.group = gkey(family, gpus);
  op.key = op.group + "/" + std::string(stencil::variant_name(v));
  op.role = cpu_free(v) ? Role::kCpuFree : Role::kBaseline;
  op.timing_only = true;
  cfg.functional = false;
  op.run = [v, gpus, problem, cfg](OpCtx& ctx) {
    stencil::StencilConfig c = cfg;
    c.observer = ctx.observer;
    const vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(gpus);
    stencil::RunOutput out;
    {
      Scope s(ctx.tracer, "stencil.run");
      if constexpr (std::is_same_v<Problem, stencil::Jacobi3D>) {
        out = stencil::run_jacobi3d(v, spec, problem, c);
      } else {
        out = stencil::run_jacobi2d(v, spec, problem, c);
      }
    }
    OpResult r;
    r.add_run(out.result.metrics);
    return r;
  };
  return op;
}

Op dace_op(int gpus, bool persistent, std::size_t gx, std::size_t gy,
           int iterations) {
  Op op;
  op.group = gkey("dace_j2d", gpus);
  op.key = op.group + (persistent ? "/persistent" : "/discrete");
  op.role = persistent ? Role::kCpuFree : Role::kBaseline;
  op.timing_only = true;
  op.run = [=](OpCtx& ctx) {
    const dacelite::Recipe recipe = persistent
                                        ? dacelite::Recipe::cpu_free_default()
                                        : dacelite::Recipe::gpu_baseline();
    dacelite::Jacobi2DProgram prog = [&] {
      Scope s(ctx.tracer, "dacelite.frontend");
      return dacelite::make_jacobi2d(gx, gy, gpus, iterations);
    }();
    {
      Scope s(ctx.tracer, "dacelite.pipeline");
      dacelite::Pipeline().apply(prog.sdfg, recipe);
    }
    dacelite::ExecOptions opt = dacelite::exec_options(recipe);
    opt.functional = false;
    dacelite::ExecResult er;
    {
      Scope s(ctx.tracer, "dacelite.exec");
      vgpu::Machine m(vgpu::MachineSpec::hgx_a100(gpus));
      m.engine().set_observer(ctx.observer);
      vshmem::World w(m);
      dacelite::ProgramData data(w, prog.sdfg, /*functional=*/false);
      if (persistent) {
        er = dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
      } else {
        hostmpi::Comm comm(m);
        er = dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
      }
    }
    OpResult r;
    r.add_run(er.metrics);
    return r;
  };
  return op;
}

Op cg_op(int gpus, bool persistent, std::size_t nx, std::size_t ny,
         int iterations) {
  Op op;
  op.group = gkey("cg", gpus);
  op.key = op.group + (persistent ? "/cpu_free" : "/baseline");
  op.role = persistent ? Role::kCpuFree : Role::kBaseline;
  op.timing_only = true;
  op.run = [=](OpCtx& ctx) {
    solvers::CgConfig cfg;
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.max_iterations = iterations;
    cfg.functional = false;
    cfg.observer = ctx.observer;
    const vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(gpus);
    solvers::CgResult out;
    {
      Scope s(ctx.tracer, "solvers.run");
      out = persistent ? solvers::run_cg_cpufree(spec, cfg)
                       : solvers::run_cg_baseline(spec, cfg);
    }
    OpResult r;
    r.add_run(out.metrics);
    return r;
  };
  return op;
}

std::vector<Op> make_pass(std::uint64_t seed, std::uint64_t /*pass_seed*/) {
  enum Family : std::uint64_t { kWeak2d, kStrong3d, kOverhead, kDace, kCg };
  std::vector<Op> ops;
  for (int g : kGpus) {
    for (Variant v : kVariants) {
      stencil::StencilConfig weak;
      weak.iterations = jitter(seed, kWeak2d, g, 50);
      ops.push_back(
          stencil_op("j2d_weak", v, g, weak2d(2048, 2048, g), weak));

      stencil::Jacobi3D strong;
      strong.nx = 512;
      strong.ny = 512;
      strong.nz = 256;
      stencil::StencilConfig strong_cfg;
      strong_cfg.iterations = jitter(seed, kStrong3d, g, 20);
      ops.push_back(stencil_op("j3d_strong", v, g, strong, strong_cfg));

      stencil::StencilConfig overhead;
      overhead.iterations = jitter(seed, kOverhead, g, 100);
      overhead.compute_enabled = false;
      ops.push_back(stencil_op("j2d_overhead", v, g, weak2d(256, 256, g),
                               overhead));
    }
    // Fig. 6.3 weak scaling: the 2048^2 base doubles along alternating
    // axes, so sizes stay multiples of the 2 x 4 process grid.
    const stencil::Jacobi2D dace = weak2d(2048, 2048, g);
    for (bool persistent : {false, true}) {
      ops.push_back(dace_op(g, persistent, dace.nx, dace.ny,
                            jitter(seed, kDace, g, 50)));
      ops.push_back(
          cg_op(g, persistent, 1024, 1024, jitter(seed, kCg, g, 50)));
    }
  }
  return ops;
}

}  // namespace

Workload paper_figs() {
  Workload w;
  w.name = "paper_figs";
  w.why =
      "timing-only paper comparisons: the simulator core does the host work";
  w.pass = make_pass;
  w.canonical_passes = 1;
  w.warmup_stride = 1;
  return w;
}

}  // namespace perfbench
