// compile_tune: the compiler path, on hgx_a100(4) and dgx_pcie(4).
//
// One op is one tune-and-build: a prototype-then-validate tune() of a
// Jacobi1D or Jacobi2D program with the checker on (the tuner's default,
// one sweep worker), then the winning recipe is built again from scratch
// (frontend, then Pipeline::apply), run on the persistent backend and
// verified bitwise against the serial reference. The rebuilt run must also
// reproduce the simulated time the tuner measured for the winner. The pass
// seed draws the problem sizes.
#include <cmath>
#include <string>
#include <vector>

#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "harness.hpp"
#include "tune/tuner.hpp"

namespace perfbench {
namespace {

const MachineDef kMachines[] = {
    {"hgx", [] { return vgpu::MachineSpec::hgx_a100(4); }},
    {"dgx_pcie", [] { return vgpu::MachineSpec::dgx_pcie(4); }},
};

/// Builds the winner's program, runs it and verifies it.
template <typename Program>
OpResult build_and_run(OpCtx& ctx, const vgpu::MachineSpec& spec,
                       const tune::CandidateResult& best,
                       Program (*frontend)(const tune::Workload&, int),
                       const tune::Workload& w) {
  const tune::Candidate& cand = best.candidate;
  Program prog = [&] {
    Scope s(ctx.tracer, "dacelite.frontend");
    return frontend(w, cand.px);
  }();
  {
    Scope s(ctx.tracer, "dacelite.pipeline");
    dacelite::Pipeline().apply(prog.sdfg, cand.recipe);
  }
  // The exec span covers the machine the program runs on, as on paper_figs.
  Scope exec_span(ctx.tracer, "dacelite.exec");
  vgpu::Machine m(spec);
  m.engine().set_observer(ctx.observer);
  vshmem::World world(m);
  dacelite::ProgramData data(world, prog.sdfg, /*functional=*/true);
  const dacelite::ExecResult er = dacelite::execute_persistent(
      m, world, data, prog.sdfg, dacelite::exec_options(cand.recipe));
  OpResult r;
  r.add_run(er.metrics);
  if (er.metrics.total != best.measured) {
    r.fail("rebuilt winner does not reproduce the tuner's measurement");
  }
  Scope verify_span(ctx.tracer, "dacelite.verify");
  if (prog.gather(data) != prog.reference(w.iterations)) {
    r.fail("winning recipe's result differs from the reference");
  }
  return r;
}

dacelite::Jacobi1DProgram frontend_1d(const tune::Workload& w, int) {
  return dacelite::make_jacobi1d(w.gx, w.ranks, w.iterations);
}

dacelite::Jacobi2DProgram frontend_2d(const tune::Workload& w, int px) {
  return dacelite::make_jacobi2d(w.gx, w.gy, w.ranks, w.iterations, px);
}

Op tune_op(const MachineDef& m, const tune::Workload& w) {
  Op op;
  op.key = std::string(m.key) + "/" + w.label();
  op.run = [&m, w](OpCtx& ctx) {
    const vgpu::MachineSpec spec = m.make();
    tune::TuneReport rep;
    {
      Scope s(ctx.tracer, "tune.tune");
      rep = tune::tune(w, spec);
    }
    const tune::CandidateResult* best = rep.best();
    if (best == nullptr) {
      OpResult r;
      r.fail("tuner found no verified, checker-clean candidate for " +
             w.label());
      return r;
    }
    OpResult r = w.kind == tune::WorkloadKind::kJacobi1D
                     ? build_and_run(ctx, spec, *best, frontend_1d, w)
                     : build_and_run(ctx, spec, *best, frontend_2d, w);
    // The tuner's validation runs are jobs of this op too.
    double err_sum = 0.0;
    int validated = 0;
    auto validation = [&](const tune::CandidateResult& c) {
      if (!c.validated) return;
      r.digest += cpufree::to_json(c.metrics);
      r.job_us.push_back(sim::to_usec(c.measured));
      err_sum += std::abs(static_cast<double>(c.predicted - c.measured)) /
                 static_cast<double>(c.measured);
      ++validated;
    };
    validation(rep.baseline);
    for (const tune::CandidateResult& c : rep.ranked) validation(c);
    ctx.outcome("tune.space_size", static_cast<double>(rep.space_size));
    ctx.outcome("tune.predict_error_pct", 100.0 * err_sum / validated);
    ctx.outcome("tune.log_tuned_ratio",
                std::log(static_cast<double>(best->measured) /
                         static_cast<double>(rep.baseline.measured)));
    return r;
  };
  // The same tune with the checker on, then off.
  op.probe = [&m, w](OpCtx& ctx) {
    double ms[2] = {0.0, 0.0};
    for (bool check : {true, false}) {
      tune::TuneOptions opt;
      opt.check = check;
      const std::int64_t t0 = now_ns();
      (void)tune::tune(w, m.make(), opt);
      ms[check ? 1 : 0] = static_cast<double>(now_ns() - t0) * 1e-6;
    }
    ctx.outcome("tune.check_on_ms", ms[1]);
    ctx.outcome("tune.check_off_ms", ms[0]);
  };
  return op;
}

std::vector<Op> make_pass(std::uint64_t /*seed*/, std::uint64_t pass_seed) {
  enum Draw : std::uint64_t { k1d, k2dx, k2dy };
  tune::Workload j1d;
  j1d.kind = tune::WorkloadKind::kJacobi1D;
  // Sized so a 1D tune costs about as much host time as a 2D one, which
  // keeps the op-time median inside one mode.
  j1d.gx = std::size_t{1} << 17;
  j1d.gx += 4096 * draw(pass_seed, k1d, 0, 5);
  j1d.ranks = 4;
  j1d.iterations = 10;
  tune::Workload j2d;
  j2d.kind = tune::WorkloadKind::kJacobi2D;
  // Multiples of 4, so every px x (4 / px) process grid divides them.
  j2d.gx = 224 + 16 * draw(pass_seed, k2dx, 0, 5);
  j2d.gy = 224 + 16 * draw(pass_seed, k2dy, 0, 5);
  j2d.ranks = 4;
  j2d.iterations = 10;
  std::vector<Op> ops;
  for (const MachineDef& m : kMachines) {
    ops.push_back(tune_op(m, j1d));
    ops.push_back(tune_op(m, j2d));
  }
  return ops;
}

}  // namespace

Workload compile_tune() {
  Workload w;
  w.name = "compile_tune";
  w.why = "tune and build: the tuner, the checker and dacelite's passes work";
  w.pass = make_pass;
  w.canonical_passes = 4;
  w.warmup_stride = 2;
  return w;
}

}  // namespace perfbench
