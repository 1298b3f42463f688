// Golden-metrics regression test: re-runs a 40-case cross-section of the
// benchmark configurations (all seven stencil variants in 2D and 3D, both CG
// variants, and the dacelite discrete/persistent backends) and compares every
// RunMetrics field — serialized through cpufree::to_json — byte-for-byte
// against the capture committed in golden_metrics.txt. The simulator is
// deterministic, so ANY diff here means an execution-policy or cost-model
// change altered observable behaviour; refactors of the exec layer must keep
// this file untouched. To re-baseline after an INTENTIONAL modelling change,
// regenerate with the failing test's `actual` lines and replace
// golden_metrics.txt wholesale.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/transforms.hpp"
#include "hostmpi/comm.hpp"
#include "solvers/cg.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "vshmem/world.hpp"

namespace {

using stencil::StencilConfig;
using stencil::Variant;

constexpr Variant kAllSeven[] = {
    Variant::kBaselineCopy,    Variant::kBaselineOverlap,
    Variant::kBaselineP2P,     Variant::kBaselineNvshmem,
    Variant::kCpuFree,         Variant::kCpuFreePerks,
    Variant::kCpuFreeTwoKernels};

std::string line(const std::string& name, const cpufree::RunMetrics& m,
                 const std::string& extra) {
  return name + "|" + cpufree::to_json(m) + "|" + extra;
}

/// Regenerates the 40 capture lines in file order.
std::vector<std::string> generate() {
  std::vector<std::string> out;
  // Stencil: small functional 2D, 2 and 4 GPUs, all seven variants.
  for (int gpus : {2, 4}) {
    for (Variant v : kAllSeven) {
      stencil::Jacobi2D p;
      p.nx = 64;
      p.ny = 64;
      StencilConfig cfg;
      cfg.iterations = 10;
      cfg.persistent_blocks = 12;
      const auto r = stencil::run_jacobi2d(
          v, vgpu::MachineSpec::hgx_a100(gpus), p, cfg);
      char extra[64];
      std::snprintf(extra, sizeof(extra), "parity=%d verified=%d",
                    r.result.final_parity, r.verified ? 1 : 0);
      out.push_back(line("j2d_small/g" + std::to_string(gpus) + "/" +
                             std::string(stencil::variant_name(v)),
                         r.result.metrics, extra));
    }
  }
  // Stencil: large timing-only 2D at 4 GPUs with default (derived) blocks.
  for (Variant v : kAllSeven) {
    stencil::Jacobi2D p;
    p.nx = 2048;
    p.ny = 2048;
    StencilConfig cfg;
    cfg.iterations = 5;
    cfg.functional = false;
    const auto r =
        stencil::run_jacobi2d(v, vgpu::MachineSpec::hgx_a100(4), p, cfg);
    out.push_back(line("j2d_large/g4/" + std::string(stencil::variant_name(v)),
                       r.result.metrics, ""));
  }
  // Stencil: small functional 3D at 2 GPUs, all seven variants.
  for (Variant v : kAllSeven) {
    stencil::Jacobi3D p;
    p.nx = 12;
    p.ny = 10;
    p.nz = 8;
    StencilConfig cfg;
    cfg.iterations = 4;
    cfg.persistent_blocks = 12;
    const auto r =
        stencil::run_jacobi3d(v, vgpu::MachineSpec::hgx_a100(2), p, cfg);
    char extra[64];
    std::snprintf(extra, sizeof(extra), "parity=%d verified=%d",
                  r.result.final_parity, r.verified ? 1 : 0);
    out.push_back(line("j3d_small/g2/" + std::string(stencil::variant_name(v)),
                       r.result.metrics, extra));
  }
  // CG: functional small at 2 and 4 ranks, both variants.
  for (int ranks : {2, 4}) {
    solvers::CgConfig cfg;
    cfg.nx = 24;
    cfg.ny = 24;
    cfg.max_iterations = 40;
    cfg.tolerance = 1e-10;
    cfg.persistent_blocks = 12;
    const auto spec = vgpu::MachineSpec::hgx_a100(ranks);
    for (bool cpufree_v : {false, true}) {
      const solvers::CgResult r = cpufree_v
                                      ? solvers::run_cg_cpufree(spec, cfg)
                                      : solvers::run_cg_baseline(spec, cfg);
      char extra[96];
      std::snprintf(extra, sizeof(extra), "iters=%d rr=%.17g",
                    r.iterations_run, r.final_rr);
      out.push_back(line(std::string("cg/") +
                             (cpufree_v ? "cpufree" : "baseline") + "/r" +
                             std::to_string(ranks),
                         r.metrics, extra));
    }
  }
  // CG: timing-only with default (derived) persistent blocks at 4 ranks.
  {
    solvers::CgConfig cfg;
    cfg.nx = 256;
    cfg.ny = 256;
    cfg.max_iterations = 20;
    cfg.functional = false;
    const auto spec = vgpu::MachineSpec::hgx_a100(4);
    out.push_back(line("cg/cpufree_large/r4",
                       solvers::run_cg_cpufree(spec, cfg).metrics, ""));
    out.push_back(line("cg/baseline_large/r4",
                       solvers::run_cg_baseline(spec, cfg).metrics, ""));
  }
  // dacelite: jacobi1d discrete + persistent, 2 ranks.
  for (bool cpufree_v : {false, true}) {
    auto prog = dacelite::make_jacobi1d(1u << 14, 2, 10);
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(2));
    vshmem::World w(m);
    dacelite::ExecOptions opt;
    opt.functional = false;
    dacelite::ExecResult r;
    if (cpufree_v) {
      dacelite::to_cpu_free(prog.sdfg);
      dacelite::ProgramData data(w, prog.sdfg, false);
      r = dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
    } else {
      dacelite::apply_gpu_transform(prog.sdfg);
      hostmpi::Comm comm(m);
      dacelite::ProgramData data(w, prog.sdfg, false);
      r = dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
    }
    out.push_back(line(std::string("dace/j1d/") +
                           (cpufree_v ? "persistent" : "discrete"),
                       r.metrics, "iters=" + std::to_string(r.iterations)));
  }
  // dacelite: jacobi2d persistent (default, conservative, blocking), 4 ranks.
  for (int mode = 0; mode < 3; ++mode) {
    auto prog = dacelite::make_jacobi2d(256, 4, 10);
    dacelite::to_cpu_free(prog.sdfg);
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(4));
    vshmem::World w(m);
    dacelite::ExecOptions opt;
    opt.functional = false;
    opt.conservative_barriers = mode == 1;
    opt.blocking_puts = mode == 2;
    dacelite::ProgramData data(w, prog.sdfg, false);
    const auto r = dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
    static const char* kMode[] = {"default", "conservative", "blocking"};
    out.push_back(line(std::string("dace/j2d/persistent_") + kMode[mode],
                       r.metrics, "iters=" + std::to_string(r.iterations)));
  }
  // dacelite: jacobi2d discrete, 4 ranks.
  {
    auto prog = dacelite::make_jacobi2d(256, 4, 10);
    dacelite::apply_gpu_transform(prog.sdfg);
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(4));
    vshmem::World w(m);
    hostmpi::Comm comm(m);
    dacelite::ExecOptions opt;
    opt.functional = false;
    dacelite::ProgramData data(w, prog.sdfg, false);
    const auto r = dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
    out.push_back(line("dace/j2d/discrete", r.metrics,
                       "iters=" + std::to_string(r.iterations)));
  }
  return out;
}

std::vector<std::string> load_golden() {
  std::ifstream f(GOLDEN_METRICS_FILE);
  std::vector<std::string> lines;
  std::string l;
  while (std::getline(f, l)) {
    if (!l.empty()) lines.push_back(l);
  }
  return lines;
}

TEST(GoldenMetrics, EveryCaseMatchesTheSeedCaptureByteForByte) {
  const std::vector<std::string> expected = load_golden();
  ASSERT_EQ(expected.size(), 40u)
      << "golden_metrics.txt missing or truncated: " << GOLDEN_METRICS_FILE;
  const std::vector<std::string> actual = generate();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "golden case " << i << " drifted";
  }
}

}  // namespace
