// irregular: functional, bitwise-verified irregular workloads on three
// interconnects (hgx_a100(4), dgx_pcie(4), multi_node(2, 2)).
//
//   * generalized histogram, key skew 0 and 2, under the six valid
//     (launch, comm, sync) plans;
//   * sparse SpMV-CG, row-partition imbalance 1 and 4, CPU-Free and
//     host-loop baseline.
//
// Every op is one run plus its verification against the serial reference,
// which the op evaluates through the public reference function. One
// reference answers every plan x machine of its problem (all machines have
// four ranks), so a pass asks for each reference 18 (histogram) or 6
// (sparse CG) times; the report prints that sharing. The pass seed draws the
// histogram key streams and the sparse-CG grid, so no result can carry over
// from one pass to the next.
#include <string>
#include <vector>

#include "exec/policy.hpp"
#include "harness.hpp"
#include "solvers/sparse_cg.hpp"
#include "workloads/histogram/histogram.hpp"

namespace perfbench {
namespace {

using exec::CommPolicy;
using exec::LaunchPolicy;
using exec::Plan;
using exec::SyncPolicy;

const MachineDef kMachines[] = {
    {"hgx", [] { return vgpu::MachineSpec::hgx_a100(4); }},
    {"dgx_pcie", [] { return vgpu::MachineSpec::dgx_pcie(4); }},
    {"multi_node", [] { return vgpu::MachineSpec::multi_node(2, 2); }},
};

struct PlanDef {
  const char* key;
  Plan plan;
};

const PlanDef kHistPlans[] = {
    {"staged_copy",
     {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
      SyncPolicy::kHostBarrier, "hist"}},
    {"overlap",
     {LaunchPolicy::kHostLoop, CommPolicy::kOverlapStreams,
      SyncPolicy::kHostBarrier, "hist"}},
    {"peer_store",
     {LaunchPolicy::kHostLoop, CommPolicy::kPeerStore,
      SyncPolicy::kHostBarrier, "hist_p2p"}},
    {"signaled_host",
     {LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
      SyncPolicy::kStreamSync, "hist_nvshmem"}},
    {"cpu_free",
     {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
      SyncPolicy::kIterationFlags, "hist_cpufree"}},
    {"cpu_free_2k",
     {LaunchPolicy::kPersistentPair, CommPolicy::kSignaledPut,
      SyncPolicy::kIterationFlags, "hist_cpufree"}},
};

const PlanDef kSparsePlans[] = {
    {"baseline",
     {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
      SyncPolicy::kHostBarrier, "sparse_cg_baseline"}},
    {"cpu_free",
     {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
      SyncPolicy::kIterationFlags, "sparse_cg_cpufree"}},
};

Role role_of(const Plan& p) {
  return p.launch == LaunchPolicy::kHostLoop ? Role::kBaseline
                                             : Role::kCpuFree;
}

Op hist_op(const MachineDef& m, const PlanDef& p,
           const workloads::HistogramConfig& cfg) {
  Op op;
  op.group = "hist/skew" + std::to_string(cfg.skew) + "/" + m.key;
  op.key = op.group + "/" + p.key;
  op.role = role_of(p.plan);
  op.reference_key = "hist/skew" + std::to_string(cfg.skew);
  op.run = [&m, &p, cfg](OpCtx& ctx) {
    workloads::HistogramConfig c = cfg;
    c.observer = ctx.observer;
    const vgpu::MachineSpec spec = m.make();
    workloads::HistogramResult out;
    {
      Scope s(ctx.tracer, "workloads.run");
      out = workloads::run_histogram(spec, c, p.plan);
    }
    std::vector<double> ref;
    {
      Scope s(ctx.tracer, "workloads.reference");
      ref = workloads::histogram_reference(c, spec.num_devices);
    }
    OpResult r;
    r.add_run(out.metrics);
    if (out.bins != ref) r.fail("histogram bins differ from the reference");
    return r;
  };
  return op;
}

Op sparse_op(const MachineDef& m, const PlanDef& p,
             const solvers::SparseCgConfig& cfg) {
  Op op;
  const std::string imb = std::to_string(static_cast<int>(cfg.imbalance));
  op.group = "sparse/imb" + imb + "/" + m.key;
  op.key = op.group + "/" + p.key;
  op.role = role_of(p.plan);
  op.reference_key = "sparse/imb" + imb;
  op.run = [&m, &p, cfg](OpCtx& ctx) {
    solvers::SparseCgConfig c = cfg;
    c.observer = ctx.observer;
    const vgpu::MachineSpec spec = m.make();
    solvers::CgResult out;
    {
      Scope s(ctx.tracer, "solvers.run");
      out = solvers::run_sparse_cg(spec, c, p.plan);
    }
    solvers::CgResult ref;
    {
      Scope s(ctx.tracer, "solvers.reference");
      ref = solvers::sparse_cg_reference(c, spec.num_devices);
    }
    OpResult r;
    r.add_run(out.metrics);
    if (out.iterations_run != ref.iterations_run ||
        out.final_rr != ref.final_rr || out.rr_history != ref.rr_history) {
      r.fail("sparse CG residuals differ from the reference");
    }
    return r;
  };
  return op;
}

std::vector<Op> make_pass(std::uint64_t seed, std::uint64_t pass_seed) {
  enum Draw : std::uint64_t { kBins, kNx, kNy };
  // Primes near 1024, so the owner split is uneven on four ranks.
  constexpr std::size_t kBinChoices[] = {1009, 1013, 1019};
  std::vector<Op> ops;
  for (int skew : {0, 2}) {
    workloads::HistogramConfig cfg;
    cfg.bins = kBinChoices[draw(seed, kBins, 0, 3)];
    cfg.keys_per_round = 4096;
    cfg.rounds = 8;
    cfg.skew = skew;
    cfg.seed = pass_seed;
    cfg.threads_per_block = 128;
    for (const MachineDef& m : kMachines) {
      for (const PlanDef& p : kHistPlans) ops.push_back(hist_op(m, p, cfg));
    }
  }
  for (double imbalance : {1.0, 4.0}) {
    solvers::SparseCgConfig cfg;
    cfg.nx = 960 + 32 * draw(pass_seed, kNx, 0, 5);
    cfg.ny = 96 + 2 * draw(pass_seed, kNy, 0, 5);
    cfg.max_iterations = 40;
    cfg.imbalance = imbalance;
    for (const MachineDef& m : kMachines) {
      for (const PlanDef& p : kSparsePlans) ops.push_back(sparse_op(m, p, cfg));
    }
  }
  return ops;
}

}  // namespace

Workload irregular() {
  Workload w;
  w.name = "irregular";
  w.why = "verified irregular runs: references and kernel numerics do the "
          "host work";
  w.pass = make_pass;
  w.canonical_passes = 2;
  w.warmup_stride = 12;
  return w;
}

}  // namespace perfbench
