// fig_autotune — the compiler-support autotuner across machines.
//
// For each (workload, machine) pair, enumerate the recipe decision space
// (put expansion x persistent grid size x map fusion x partition shape),
// score every candidate with the analytic rollout, validate the default
// recipe plus the predicted top-K with full simulated runs (numerics
// verified against the serial reference, race/deadlock checker attached),
// and report predicted vs measured per candidate. The closing table shows
// where the tuned recipe beats the §6.2.1 default: the SM-count grid loses
// to the occupancy cap once the per-rank domain overflows the resident
// threads, and rectangular machines prefer partition shapes that avoid
// strided west/east puts.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "tune/tuner.hpp"
#include "tune_report.hpp"
#include "vshmem/world.hpp"

namespace {

struct MachineCfg {
  const char* name;
  vgpu::MachineSpec spec;
};

std::vector<MachineCfg> machines() {
  return {
      {"hgx_a100_x4", vgpu::MachineSpec::hgx_a100(4)},
      {"dgx_pcie_x4", vgpu::MachineSpec::dgx_pcie(4)},
      {"multi_node_2x2", vgpu::MachineSpec::multi_node(2, 2)},
  };
}

std::vector<tune::Workload> workloads() {
  tune::Workload j1d;
  j1d.kind = tune::WorkloadKind::kJacobi1D;
  j1d.gx = std::size_t{1} << 16;
  j1d.ranks = 4;
  j1d.iterations = 10;
  tune::Workload j2d;
  j2d.kind = tune::WorkloadKind::kJacobi2D;
  j2d.gx = 800;
  j2d.gy = 800;
  j2d.ranks = 4;
  j2d.iterations = 10;
  return {j1d, j2d};
}

/// --check: one small validation run per forced expansion under the
/// race/deadlock checker — the tuner explores exactly these backends, so the
/// explored configurations must be observably clean, not just fast.
void check_candidate(dacelite::ExpansionChoice expansion,
                     const bench::Args& args, sim::Observer* obs) {
  auto prog = dacelite::make_jacobi2d(64, 128, 2, 8);
  dacelite::Recipe recipe = dacelite::Recipe::cpu_free_default();
  recipe.expansion = expansion;
  dacelite::Pipeline().apply(prog.sdfg, recipe);
  const vgpu::MachineSpec spec =
      args.with_faults(vgpu::MachineSpec::hgx_a100(2));
  vgpu::Machine m(spec);
  m.engine().set_observer(obs);
  vshmem::World w(m);
  dacelite::ProgramData data(w, prog.sdfg, /*functional=*/false);
  dacelite::ExecOptions opt = dacelite::exec_options(recipe);
  opt.functional = false;
  dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  if (args.topo) {
    for (const MachineCfg& m : machines()) {
      bench::print_topology(m.spec, m.name);
    }
    return 0;
  }
  if (args.check) {
    std::vector<bench::CheckCase> cases;
    for (const dacelite::ExpansionChoice e :
         {dacelite::ExpansionChoice::kAuto,
          dacelite::ExpansionChoice::kStridedIputSignal,
          dacelite::ExpansionChoice::kSingleElementP}) {
      cases.push_back({std::string("jacobi2d/expansion=") +
                           std::string(dacelite::name(e)),
                       [e, &args](sim::Observer* o) {
                         check_candidate(e, args, o);
                       }});
    }
    return bench::run_check(cases);
  }

  bench::print_header("Autotune",
                      "recipe search: prototype (analytic) -> validate "
                      "(simulated, verified)");
  bench::print_faults(args.faults);

  std::vector<sweep::RunRecord> all_records;
  struct SummaryRow {
    std::string config;
    double default_us = 0.0;
    double best_us = 0.0;
    std::string best_id = "-";
  };
  std::vector<SummaryRow> summary;

  for (const MachineCfg& m : machines()) {
    for (const tune::Workload& w : workloads()) {
      const std::string config =
          std::string(m.name) + "/" + std::string(tune::name(w.kind));
      std::printf("---- %s ----\n", config.c_str());
      tune::TuneOptions topt;
      topt.top_k = 3;
      topt.max_candidates = args.tune_budget;
      topt.sweep_threads = args.threads;
      topt.progress = args.progress;
      topt.id_prefix = config + "/";
      topt.base_params = {{"machine", m.name},
                          {"system", std::string(tune::name(w.kind))}};
      const tune::TuneReport rep =
          tune::tune(w, args.with_faults(m.spec), topt);
      bench::print_tune_summary(rep);

      SummaryRow row;
      row.config = config;
      row.default_us = sim::to_usec(rep.baseline.measured);
      if (const tune::CandidateResult* best = rep.best()) {
        row.best_us = sim::to_usec(best->measured);
        row.best_id = best->candidate.id();
      }
      summary.push_back(std::move(row));
      all_records.insert(all_records.end(), rep.records.begin(),
                         rep.records.end());
    }
  }

  std::printf("tuned vs default (measured, lower is better)\n");
  std::printf("  %-28s %12s %12s  %s\n", "config", "default[us]", "tuned[us]",
              "tuned recipe");
  for (const SummaryRow& r : summary) {
    std::printf("  %-28s %12.1f %12.1f  %s\n", r.config.c_str(), r.default_us,
                r.best_us, r.best_id.c_str());
  }
  std::printf("\n");

  bench::emit_records("fig_autotune", args, args.threads, all_records);
  return 0;
}
