// Pass-framework + autotuner suite (label: tune).
//
// Locks the three contracts the tuner rests on:
//  1. Recipe replay — Pipeline::apply of Recipe::cpu_free_default() is
//     byte-identical to the historical free-function transform chain, and
//     recipes round-trip through serialize/parse.
//  2. Determinism — candidate enumeration, ranking, and the whole tuning
//     report are bit-identical across sweep worker counts.
//  3. The prototype-then-validate loop — on the paper's jacobi2d workload
//     the tuner finds a validated candidate strictly faster than the
//     shipping default, with bitwise-verified numerics and a clean detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/detector.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "exec/policy.hpp"
#include "fnv_digest.hpp"
#include "sweep/emit.hpp"
#include "tune/rollout.hpp"
#include "tune/space.hpp"
#include "tune/tuner.hpp"
#include "vshmem/world.hpp"

namespace {

using dacelite::ExecOptions;
using dacelite::ExpansionChoice;
using dacelite::Pipeline;
using dacelite::ProgramData;
using dacelite::Recipe;
using dacelite::Sdfg;
using dacelite::ValidationError;

vgpu::MachineSpec hgx(int gpus) { return vgpu::MachineSpec::hgx_a100(gpus); }

// Structural equality deep enough to distinguish every transform effect:
// array storage, state/node counts, persistent flags, barrier placement.
void expect_same_shape(const Sdfg& a, const Sdfg& b) {
  EXPECT_EQ(a.gpu, b.gpu);
  EXPECT_EQ(a.persistent, b.persistent);
  EXPECT_EQ(a.barrier_after, b.barrier_after);
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (const auto& [arr_name, desc] : a.arrays) {
    ASSERT_TRUE(b.arrays.count(arr_name));
    EXPECT_EQ(desc.storage, b.arrays.at(arr_name).storage) << arr_name;
  }
  ASSERT_EQ(a.body.size(), b.body.size());
  for (std::size_t i = 0; i < a.body.size(); ++i) {
    EXPECT_EQ(a.body[i].nodes.size(), b.body[i].nodes.size()) << "state " << i;
  }
}

// --- 1. recipe replay ---------------------------------------------------------

TEST(RecipeReplay, DefaultRecipeMatchesFreeFunctionChainByteForByte) {
  auto via_chain = dacelite::make_jacobi2d(64, 4, 6);
  dacelite::apply_gpu_transform(via_chain.sdfg);
  dacelite::apply_mpi_to_nvshmem(via_chain.sdfg);
  dacelite::apply_nvshmem_arrays(via_chain.sdfg);
  dacelite::apply_persistent(via_chain.sdfg);

  auto via_recipe = dacelite::make_jacobi2d(64, 4, 6);
  Pipeline().apply(via_recipe.sdfg, Recipe::cpu_free_default());

  expect_same_shape(via_chain.sdfg, via_recipe.sdfg);

  // Same generated program: bit-identical simulated timeline AND numerics.
  auto run = [](dacelite::Jacobi2DProgram& prog) {
    vgpu::Machine m(hgx(4));
    vshmem::World w(m);
    ProgramData data(w, prog.sdfg, /*functional=*/true);
    const auto r =
        dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
    return std::make_pair(r.metrics.total, prog.gather(data));
  };
  const auto [chain_total, chain_values] = run(via_chain);
  const auto [recipe_total, recipe_values] = run(via_recipe);
  EXPECT_EQ(chain_total, recipe_total);
  EXPECT_EQ(chain_values, recipe_values);
}

TEST(RecipeReplay, ToCpuFreeIsTheCanonicalRecipe) {
  auto a = dacelite::make_jacobi2d(48, 2, 4);
  dacelite::to_cpu_free(a.sdfg);
  auto b = dacelite::make_jacobi2d(48, 2, 4);
  Pipeline().apply(b.sdfg, Recipe::cpu_free_default());
  expect_same_shape(a.sdfg, b.sdfg);
}

TEST(RecipeReplay, PipelineRecordsAppliedStepsInOrder) {
  auto prog = dacelite::make_jacobi2d(64, 4, 6);
  const auto applied = Pipeline().apply(prog.sdfg, Recipe::cpu_free_default());
  ASSERT_EQ(applied.size(), 4u);
  EXPECT_EQ(applied[0].step.pass, "gpu_transform");
  EXPECT_EQ(applied[1].step.pass, "mpi_to_nvshmem");
  EXPECT_EQ(applied[2].step.pass, "nvshmem_array");
  EXPECT_EQ(applied[3].step.pass, "persistent");
  for (const auto& step : applied) {
    EXPECT_GT(step.changed, 0) << step.step.pass;
  }
}

TEST(RecipeReplay, InapplicableStepThrows) {
  // persistent requires a GPU-transformed SDFG; replaying it first must be a
  // loud recipe bug, not a silent no-op.
  auto prog = dacelite::make_jacobi2d(32, 2, 2);
  Recipe r;
  r.add("persistent");
  EXPECT_THROW(Pipeline().apply(prog.sdfg, r), ValidationError);
}

TEST(RecipeReplay, UnknownPassAndUnknownParamThrow) {
  auto prog = dacelite::make_jacobi2d(32, 2, 2);
  Recipe unknown_pass;
  unknown_pass.add("loop_unroll");
  EXPECT_THROW(Pipeline().apply(prog.sdfg, unknown_pass), ValidationError);

  Recipe bad_param;
  bad_param.add("gpu_transform", {{"vectorize", "on"}});
  EXPECT_THROW(Pipeline().apply(prog.sdfg, bad_param), ValidationError);

  Recipe bad_value;
  bad_value.add("gpu_transform")
      .add("persistent", {{"barriers", "psychic"}});
  EXPECT_THROW(Pipeline().apply(prog.sdfg, bad_value), ValidationError);
}

TEST(RecipeReplay, ConservativeBarrierParamMatchesAblationFlag) {
  auto via_param = dacelite::make_jacobi2d(64, 4, 6);
  Recipe r;
  r.add("gpu_transform")
      .add("mpi_to_nvshmem")
      .add("nvshmem_array")
      .add("persistent", {{"barriers", "conservative"}});
  Pipeline().apply(via_param.sdfg, r);
  for (std::size_t i = 0; i < via_param.sdfg.body.size(); ++i) {
    EXPECT_TRUE(via_param.sdfg.barrier_after[i]) << "state " << i;
  }
}

// --- serialize / parse --------------------------------------------------------

TEST(RecipeSerialize, RoundTripsTheBuiltinRecipes) {
  for (const Recipe& r : {Recipe::cpu_free_default(), Recipe::gpu_baseline()}) {
    EXPECT_EQ(Recipe::parse(r.serialize()), r) << r.serialize();
  }
}

TEST(RecipeSerialize, RoundTripsParamsAndExecutionKnobs) {
  Recipe r;
  r.add("gpu_transform")
      .add("map_fusion")
      .add("mpi_to_nvshmem")
      .add("nvshmem_array")
      .add("persistent", {{"barriers", "conservative"}});
  r.persistent_blocks = 216;
  r.threads_per_block = 512;
  r.expansion = ExpansionChoice::kStridedIputSignal;
  const std::string text = r.serialize();
  EXPECT_EQ(text,
            "gpu_transform >> map_fusion >> mpi_to_nvshmem >> nvshmem_array"
            " >> persistent(barriers=conservative)"
            " @ blocks=216 tpb=512 expansion=strided_iput");
  EXPECT_EQ(Recipe::parse(text), r);
}

TEST(RecipeSerialize, ParseRejectsMalformedText) {
  // No execution-knob suffix.
  EXPECT_THROW(Recipe::parse("gpu_transform"), ValidationError);
  // Non-numeric / unknown knobs.
  EXPECT_THROW(Recipe::parse("gpu_transform @ blocks=x tpb=1024 expansion=auto"),
               ValidationError);
  EXPECT_THROW(Recipe::parse("gpu_transform @ blocks=0 tpb=1024 expansion=warp"),
               ValidationError);
  EXPECT_THROW(Recipe::parse("gpu_transform @ blocks=0 tpb=1024"),
               ValidationError);
  EXPECT_THROW(
      Recipe::parse("gpu_transform @ blocks=0 tpb=1024 expansion=auto gamma=1"),
      ValidationError);
  // Step-list syntax errors.
  EXPECT_THROW(Recipe::parse(" >> persistent @ blocks=0 tpb=1 expansion=auto"),
               ValidationError);
  EXPECT_THROW(
      Recipe::parse("persistent(barriers @ blocks=0 tpb=1 expansion=auto"),
      ValidationError);
}

// --- 2. enumeration + determinism ---------------------------------------------

tune::Workload j2d_workload() {
  tune::Workload w;
  w.kind = tune::WorkloadKind::kJacobi2D;
  w.gx = w.gy = 800;
  w.ranks = 4;
  w.iterations = 10;
  return w;
}

TEST(TuneSpace, EnumerationIsDeterministicWithUniqueIds) {
  const auto a = tune::enumerate_candidates(j2d_workload(), hgx(4));
  const auto b = tune::enumerate_candidates(j2d_workload(), hgx(4));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id()) << i;
    EXPECT_EQ(a[i].recipe, b[i].recipe) << i;
    ids.push_back(a[i].id());
  }
  std::vector<std::string> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
      << "candidate ids must be unique";
}

TEST(TuneSpace, MaxCandidatesKeepsTheEnumerationPrefix) {
  const auto full = tune::enumerate_candidates(j2d_workload(), hgx(4));
  tune::SpaceOptions opt;
  opt.max_candidates = 5;
  const auto prefix = tune::enumerate_candidates(j2d_workload(), hgx(4), opt);
  ASSERT_EQ(prefix.size(), 5u);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i].id(), full[i].id()) << i;
  }
}

TEST(TuneSpace, PartitionAxisOnlyFor2D) {
  const auto two_d = tune::enumerate_candidates(j2d_workload(), hgx(4));
  bool saw_px = false;
  for (const auto& c : two_d) saw_px |= c.px > 1;
  EXPECT_TRUE(saw_px) << "2D space must explore partition shapes";

  tune::Workload one_d;
  one_d.kind = tune::WorkloadKind::kJacobi1D;
  one_d.gx = 65536;
  one_d.ranks = 4;
  one_d.iterations = 10;
  for (const auto& c : tune::enumerate_candidates(one_d, hgx(4))) {
    EXPECT_EQ(c.px, 0) << c.id();
  }
}

TEST(TuneRollout, PredictionIsDeterministicAndChargesPersistentWork) {
  auto prog = dacelite::make_jacobi2d(800, 4, 10);
  dacelite::to_cpu_free(prog.sdfg);
  ExecOptions opt;
  opt.persistent_blocks = exec::resolve_persistent_blocks(0, hgx(4), 1024);
  const sim::Nanos p1 = tune::predict_total(prog.sdfg, hgx(4), opt, 10);
  const sim::Nanos p2 = tune::predict_total(prog.sdfg, hgx(4), opt, 10);
  EXPECT_EQ(p1, p2);
  EXPECT_GT(p1, 0);
  // More iterations must cost strictly more.
  EXPECT_GT(tune::predict_total(prog.sdfg, hgx(4), opt, 20), p1);
}

tune::TuneOptions fast_tune_options(int sweep_threads) {
  tune::TuneOptions opt;
  opt.top_k = 3;
  opt.max_candidates = 12;  // deterministic enumeration prefix, CI-sized
  opt.sweep_threads = sweep_threads;
  return opt;
}

TEST(Tuner, ReportIsBitIdenticalAcrossThreadCounts) {
  const auto serial = tune::tune(j2d_workload(), hgx(4), fast_tune_options(1));
  const auto threaded =
      tune::tune(j2d_workload(), hgx(4), fast_tune_options(4));

  EXPECT_EQ(serial.space_size, threaded.space_size);
  ASSERT_EQ(serial.ranked.size(), threaded.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(serial.ranked[i].candidate.id(), threaded.ranked[i].candidate.id())
        << i;
    EXPECT_EQ(serial.ranked[i].predicted, threaded.ranked[i].predicted) << i;
    EXPECT_EQ(serial.ranked[i].validated, threaded.ranked[i].validated) << i;
    EXPECT_EQ(serial.ranked[i].measured, threaded.ranked[i].measured) << i;
    EXPECT_EQ(serial.ranked[i].verified, threaded.ranked[i].verified) << i;
    EXPECT_EQ(serial.ranked[i].check_clean, threaded.ranked[i].check_clean)
        << i;
  }
  EXPECT_EQ(serial.baseline.measured, threaded.baseline.measured);
  ASSERT_EQ(serial.records.size(), threaded.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].id, threaded.records[i].id) << i;
    EXPECT_EQ(serial.records[i].out.values, threaded.records[i].out.values)
        << i;
  }
}

// --- 3. the acceptance loop ---------------------------------------------------

TEST(Tuner, FindsValidatedRecipeStrictlyFasterThanDefault) {
  const auto report = tune::tune(j2d_workload(), hgx(4), fast_tune_options(1));

  ASSERT_TRUE(report.baseline.validated);
  ASSERT_TRUE(report.baseline.verified);
  ASSERT_TRUE(report.baseline.check_clean);
  EXPECT_GT(report.baseline.measured, 0);

  const tune::CandidateResult* best = report.best();
  ASSERT_NE(best, nullptr) << "no validated candidate survived";
  EXPECT_TRUE(best->verified);
  EXPECT_TRUE(best->check_clean);
  EXPECT_LT(best->measured, report.baseline.measured)
      << "tuner must beat the shipping default on this workload";
  // The known winner: full occupancy (216 cooperative blocks) on the strip
  // partition — software tiling at 160k points/rank favours more resident
  // threads. Lock the blocks axis; the exact px may legitimately tie.
  EXPECT_EQ(best->persistent_blocks,
            exec::resolve_persistent_blocks(216, hgx(4), 1024));
}

TEST(Tuner, ValidationOffScoresOnly) {
  tune::TuneOptions opt = fast_tune_options(1);
  opt.validate = false;
  const auto report = tune::tune(j2d_workload(), hgx(4), opt);
  EXPECT_FALSE(report.baseline.validated);
  EXPECT_EQ(report.best(), nullptr);
  EXPECT_TRUE(report.records.empty());
  for (const auto& c : report.ranked) EXPECT_FALSE(c.validated);
  // Still fully ranked.
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_LE(report.ranked[i - 1].predicted, report.ranked[i].predicted);
  }
}

// --- expansion audit ----------------------------------------------------------

// The resolved-expansion audit on ExecResult is how the tuner (and the bench
// JSON) attribute performance to a put strategy; forced choices must be
// reported as what was actually generated, including degradations.
TEST(ExpansionAudit, ForcedChoicesReportGeneratedExpansions) {
  auto run_with = [](ExpansionChoice choice) {
    auto prog = dacelite::make_jacobi2d(64, 128, 4, 6);
    dacelite::to_cpu_free(prog.sdfg);
    vgpu::Machine m(hgx(4));
    vshmem::World w(m);
    ProgramData data(w, prog.sdfg, true);
    ExecOptions opt;
    opt.expansion = choice;
    const auto r =
        dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
    EXPECT_EQ(prog.gather(data), prog.reference(6)) << name(choice);
    return r.put_expansion;
  };
  // 2x2 grid: north/south halos are contiguous, east/west are strided.
  EXPECT_EQ(run_with(ExpansionChoice::kAuto),
            "contiguous_signal+strided_iput");
  EXPECT_EQ(run_with(ExpansionChoice::kStridedIputSignal), "strided_iput");
  // single_p on multi-element transfers degrades to per-element word stores,
  // which generate (and are audited as) the strided iput expansion — the
  // report shows what was emitted, not what was requested.
  EXPECT_EQ(run_with(ExpansionChoice::kSingleElementP), "strided_iput");
}

TEST(ExpansionAudit, ForcedExpansionsStayRaceFree) {
  for (const ExpansionChoice choice :
       {ExpansionChoice::kAuto, ExpansionChoice::kStridedIputSignal,
        ExpansionChoice::kSingleElementP}) {
    auto prog = dacelite::make_jacobi2d(64, 128, 4, 6);
    dacelite::to_cpu_free(prog.sdfg);
    vgpu::Machine m(hgx(4));
    check::Detector det;
    m.engine().set_observer(&det);
    vshmem::World w(m);
    ProgramData data(w, prog.sdfg, true);
    ExecOptions opt;
    opt.expansion = choice;
    dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
    EXPECT_EQ(det.verdict(), check::Verdict::kPass)
        << name(choice) << ": " << det.report_text();
  }
}

// --- tuner output pin -----------------------------------------------------------

// Digest of everything a checker-on tune() reports apart from host wall time:
// the validation records' cpufree-bench-v1 JSON, then every ranked
// candidate's prediction, measurement, verification and checker verdict, and
// the winner. Pinned to values captured from the per-element kernel bodies
// and the map-based shadow table (re-pinned once, when the JSON's machine
// block lost its engine worker-count key), so a numerics or checker slip
// that changes any candidate's outcome fails here.
std::uint64_t tune_digest(const tune::TuneReport& rep) {
  std::vector<sweep::RunRecord> records = rep.records;
  for (sweep::RunRecord& r : records) r.wall_ms = 0.0;
  testutil::Digest d;
  d.add(sweep::bench_json("tune_pin", 1, records));
  auto add_result = [&d](const tune::CandidateResult& c) {
    d.add(c.candidate.id());
    d.add(static_cast<std::uint64_t>(c.predicted));
    d.add(static_cast<std::uint64_t>(c.measured));
    d.add(static_cast<std::uint64_t>(c.validated) << 2 |
          static_cast<std::uint64_t>(c.verified) << 1 |
          static_cast<std::uint64_t>(c.check_clean));
  };
  add_result(rep.baseline);
  for (const tune::CandidateResult& c : rep.ranked) add_result(c);
  const tune::CandidateResult* best = rep.best();
  d.add(best != nullptr ? best->candidate.id() : std::string("none"));
  return d.h;
}

struct TunePin {
  bool pcie;
  tune::WorkloadKind kind;
  std::uint64_t digest;
};

TEST(TunePin, CheckedReportsMatchPinnedDigests) {
  const TunePin pins[] = {
      {false, tune::WorkloadKind::kJacobi1D, 0x81e27860b4e57860ull},
      {false, tune::WorkloadKind::kJacobi2D, 0x82368bd12b3850d2ull},
      {true, tune::WorkloadKind::kJacobi1D, 0xabf7a7f4aa52197cull},
      {true, tune::WorkloadKind::kJacobi2D, 0xbcb75e98196daf6cull},
  };
  for (const TunePin& p : pins) {
    tune::Workload w;
    w.kind = p.kind;
    if (p.kind == tune::WorkloadKind::kJacobi1D) {
      w.gx = 4096;
    } else {
      w.gx = 64;
      w.gy = 48;
    }
    w.ranks = 4;
    w.iterations = 5;
    const vgpu::MachineSpec spec = p.pcie ? vgpu::MachineSpec::dgx_pcie(4)
                                          : vgpu::MachineSpec::hgx_a100(4);
    tune::TuneOptions opt;  // checker on, top-3, full space
    opt.sweep_threads = 1;
    const tune::TuneReport rep = tune::tune(w, spec, opt);
    const tune::CandidateResult* best = rep.best();
    ASSERT_NE(best, nullptr) << w.label();
    EXPECT_TRUE(best->verified && best->check_clean) << w.label();
    EXPECT_EQ(tune_digest(rep), p.digest)
        << (p.pcie ? "dgx_pcie/" : "hgx/") << w.label() << " digest 0x"
        << std::hex << tune_digest(rep);
  }
}

}  // namespace
