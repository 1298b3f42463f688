// Irregular-workload suite (`ctest -L irregular`): the generalized
// histogram's data-dependent aggregation must be bitwise-deterministic
// under every policy triple, on every machine model, at every engine
// thread count — and its skew knob must actually produce the partition
// imbalance the contention figures claim. The suite also pins the
// histogram's geometry table against a brute-force key scan, the
// serial-reference and geometry memos' contract (purity, key completeness,
// thread safety), sparse CG's config validation and its fused kernel
// bodies against the unfused reference, so all of it runs under the
// Release, ASan and TSan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/policy.hpp"
#include "fault/schedule.hpp"
#include "sim/memo.hpp"
#include "sim/observe.hpp"
#include "solvers/cg.hpp"
#include "solvers/sparse_cg.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

using exec::CommPolicy;
using exec::LaunchPolicy;
using exec::Plan;
using exec::SyncPolicy;
using vgpu::MachineSpec;
using workloads::HistogramConfig;
using workloads::HistogramGeometry;
using workloads::HistogramResult;

HistogramConfig small_hist() {
  HistogramConfig cfg;
  cfg.bins = 97;  // prime: uneven owner split on every device count
  cfg.keys_per_round = 512;
  cfg.rounds = 4;
  cfg.threads_per_block = 128;
  cfg.persistent_blocks = 8;
  return cfg;
}

/// Every valid policy triple the histogram runs under.
std::vector<Plan> hist_plans() {
  return {
      {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
       SyncPolicy::kHostBarrier, "hist"},
      {LaunchPolicy::kHostLoop, CommPolicy::kOverlapStreams,
       SyncPolicy::kHostBarrier, "hist"},
      {LaunchPolicy::kHostLoop, CommPolicy::kPeerStore,
       SyncPolicy::kHostBarrier, "hist_p2p"},
      {LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
       SyncPolicy::kStreamSync, "hist_nvshmem"},
      {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
       SyncPolicy::kIterationFlags, "hist_cpufree"},
      {LaunchPolicy::kPersistentPair, CommPolicy::kSignaledPut,
       SyncPolicy::kIterationFlags, "hist_cpufree"},
  };
}

MachineSpec machine_model(int which, int devices) {
  switch (which) {
    case 0:
      return MachineSpec::hgx_a100(devices);
    case 1:
      return MachineSpec::dgx_pcie(devices);
    default:
      return MachineSpec::multi_node(2, devices / 2);
  }
}

TEST(Reference, MassConservation) {
  // Every key's weight lands in exactly one bin: the global sum equals the
  // sum of the weight streams.
  const HistogramConfig cfg = small_hist();
  const std::vector<double> bins = workloads::histogram_reference(cfg, 3);
  double total = 0.0;
  for (double b : bins) total += b;
  double expect = 0.0;
  for (int t = 1; t <= cfg.rounds; ++t) {
    for (int pe = 0; pe < 3; ++pe) {
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        expect += workloads::histogram_key_weight(cfg, pe, t, i);
      }
    }
  }
  EXPECT_NEAR(total, expect, 1e-9 * expect);
}

TEST(Reference, PartitionedMergeReordersOnlyRoundoff) {
  // The owner-partitioned two-stage reduction (per-source partials, then a
  // source-ordered merge) only reorders a naive key-order accumulation of
  // the SAME streams; bins agree to roundoff.
  const HistogramConfig cfg = small_hist();
  const int ranks = 4;
  const std::vector<double> staged =
      workloads::histogram_reference(cfg, ranks);
  std::vector<double> naive(cfg.bins, 0.0);
  for (int t = 1; t <= cfg.rounds; ++t) {
    for (int pe = 0; pe < ranks; ++pe) {
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        naive[workloads::histogram_key_bin(cfg, pe, t, i)] +=
            workloads::histogram_key_weight(cfg, pe, t, i);
      }
    }
  }
  ASSERT_EQ(staged.size(), naive.size());
  for (std::size_t i = 0; i < staged.size(); ++i) {
    EXPECT_NEAR(staged[i], naive[i], 1e-12 * (1.0 + naive[i]))
        << "bin " << i;
  }
}

TEST(Imbalance, SkewConcentratesTheHotOwner) {
  HistogramConfig cfg = small_hist();
  cfg.skew = 0;
  const double uniform = workloads::histogram_imbalance(cfg, 4);
  cfg.skew = 3;
  const double skewed = workloads::histogram_imbalance(cfg, 4);
  EXPECT_GE(uniform, 1.0);
  // u^4 keys pile onto the low bins, all owned by PE 0: the hot owner takes
  // a large multiple of the mean update load.
  EXPECT_GT(skewed, 1.5 * uniform);
  EXPECT_LE(skewed, 4.0);  // cannot exceed ranks
}

class HistVariantSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HistVariantSweep, MatchesReferenceBitwise) {
  const auto [plan_idx, model, devices] = GetParam();
  const Plan plan = hist_plans()[static_cast<std::size_t>(plan_idx)];
  HistogramConfig cfg = small_hist();
  cfg.skew = 2;  // data-dependent comm: some (source, owner) edges are empty
  const std::vector<double> ref =
      workloads::histogram_reference(cfg, devices);
  const HistogramResult got =
      workloads::run_histogram(machine_model(model, devices), cfg, plan);
  ASSERT_EQ(got.bins.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got.bins[i], ref[i]) << "bin " << i;
  }
  EXPECT_GE(got.imbalance, 1.0);
  EXPECT_GT(got.metrics.total_ms(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, HistVariantSweep,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 3),
                       ::testing::Values(2, 4)));

TEST(HistDeterminism, BitIdenticalAcrossEngineThreads) {
  const HistogramConfig cfg = small_hist();
  const Plan plan = hist_plans()[4];  // CPU-Free
  MachineSpec spec = MachineSpec::hgx_a100(4);
  spec.pdes_threads = 1;
  const HistogramResult golden = workloads::run_histogram(spec, cfg, plan);
  for (int t : {2, 4}) {
    spec.pdes_threads = t;
    const HistogramResult got = workloads::run_histogram(spec, cfg, plan);
    EXPECT_EQ(got.bins, golden.bins) << "pdes_threads=" << t;
    EXPECT_EQ(got.metrics.total_ms(), golden.metrics.total_ms())
        << "pdes_threads=" << t;
  }
}

TEST(HistFaults, RetryLadderStillBitwiseCorrect) {
  // Signal-loss faults + the retry rung: the aggregation must re-deliver
  // and still match the reference bitwise (payloads are re-put verbatim).
  HistogramConfig cfg = small_hist();
  cfg.rounds = 3;
  MachineSpec spec = MachineSpec::hgx_a100(2);
  spec.faults.seed = 7;
  spec.faults.rate = 0.05;
  spec.faults.resilience = fault::Resilience::kRetry;
  const std::vector<double> ref = workloads::histogram_reference(cfg, 2);
  const HistogramResult got =
      workloads::run_histogram(spec, cfg, hist_plans()[4]);
  EXPECT_EQ(got.bins, ref);
}

TEST(HistSplit, OwnerPartitionCoversEveryBin) {
  // Weighted-split sanity via the public surface: with bins < ranks the
  // config is rejected upstream (serve::validate); here every bin must be
  // owned exactly once — mass conservation through a distributed run.
  HistogramConfig cfg = small_hist();
  cfg.bins = 5;
  cfg.keys_per_round = 64;
  cfg.rounds = 2;
  const std::vector<double> ref = workloads::histogram_reference(cfg, 4);
  const HistogramResult got = workloads::run_histogram(
      MachineSpec::hgx_a100(4), cfg, hist_plans()[0]);
  EXPECT_EQ(got.bins, ref);
}

// --- Histogram geometry table ------------------------------------------------

/// Brute-force oracle: re-scan the whole key stream of one (source, round)
/// for the slots it touches in `owner`'s slice.
HistogramGeometry::Edge scan_edge(const HistogramConfig& cfg,
                                  const HistogramGeometry& geo, int source,
                                  int round, int owner) {
  HistogramGeometry::Edge e;
  const std::size_t start = geo.start(owner);
  for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
    const std::size_t bin = workloads::histogram_key_bin(cfg, source, round, i);
    if (bin < start || bin >= start + geo.count(owner)) continue;
    const std::size_t slot = bin - start;
    e.lo = e.keys == 0 ? slot : std::min(e.lo, slot);
    e.hi = e.keys == 0 ? slot : std::max(e.hi, slot);
    ++e.keys;
  }
  return e;
}

TEST(HistGeometry, MatchesBruteForceScanOfEveryEdge) {
  for (int ranks : {1, 2, 3, 4, 8}) {
    for (int skew : {0, 2}) {
      // 512 keys fill most edges; 3 keys cannot reach every owner.
      for (std::size_t keys : {std::size_t{512}, std::size_t{3}}) {
        HistogramConfig cfg = small_hist();  // 97 bins: no even split
        cfg.skew = skew;
        cfg.keys_per_round = keys;
        const HistogramGeometry geo(cfg, ranks);
        const std::string where = "ranks=" + std::to_string(ranks) +
                                  " skew=" + std::to_string(skew) +
                                  " keys=" + std::to_string(keys);
        // Owner partition: contiguous, remainder to the low owners.
        std::size_t next = 0, widest = 0;
        for (int o = 0; o < ranks; ++o) {
          const auto uo = static_cast<std::size_t>(o);
          const auto n = static_cast<std::size_t>(ranks);
          EXPECT_EQ(geo.start(o), next) << where;
          EXPECT_EQ(geo.count(o), cfg.bins / n + (uo < cfg.bins % n ? 1 : 0))
              << where;
          for (std::size_t b = 0; b < geo.count(o); ++b) {
            EXPECT_EQ(geo.owner_of(next + b), o) << where << " bin " << b;
          }
          next += geo.count(o);
          widest = std::max(widest, geo.count(o));
        }
        EXPECT_EQ(next, cfg.bins) << where;
        EXPECT_EQ(geo.stride(), widest) << where;

        int empty = 0;
        for (int t = 1; t <= cfg.rounds; ++t) {
          for (int s = 0; s < ranks; ++s) {
            std::size_t keys_sent = 0;
            for (int o = 0; o < ranks; ++o) {
              const HistogramGeometry::Edge& got = geo.edge(s, t, o);
              const HistogramGeometry::Edge want = scan_edge(cfg, geo, s, t, o);
              EXPECT_EQ(got.keys, want.keys) << where;
              EXPECT_EQ(got.any(), want.any()) << where;
              EXPECT_EQ(got.lo, want.lo) << where;
              EXPECT_EQ(got.hi, want.hi) << where;
              EXPECT_EQ(got.slots(), want.slots()) << where;
              if (!got.any()) ++empty;
              keys_sent += got.keys;
            }
            EXPECT_EQ(keys_sent, cfg.keys_per_round) << where;
          }
        }
        if (keys < static_cast<std::size_t>(ranks)) {
          EXPECT_GT(empty, 0) << where;
        }
      }
    }
  }
}

TEST(HistGeometry, ImbalancePinnedAtPreTableValues) {
  // Values the per-key scan gave before the geometry table existed.
  HistogramConfig cfg = small_hist();
  EXPECT_EQ(workloads::histogram_imbalance(cfg, 4), 0x1.042p+0);
  cfg.skew = 2;
  cfg.seed = 7;
  EXPECT_EQ(workloads::histogram_imbalance(cfg, 3), 0x1.0bcp+1);
}

/// Runs `fn` and checks it throws std::invalid_argument naming `field`.
template <class Fn>
void expect_rejects(const Fn& fn, const std::string& field,
                    const std::string& entry) {
  try {
    fn();
    ADD_FAILURE() << entry << " accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << entry << ": " << e.what();
  }
}

void expect_every_entry_rejects(const HistogramConfig& cfg,
                                const std::string& field) {
  expect_rejects(
      [&] {
        (void)workloads::run_histogram(MachineSpec::hgx_a100(2), cfg,
                                       hist_plans()[4]);
      },
      field, "run_histogram");
  expect_rejects([&] { (void)workloads::histogram_reference(cfg, 2); },
                 field, "histogram_reference");
  expect_rejects([&] { (void)workloads::histogram_imbalance(cfg, 2); },
                 field, "histogram_imbalance");
  expect_rejects(
      [&] {
        vgpu::Machine machine(MachineSpec::hgx_a100(2));
        vshmem::World world(machine);
        workloads::HistogramCpufreeJob job(machine, world, cfg);
      },
      field, "HistogramCpufreeJob");
}

TEST(HistValidate, RejectsZeroBins) {
  HistogramConfig cfg = small_hist();
  cfg.bins = 0;
  expect_every_entry_rejects(cfg, "bins");
}

TEST(HistValidate, RejectsZeroKeysPerRound) {
  HistogramConfig cfg = small_hist();
  cfg.keys_per_round = 0;
  expect_every_entry_rejects(cfg, "keys_per_round");
}

TEST(HistValidate, RejectsRoundsBelowOne) {
  HistogramConfig cfg = small_hist();
  cfg.rounds = 0;
  expect_every_entry_rejects(cfg, "rounds");
}

// --- Sparse SpMV-CG -----------------------------------------------------------

solvers::SparseCgConfig small_sparse(double imbalance) {
  solvers::SparseCgConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.max_iterations = 40;
  cfg.tolerance = 1e-10;
  cfg.persistent_blocks = 12;
  cfg.imbalance = imbalance;
  return cfg;
}

Plan sparse_cpufree_plan() {
  return {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
          SyncPolicy::kIterationFlags, "sparse_cg_cpufree"};
}

Plan sparse_baseline_plan() {
  return {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
          SyncPolicy::kHostBarrier, "sparse_cg"};
}

TEST(WeightedSplit, EvenWhenBalanced) {
  const auto rows = solvers::split_rows_weighted(24, 4, 1.0);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t r : rows) EXPECT_EQ(r, 6u);
}

TEST(WeightedSplit, ConservesRowsAndTapers) {
  for (double ratio : {1.0, 2.0, 4.0, 7.5}) {
    for (int ranks : {2, 3, 4, 8}) {
      const auto rows = solvers::split_rows_weighted(64, ranks, ratio);
      std::size_t total = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        total += rows[i];
        EXPECT_GE(rows[i], 2u) << "ranks=" << ranks << " ratio=" << ratio;
        if (i > 0) {
          EXPECT_LE(rows[i], rows[i - 1])
              << "taper must be monotone, ranks=" << ranks
              << " ratio=" << ratio;
        }
      }
      EXPECT_EQ(total, 64u) << "ranks=" << ranks << " ratio=" << ratio;
    }
  }
  // The realized ratio approaches the requested one.
  const auto rows = solvers::split_rows_weighted(100, 4, 4.0);
  EXPECT_GE(rows.front(), 3 * rows.back());
}

TEST(WeightedSplit, ImbalanceFactorGrowsWithRatio) {
  const double even = solvers::sparse_partition_imbalance(small_sparse(1.0), 4);
  const double skewed =
      solvers::sparse_partition_imbalance(small_sparse(4.0), 4);
  EXPECT_NEAR(even, 1.0, 0.1);
  EXPECT_GT(skewed, 1.4);
}

TEST(SparseReference, ConvergesLikeDenseCg) {
  // Same operator as the matrix-free CG: with a balanced split the CSR
  // reference must converge in a comparable iteration count.
  const solvers::CgResult ref = solvers::sparse_cg_reference(small_sparse(1.0), 1);
  ASSERT_GT(ref.rr_history.size(), 3u);
  EXPECT_LT(ref.rr_history.back(), 1e-6 * ref.rr_history.front());
}

class SparseCgSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, double>> {};

TEST_P(SparseCgSweep, MatchesPartitionedReferenceBitwise) {
  const auto [devices, cpu_free, imbalance] = GetParam();
  const solvers::SparseCgConfig cfg = small_sparse(imbalance);
  const solvers::CgResult ref = solvers::sparse_cg_reference(cfg, devices);
  const solvers::CgResult got = solvers::run_sparse_cg(
      MachineSpec::hgx_a100(devices), cfg,
      cpu_free ? sparse_cpufree_plan() : sparse_baseline_plan());
  EXPECT_EQ(got.iterations_run, ref.iterations_run);
  ASSERT_EQ(got.rr_history.size(), ref.rr_history.size());
  for (std::size_t i = 0; i < ref.rr_history.size(); ++i) {
    EXPECT_EQ(got.rr_history[i], ref.rr_history[i]) << "iteration " << i + 1;
  }
  EXPECT_EQ(got.final_rr, ref.final_rr);
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, SparseCgSweep,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool(),
                       ::testing::Values(1.0, 4.0)));

TEST(SparseCg, BitwiseOnEveryMachineModel) {
  const solvers::SparseCgConfig cfg = small_sparse(4.0);
  const solvers::CgResult ref = solvers::sparse_cg_reference(cfg, 4);
  for (int model = 0; model < 3; ++model) {
    const solvers::CgResult got = solvers::run_sparse_cg(
        machine_model(model, 4), cfg, sparse_cpufree_plan());
    EXPECT_EQ(got.final_rr, ref.final_rr) << "model " << model;
    EXPECT_EQ(got.rr_history, ref.rr_history) << "model " << model;
  }
}

TEST(SparseCg, BitIdenticalAcrossEngineThreads) {
  const solvers::SparseCgConfig cfg = small_sparse(4.0);
  MachineSpec spec = MachineSpec::hgx_a100(4);
  spec.pdes_threads = 1;
  const solvers::CgResult golden =
      solvers::run_sparse_cg(spec, cfg, sparse_cpufree_plan());
  for (int t : {2, 4}) {
    spec.pdes_threads = t;
    const solvers::CgResult got =
        solvers::run_sparse_cg(spec, cfg, sparse_cpufree_plan());
    EXPECT_EQ(got.rr_history, golden.rr_history) << "pdes_threads=" << t;
    EXPECT_EQ(got.metrics.total_ms(), golden.metrics.total_ms())
        << "pdes_threads=" << t;
  }
}

TEST(SparseCg, ImbalanceCostsTheBaselineMore) {
  // The straggler claim behind the workload: the heavy rank slows every
  // variant down, but the baseline stacks per-iteration host round-trips on
  // top of the straggler wait, so the CPU-Free variant keeps a clear
  // absolute lead under imbalance.
  // Compute-bound sizing (timing-only): at tiny problems the per-iteration
  // reduction latency hides the heavy rank entirely.
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.nx = 4096;
  cfg.ny = 256;
  cfg.functional = false;  // fixed iteration count: compare pure throughput
  cfg.max_iterations = 12;
  const double cf_even =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_cpufree_plan())
          .metrics.total_ms();
  const double bl_even =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_baseline_plan())
          .metrics.total_ms();
  cfg.imbalance = 4.0;
  const double cf_skew =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_cpufree_plan())
          .metrics.total_ms();
  const double bl_skew =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_baseline_plan())
          .metrics.total_ms();
  EXPECT_GT(cf_skew, cf_even);  // imbalance is not free anywhere
  EXPECT_GT(bl_skew, bl_even);
  // The CPU-Free variant keeps its absolute advantage under imbalance: the
  // baseline pays the heavy rank AND the per-iteration host round-trips.
  EXPECT_LT(cf_skew, bl_skew);
}

TEST(SparseCg, RejectsUnsupportedPlansNamingTheComponent) {
  const solvers::SparseCgConfig cfg = small_sparse(1.0);
  try {
    (void)solvers::run_sparse_cg(
        MachineSpec::hgx_a100(2), cfg,
        {LaunchPolicy::kHostLoop, CommPolicy::kPeerStore,
         SyncPolicy::kHostBarrier, "sparse_cg"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_sparse_cg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("peer_store"), std::string::npos);
  }
  try {
    (void)solvers::run_sparse_cg(
        MachineSpec::hgx_a100(2), cfg,
        {LaunchPolicy::kPersistent, CommPolicy::kStagedCopy,
         SyncPolicy::kIterationFlags, "sparse_cg"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Invalid triple: the generic validity message names the comm component.
    EXPECT_NE(std::string(e.what()).find("comm"), std::string::npos);
  }
}

// --- Reference memo contract --------------------------------------------------

/// Exact bit patterns, so "equal" below means bitwise equal.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

std::vector<std::uint64_t> bits(const solvers::CgResult& r) {
  std::vector<std::uint64_t> out = bits(r.rr_history);
  out.push_back(static_cast<std::uint64_t>(r.iterations_run));
  out.push_back(std::bit_cast<std::uint64_t>(r.final_rr));
  return out;
}

solvers::CgConfig small_dense() {
  solvers::CgConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.max_iterations = 10;
  return cfg;
}

/// Each reference's answer as bits, for one (config, ranks).
std::vector<std::uint64_t> hist_bits(const HistogramConfig& cfg, int ranks) {
  return bits(workloads::histogram_reference(cfg, ranks));
}
std::vector<std::uint64_t> sparse_bits(const solvers::SparseCgConfig& cfg,
                                       int ranks) {
  return bits(solvers::sparse_cg_reference(cfg, ranks));
}
std::vector<std::uint64_t> dense_bits(const solvers::CgConfig& cfg,
                                      int ranks) {
  return bits(solvers::cg_reference(cfg, ranks));
}

TEST(Memo, EvictsOldestInsertedFirst) {
  sim::Memo<int, int, 2> memo;
  int calls = 0;
  auto get = [&](int k) {
    return memo.get(k, [&] {
      ++calls;
      return 10 * k;
    });
  };
  EXPECT_EQ(get(1), 10);
  EXPECT_EQ(get(1), 10);
  EXPECT_EQ(calls, 1);  // hit
  EXPECT_EQ(get(2), 20);
  EXPECT_EQ(get(3), 30);  // full: evicts 1
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(get(2), 20);  // still held
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(get(1), 10);  // recomputed, evicts 2
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(get(3), 30);
  EXPECT_EQ(calls, 4);
}

TEST(ReferenceMemo, EvictedEntryRecomputesBitwiseEqual) {
  const HistogramConfig hist = small_hist();
  const solvers::SparseCgConfig sparse = small_sparse(4.0);
  const solvers::CgConfig dense = small_dense();
  const auto hist0 = hist_bits(hist, 4);
  const auto sparse0 = sparse_bits(sparse, 4);
  const auto dense0 = dense_bits(dense, 4);
  // Capacity fresh keys push the first entries out of every memo.
  for (std::size_t i = 0; i < sim::kReferenceMemoCapacity; ++i) {
    HistogramConfig h = hist;
    h.seed = 1000 + i;
    (void)workloads::histogram_reference(h, 4);
    solvers::SparseCgConfig sp = sparse;
    sp.nx = 8 + i;
    (void)solvers::sparse_cg_reference(sp, 4);
    solvers::CgConfig d = dense;
    d.nx = 8 + i;
    (void)solvers::cg_reference(d, 4);
  }
  EXPECT_EQ(hist_bits(hist, 4), hist0);
  EXPECT_EQ(sparse_bits(sparse, 4), sparse0);
  EXPECT_EQ(dense_bits(dense, 4), dense0);
}

TEST(ReferenceMemo, EveryKeyedFieldChangesTheResult) {
  const HistogramConfig hist = small_hist();
  const auto hist0 = hist_bits(hist, 4);
  {
    HistogramConfig c = hist;
    c.bins = 101;
    EXPECT_NE(hist_bits(c, 4), hist0) << "bins";
    c = hist;
    c.keys_per_round = 511;
    EXPECT_NE(hist_bits(c, 4), hist0) << "keys_per_round";
    c = hist;
    c.rounds = 3;
    EXPECT_NE(hist_bits(c, 4), hist0) << "rounds";
    c = hist;
    c.skew = 1;
    EXPECT_NE(hist_bits(c, 4), hist0) << "skew";
    c = hist;
    c.seed = 43;
    EXPECT_NE(hist_bits(c, 4), hist0) << "seed";
    EXPECT_NE(hist_bits(hist, 3), hist0) << "ranks";
  }

  // Ten iterations do not converge, so the iteration cap and the tolerance
  // both decide where the residual history stops.
  solvers::SparseCgConfig sparse = small_sparse(4.0);
  sparse.max_iterations = 10;
  const auto sparse0 = sparse_bits(sparse, 4);
  {
    solvers::SparseCgConfig c = sparse;
    c.nx = 25;
    EXPECT_NE(sparse_bits(c, 4), sparse0) << "nx";
    c = sparse;
    c.ny = 25;
    EXPECT_NE(sparse_bits(c, 4), sparse0) << "ny";
    c = sparse;
    c.max_iterations = 11;
    EXPECT_NE(sparse_bits(c, 4), sparse0) << "max_iterations";
    c = sparse;
    c.tolerance = 1e300;
    EXPECT_NE(sparse_bits(c, 4), sparse0) << "tolerance";
    c = sparse;
    c.imbalance = 2.0;
    EXPECT_NE(sparse_bits(c, 4), sparse0) << "imbalance";
    EXPECT_NE(sparse_bits(sparse, 3), sparse0) << "ranks";
  }

  const solvers::CgConfig dense = small_dense();
  const auto dense0 = dense_bits(dense, 4);
  {
    solvers::CgConfig c = dense;
    c.nx = 17;
    EXPECT_NE(dense_bits(c, 4), dense0) << "nx";
    c = dense;
    c.ny = 17;
    EXPECT_NE(dense_bits(c, 4), dense0) << "ny";
    c = dense;
    c.max_iterations = 11;
    EXPECT_NE(dense_bits(c, 4), dense0) << "max_iterations";
    c = dense;
    c.tolerance = 1e300;
    EXPECT_NE(dense_bits(c, 4), dense0) << "tolerance";
    EXPECT_NE(dense_bits(dense, 3), dense0) << "ranks";
  }
}

TEST(ReferenceMemo, IgnoresFieldsOutsideTheKey) {
  sim::Observer observer;
  sim::JobMap job_map;

  const HistogramConfig hist = small_hist();
  HistogramConfig h = hist;
  h.observer = &observer;
  h.trace = !hist.trace;
  h.threads_per_block = 32;
  h.persistent_blocks = 3;
  h.functional = !hist.functional;
  h.job_map = &job_map;
  h.job_label = "tenant";
  h.comm_scope = vshmem::Scope::kThread;
  EXPECT_EQ(hist_bits(h, 4), hist_bits(hist, 4));

  const solvers::SparseCgConfig sparse = small_sparse(4.0);
  solvers::SparseCgConfig sp = sparse;
  sp.observer = &observer;
  sp.trace = !sparse.trace;
  sp.threads_per_block = 32;
  sp.persistent_blocks = 3;
  sp.functional = !sparse.functional;
  sp.job_map = &job_map;
  sp.job_label = "tenant";
  EXPECT_EQ(sparse_bits(sp, 4), sparse_bits(sparse, 4));

  const solvers::CgConfig dense = small_dense();
  solvers::CgConfig d = dense;
  d.observer = &observer;
  d.trace = !dense.trace;
  d.threads_per_block = 32;
  d.persistent_blocks = 3;
  d.functional = !dense.functional;
  d.job_map = &job_map;
  d.job_label = "tenant";
  EXPECT_EQ(dense_bits(d, 4), dense_bits(dense, 4));
}

TEST(ReferenceMemo, ConcurrentCallersSeeTheSerialResults) {
  // More distinct questions than the memo holds, so the threads race on
  // misses, inserts and evictions as well as hits.
  constexpr int kConfigs = static_cast<int>(sim::kReferenceMemoCapacity) + 4;
  struct Question {
    int kind = 0;
    int ranks = 0;
    HistogramConfig hist;
    solvers::SparseCgConfig sparse;
    solvers::CgConfig dense;
  };
  std::vector<Question> questions;
  for (int i = 0; i < kConfigs; ++i) {
    Question q;
    q.kind = i % 3;
    q.ranks = 1 + i % 4;
    q.hist = small_hist();
    q.hist.keys_per_round = 64;
    q.hist.seed = 2000 + static_cast<std::uint64_t>(i);
    q.sparse = small_sparse(1.0 + i % 3);
    q.sparse.max_iterations = 8;
    q.sparse.nx = 12 + static_cast<std::size_t>(i);
    q.dense = small_dense();
    q.dense.nx = 12 + static_cast<std::size_t>(i);
    questions.push_back(q);
  }
  auto ask = [](const Question& q) {
    switch (q.kind) {
      case 0:
        return hist_bits(q.hist, q.ranks);
      case 1:
        return sparse_bits(q.sparse, q.ranks);
      default:
        return dense_bits(q.dense, q.ranks);
    }
  };
  std::vector<std::vector<std::uint64_t>> serial;
  for (const Question& q : questions) serial.push_back(ask(q));

  constexpr int kThreads = 8;
  constexpr int kRepeats = 3;
  std::vector<std::vector<std::vector<std::uint64_t>>> got(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread walks the questions from a different starting point.
      for (int r = 0; r < kRepeats * kConfigs; ++r) {
        got[static_cast<std::size_t>(t)].push_back(
            ask(questions[static_cast<std::size_t>((t * 5 + r) % kConfigs)]));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRepeats * kConfigs; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)],
                serial[static_cast<std::size_t>((t * 5 + r) % kConfigs)])
          << "thread " << t << " call " << r;
    }
  }
}

// --- Sparse CG config validation --------------------------------------------

/// Every sparse-CG entry point must reject `cfg` on `ranks` ranks, naming
/// `what` in the message.
void expect_every_sparse_entry_rejects(const solvers::SparseCgConfig& cfg,
                                       int ranks, const std::string& what) {
  expect_rejects(
      [&] {
        (void)solvers::run_sparse_cg(MachineSpec::hgx_a100(ranks), cfg,
                                     sparse_cpufree_plan());
      },
      what, "run_sparse_cg");
  expect_rejects([&] { (void)solvers::sparse_cg_reference(cfg, ranks); },
                 what, "sparse_cg_reference");
  expect_rejects(
      [&] { (void)solvers::sparse_partition_imbalance(cfg, ranks); }, what,
      "sparse_partition_imbalance");
  expect_rejects(
      [&] {
        vgpu::Machine machine(MachineSpec::hgx_a100(ranks));
        vshmem::World world(machine);
        solvers::SparseCgCpufreeJob job(machine, world, cfg);
      },
      what, "SparseCgCpufreeJob");
}

TEST(SparseValidate, RejectsNxBelowOne) {
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.nx = 0;
  expect_every_sparse_entry_rejects(cfg, 2, "nx");
}

TEST(SparseValidate, RejectsMaxIterationsBelowOne) {
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.max_iterations = 0;
  expect_every_sparse_entry_rejects(cfg, 2, "max_iterations");
}

TEST(SparseValidate, RejectsNyBelowTwoRowsPerRank) {
  // ny = 3 on 4 ranks used to run a rank with no rows at all.
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.ny = 3;
  expect_every_sparse_entry_rejects(cfg, 4, "ny");
  cfg.ny = 7;
  cfg.imbalance = 4.0;
  expect_every_sparse_entry_rejects(cfg, 4, "ny");
  cfg.ny = 8;  // exactly two rows per rank is enough
  EXPECT_EQ(solvers::sparse_cg_reference(cfg, 4).rr_history,
            solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                                   sparse_cpufree_plan())
                .rr_history);
}

TEST(SparseValidate, RejectsCsrBeyond32BitIndices) {
  // Two rows per rank: the halo-extended layout is 4 * nx entries.
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.ny = 4;
  cfg.nx = std::size_t{1} << 31;  // layout 2^33
  expect_every_sparse_entry_rejects(cfg, 2, "32-bit");
  // The layout fits (4 * nx < 2^32), but the 8 * nx - 4 nonzeros do not.
  cfg.ny = 2;
  cfg.nx = (std::size_t{1} << 30) - 1;
  expect_every_sparse_entry_rejects(cfg, 1, "32-bit");
}

// --- Fused kernels on the early-exit path -----------------------------------

class SparseCgEarlyExit
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(SparseCgEarlyExit, FusedResidualsMatchTheUnfusedReference) {
  // Converges well inside the cap, so the last fused axpy2_dot feeds the
  // convergence test that returns before p_update.
  const auto [ranks, imbalance, cpu_free] = GetParam();
  solvers::SparseCgConfig cfg = small_sparse(imbalance);
  cfg.nx = 9;  // odd row length
  cfg.ny = 16;
  cfg.max_iterations = 100;
  const solvers::CgResult ref = solvers::sparse_cg_reference(cfg, ranks);
  const solvers::CgResult got = solvers::run_sparse_cg(
      MachineSpec::hgx_a100(ranks), cfg,
      cpu_free ? sparse_cpufree_plan() : sparse_baseline_plan());
  EXPECT_LT(got.iterations_run, cfg.max_iterations);
  EXPECT_LT(got.final_rr, cfg.tolerance);
  EXPECT_EQ(got.iterations_run, ref.iterations_run);
  EXPECT_EQ(bits(got), bits(ref));
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, SparseCgEarlyExit,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1.0, 2.5, 4.0), ::testing::Bool()));

// --- Histogram geometry: closed-form owners and one table per config ---------

TEST(HistGeometry, OwnerOfMatchesTheScanForEveryBin) {
  for (int ranks = 1; ranks <= 8; ++ranks) {
    const auto n = static_cast<std::size_t>(ranks);
    // Divisible by ranks, not divisible, and fewer bins than ranks.
    for (std::size_t bins : {7 * n, 7 * n + 1, 7 * n + n / 2, std::size_t{97},
                             std::size_t{5}}) {
      HistogramConfig cfg = small_hist();
      cfg.bins = bins;
      cfg.keys_per_round = 1;
      cfg.rounds = 1;
      const HistogramGeometry geo(cfg, ranks);
      // The partition as the original constructor built it, and its scan.
      std::vector<std::size_t> start;
      std::size_t off = 0;
      for (std::size_t o = 0; o < n; ++o) {
        start.push_back(off);
        off += bins / n + (o < bins % n ? 1 : 0);
      }
      for (std::size_t bin = 0; bin < bins; ++bin) {
        int scan = ranks - 1;
        for (std::size_t o = 0; o + 1 < n; ++o) {
          if (bin < start[o + 1]) {
            scan = static_cast<int>(o);
            break;
          }
        }
        EXPECT_EQ(geo.owner_of(bin), scan)
            << "ranks=" << ranks << " bins=" << bins << " bin=" << bin;
      }
    }
  }
}

TEST(HistGeometryMemo, SameKeySharesOneTable) {
  const HistogramConfig cfg = small_hist();
  const auto a = workloads::histogram_geometry(cfg, 4);
  const auto b = workloads::histogram_geometry(cfg, 4);
  EXPECT_EQ(a.get(), b.get());
}

TEST(HistGeometryMemo, EveryKeyedFieldGivesADifferentTable) {
  const HistogramConfig cfg = small_hist();
  const auto base = workloads::histogram_geometry(cfg, 4);
  HistogramConfig c = cfg;
  c.bins = 101;
  EXPECT_NE(workloads::histogram_geometry(c, 4).get(), base.get()) << "bins";
  c = cfg;
  c.keys_per_round = 511;
  EXPECT_NE(workloads::histogram_geometry(c, 4).get(), base.get())
      << "keys_per_round";
  c = cfg;
  c.rounds = 3;
  EXPECT_NE(workloads::histogram_geometry(c, 4).get(), base.get()) << "rounds";
  c = cfg;
  c.skew = 1;
  EXPECT_NE(workloads::histogram_geometry(c, 4).get(), base.get()) << "skew";
  c = cfg;
  c.seed = 43;
  EXPECT_NE(workloads::histogram_geometry(c, 4).get(), base.get()) << "seed";
  EXPECT_NE(workloads::histogram_geometry(cfg, 3).get(), base.get())
      << "ranks";
}

TEST(HistGeometryMemo, IgnoresFieldsOutsideTheKey) {
  sim::Observer observer;
  const HistogramConfig cfg = small_hist();
  const auto base = workloads::histogram_geometry(cfg, 4);
  HistogramConfig c = cfg;
  c.observer = &observer;
  c.trace = !cfg.trace;
  c.threads_per_block = 32;
  c.persistent_blocks = 3;
  c.functional = !cfg.functional;
  c.job_label = "tenant";
  EXPECT_EQ(workloads::histogram_geometry(c, 4).get(), base.get());
}

TEST(HistGeometryMemo, ConcurrentRunsMatchTheSerialBins) {
  // More configs than the memo holds, so the threads share, evict and
  // rebuild tables while other runs still hold them.
  constexpr int kConfigs = static_cast<int>(sim::kReferenceMemoCapacity) + 4;
  struct Case {
    HistogramConfig cfg;
    int ranks = 0;
    Plan plan;
  };
  const std::vector<Plan> plans = hist_plans();
  std::vector<Case> cases;
  for (int i = 0; i < kConfigs; ++i) {
    Case c;
    c.cfg = small_hist();
    c.cfg.keys_per_round = 64;
    c.cfg.rounds = 2;
    c.cfg.skew = i % 3;
    c.cfg.seed = 3000 + static_cast<std::uint64_t>(i);
    c.ranks = 1 + i % 4;
    c.plan = plans[static_cast<std::size_t>(i) % plans.size()];
    cases.push_back(c);
  }
  auto run = [](const Case& c) {
    return workloads::run_histogram(MachineSpec::hgx_a100(c.ranks), c.cfg,
                                    c.plan)
        .bins;
  };
  std::vector<std::vector<double>> serial;
  for (const Case& c : cases) serial.push_back(run(c));

  constexpr int kThreads = 8;
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int r = 0; r < kConfigs; ++r) {
        got[static_cast<std::size_t>(t)].push_back(
            run(cases[static_cast<std::size_t>((t * 5 + r) % kConfigs)]));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kConfigs; ++r) {
      const auto& bins =
          got[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      EXPECT_EQ(bits(bins),
                bits(serial[static_cast<std::size_t>((t * 5 + r) % kConfigs)]))
          << "thread " << t << " run " << r;
    }
  }
}

}  // namespace
