// The repository benchmark's runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Runs passes of the named workload one op at a time on one thread (a
// closed loop with one client) until S seconds are spent, verifying every
// op. --trace 0 prints the end-to-end metrics; --trace 1 spends half the
// budget untraced and half traced (host spans plus the counting observer),
// checks that tracing changed no simulated result, and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every op verified, 1 when any failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/stats.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 15;
/// The calibration kernel's time at the reference host speed. Host
/// metrics are reported as ms (or 1/s) at that speed: every host time is
/// scaled by kCalibRefMs over the kernel's time measured around it, which
/// cancels the drift of a shared host's CPU speed between and within runs.
constexpr double kCalibRefMs = 5.0;
constexpr int kProbeReps = 3;
constexpr std::size_t kMaxErrorsShown = 5;
/// Pass p runs with derive(seed, p). Warm-up repetition r runs the pass of
/// run seed kWarmSeed with pass seed derive(kWarmSeed, kWarmBase + r): the
/// same ops in every run, whatever --seed is, and inputs no timed pass uses.
constexpr std::uint64_t kWarmSeed = 0x5e7c0ffeeull;
constexpr std::uint64_t kWarmBase = std::uint64_t{1} << 32;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_figs|irregular|serve_fleet|compile_tune --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || errno != 0 || v.empty())) {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The ops of the pass with `pass_seed`, in the order that seed gives.
std::vector<Op> build_pass(const Workload& wl, std::uint64_t seed,
                           std::uint64_t pass_seed) {
  std::vector<Op> ops = wl.pass(seed, pass_seed);
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[draw(pass_seed, ~std::uint64_t{0}, i, i)]);
  }
  return ops;
}

/// Everything one loop of passes measured.
struct Loop {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  int passes = 0;
  double wall_s = 0.0;
  /// Host time of each op, as measured, and the pass it ran in.
  std::vector<double> op_ms;
  std::vector<int> op_pass;
  /// Ops per host second of each pass, as measured.
  std::vector<double> pass_rate;
  /// Calibration kernel times: before each pass, and one after the last.
  std::vector<double> calib_ms;

  // Canonical passes only (exact, deterministic given the seed).
  double canonical_host_ns = 0.0;
  double sim_total_ms = 0.0;
  std::vector<double> job_us;
  std::vector<std::string> digests;
  int runs = 0;
  cpufree::RunMetrics split;
  double hidden_ratio_sum = 0.0;
  std::map<std::string, double> best_baseline_ms;
  std::vector<std::pair<std::string, double>> cpu_free_ms;
  std::int64_t reference_asks = 0;
  std::set<std::string> references;
  Outcomes outcomes;
  CountingObserver::Counts counts;

  /// Factor that takes pass p's host times to the reference host speed:
  /// kCalibRefMs over the calibration time around the pass.
  [[nodiscard]] double scale(std::size_t p) const {
    return 2.0 * kCalibRefMs / (calib_ms[p] + calib_ms[p + 1]);
  }
  /// Median over passes of the pass rate at the reference speed, so a short
  /// disturbance of the host moves it less than it moves the mean rate.
  [[nodiscard]] double ops_per_s() const {
    std::vector<double> v;
    for (std::size_t p = 0; p < pass_rate.size(); ++p) {
      v.push_back(pass_rate[p] / scale(p));
    }
    return quantile(v, 0.5);
  }
  /// Op host times at the reference speed.
  [[nodiscard]] std::vector<double> scaled_op_ms() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      v.push_back(op_ms[i] * scale(static_cast<std::size_t>(op_pass[i])));
    }
    return v;
  }

  void fail(const std::string& key, const std::string& why) {
    ++failed;
    if (errors.size() < kMaxErrorsShown) errors.push_back(key + ": " + why);
  }

  /// Geometric-mean speedup of each CPU-Free op over its group's fastest
  /// CPU-controlled op, by the paper's formula; 0 without pairs.
  [[nodiscard]] double speedup_pct() const {
    double log_sum = 0.0;
    int n = 0;
    for (const auto& [group, ms] : cpu_free_ms) {
      auto it = best_baseline_ms.find(group);
      if (it == best_baseline_ms.end() || it->second <= 0.0) continue;
      log_sum += std::log(ms / it->second);
      ++n;
    }
    return n == 0 ? 0.0
                  : sim::speedup_percent(1.0, std::exp(log_sum / n));
  }
};

/// Runs one op, timing it and folding its result into `loop`.
void run_op(const Op& op, OpCtx& ctx, bool canonical,
            std::map<std::string, std::string>& first_digest, Loop& loop) {
  OpResult r;
  const std::int64_t t0 = now_ns();
  {
    Scope s(ctx.tracer, "bench.op");
    ctx.tracer.label(op.key);
    try {
      r = op.run(ctx);
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
    }
  }
  const double host_ns = static_cast<double>(now_ns() - t0);
  ++loop.attempted;
  loop.op_ms.push_back(host_ns * 1e-6);
  loop.op_pass.push_back(loop.passes);
  if (op.timing_only && r.ok) {
    auto [it, first] = first_digest.emplace(op.key, r.digest);
    if (!first && it->second != r.digest) {
      r.fail("simulated metrics differ between passes");
    }
  }
  if (!r.ok) {
    loop.fail("pass " + std::to_string(loop.passes) + " " + op.key, r.error);
  }
  if (!canonical) return;
  loop.canonical_host_ns += host_ns;
  loop.sim_total_ms += r.sim_ms;
  loop.job_us.insert(loop.job_us.end(), r.job_us.begin(), r.job_us.end());
  loop.digests.push_back(op.key + "=" + r.digest);
  loop.runs += r.runs;
  loop.split.host_api += r.split.host_api;
  loop.split.comm += r.split.comm;
  loop.split.compute += r.split.compute;
  loop.split.sync += r.split.sync;
  loop.hidden_ratio_sum += r.hidden_ratio_sum;
  // Problems differ between passes, so pairs and references are per pass.
  // Built with += rather than operator+: GCC 12 raises a -Wrestrict false
  // positive on concatenation into a temporary here.
  std::string in_pass = "@";
  in_pass += std::to_string(loop.passes);
  if (op.role == Role::kBaseline) {
    auto [it, first] =
        loop.best_baseline_ms.emplace(op.group + in_pass, r.sim_ms);
    if (!first) it->second = std::min(it->second, r.sim_ms);
  } else if (op.role == Role::kCpuFree) {
    loop.cpu_free_ms.emplace_back(op.group + in_pass, r.sim_ms);
  }
  if (!op.reference_key.empty()) {
    ++loop.reference_asks;
    loop.references.insert(op.reference_key + in_pass);
  }
}

/// Runs whole passes until `budget_s` is spent (and at least the canonical
/// passes ran). With `observer`, every op is traced and counted.
Loop run_loop(const Workload& wl, const Args& args, double budget_s,
              Tracer& tracer, CountingObserver* observer) {
  Loop loop;
  std::map<std::string, std::string> first_digest;
  std::int64_t op_id = 0;
  const std::int64_t t0 = now_ns();
  auto elapsed = [t0] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  for (int p = 0; p < wl.canonical_passes || elapsed() < budget_s; ++p) {
    const bool canonical = p < wl.canonical_passes;
    loop.calib_ms.push_back(calibrate_ms());
    const std::int64_t pass_t0 = now_ns();
    Scope pass_span(tracer, "bench.pass");
    const std::vector<Op> ops = build_pass(
        wl, args.seed, derive(args.seed, static_cast<std::uint64_t>(p)));
    for (const Op& op : ops) {
      tracer.set_op(op_id++);
      if (observer != nullptr) observer->start_op();
      OpCtx ctx{tracer, observer, canonical ? &loop.outcomes : nullptr};
      run_op(op, ctx, canonical, first_digest, loop);
    }
    ++loop.passes;
    loop.pass_rate.push_back(static_cast<double>(ops.size()) * 1e9 /
                             static_cast<double>(now_ns() - pass_t0));
    if (observer != nullptr && loop.passes == wl.canonical_passes) {
      loop.counts = observer->counts;
    }
  }
  loop.calib_ms.push_back(calibrate_ms());
  loop.wall_s = elapsed();
  return loop;
}

/// One set-up: seeded input generation for the first pass, then a warm-up
/// of every warmup_stride-th op of a fixed pass that does not depend on
/// --seed (so set-up time does not vary with the seed, and nothing the
/// warm-up computes can be reused by a timed pass). The warm-up takes the
/// ops in workload order, so every repetition warms the same kinds of op.
/// Returns seconds since `t0`.
double setup_once(const Workload& wl, const Args& args, int rep,
                  std::int64_t t0, Loop& warm) {
  (void)build_pass(wl, args.seed, derive(args.seed, 0));
  const std::vector<Op> ops = wl.pass(
      kWarmSeed,
      derive(kWarmSeed, kWarmBase + static_cast<std::uint64_t>(rep)));
  Tracer off;
  std::map<std::string, std::string> digests;
  for (std::size_t i = 0; i < ops.size();
       i += static_cast<std::size_t>(wl.warmup_stride)) {
    OpCtx ctx{off, nullptr, nullptr};
    run_op(ops[i], ctx, false, digests, warm);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_report(const char* title, const Loop& l) {
  const std::vector<double> scaled = l.scaled_op_ms();
  const double p90 = quantile(scaled, 0.9);
  const auto beyond = std::count_if(scaled.begin(), scaled.end(),
                                    [p90](double v) { return v > p90; });
  std::printf("%s: %d passes, %zu ops in %.3f s, %lld failed\n", title,
              l.passes, l.op_ms.size(), l.wall_s,
              static_cast<long long>(l.failed));
  std::printf("  calibration kernel %.4f ms median (reference %.4f ms)\n",
              quantile(l.calib_ms, 0.5), kCalibRefMs);
  std::printf("  at reference speed: ops/s %.4f, op_ms p50 %.4f p90 %.4f "
              "(n=%zu, %lld beyond p90)\n",
              l.ops_per_s(), quantile(scaled, 0.5), p90, scaled.size(),
              static_cast<long long>(beyond));
  std::printf("  as measured:        ops/s %.4f, op_ms p50 %.4f p90 %.4f\n",
              quantile(l.pass_rate, 0.5), quantile(l.op_ms, 0.5),
              quantile(l.op_ms, 0.9));
}

int run(const Args& args, std::int64_t t_main) {
  const std::map<std::string, Workload (*)()> table = {
      {"paper_figs", paper_figs},
      {"irregular", irregular},
      {"serve_fleet", serve_fleet},
      {"compile_tune", compile_tune},
  };
  auto it = table.find(args.workload);
  if (it == table.end()) usage(("unknown workload " + args.workload).c_str());
  const Workload wl = it->second();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n  why: %s\n",
              wl.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, wl.why);

  // Set-up, repeated; the first repetition counts from main(). Each is
  // scaled to the reference speed by the calibration run right after it.
  Loop warm;
  std::vector<double> setup_s;
  std::vector<double> setup_scaled_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(
        setup_once(wl, args, rep, rep == 0 ? t_main : now_ns(), warm));
    setup_scaled_s.push_back(setup_s.back() * kCalibRefMs / calibrate_ms());
  }
  std::printf("setup: %d repetitions, median %.4f s at reference speed, "
              "%.4f s as measured (first %.4f s)\n",
              kSetupReps, quantile(setup_scaled_s, 0.5),
              quantile(setup_s, 0.5), setup_s.front());

  Tracer tracer;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Loop plain = run_loop(wl, args, budget, tracer, nullptr);
  print_report("untraced", plain);

  std::int64_t attempted = warm.attempted + plain.attempted;
  std::int64_t failed = warm.failed + plain.failed;
  std::vector<std::string> errors = warm.errors;
  errors.insert(errors.end(), plain.errors.begin(), plain.errors.end());

  const double refs_shared =
      plain.references.empty()
          ? 0.0
          : static_cast<double>(plain.reference_asks) /
                static_cast<double>(plain.references.size());
  const double slo = plain.outcomes.mean("serve.slo_attainment");
  const double tuned =
      sim::speedup_percent(1.0, std::exp(plain.outcomes.mean("tune.log_tuned_ratio")));
  std::printf("  sim: total %.6f ms over %d canonical passes, %zu jobs\n",
              plain.sim_total_ms, wl.canonical_passes, plain.job_us.size());
  if (!plain.cpu_free_ms.empty()) {
    std::printf("  sim: CPU-Free speedup %.4f%% over the fastest baseline\n",
                plain.speedup_pct());
  }
  if (refs_shared > 0.0) {
    std::printf("  reference sharing: %.2f ops per distinct reference\n",
                refs_shared);
  }
  if (slo > 0.0) {
    std::printf("  serve: slo_attainment %.4f, %.2f jobs per distinct shape\n",
                slo, plain.outcomes.mean("serve.jobs_per_shape"));
  }
  if (wl.name == std::string("compile_tune")) {
    std::printf("  tune: tuned speedup %.4f%% over the default recipe\n",
                tuned);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", quantile(setup_scaled_s, 0.5), "s"},
        {"ops_per_s", plain.ops_per_s(), "1/s"},
        {"op_ms_p50", quantile(plain.scaled_op_ms(), 0.5), "ms"},
        {"op_ms_p90", quantile(plain.scaled_op_ms(), 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"sim_total_ms", plain.sim_total_ms, "ms"},
        {"sim_job_p50_us", quantile(plain.job_us, 0.5), "us"},
        {"sim_job_p90_us", quantile(plain.job_us, 0.9), "us"},
    };
  } else {
    CountingObserver counter;
    tracer.set_enabled(true);
    const Loop traced = run_loop(wl, args, budget, tracer, &counter);
    print_report("traced", traced);
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (traced.digests != plain.digests ||
        traced.sim_total_ms != plain.sim_total_ms) {
      ++failed;
      errors.push_back("tracing changed the simulated results");
    }

    // Paired probes on the first pass's ops, outside the timed loops; the
    // per-layer figures are their means per pass.
    Outcomes probes;
    const std::vector<Op> first = build_pass(wl, args.seed, derive(args.seed, 0));
    for (int rep = 0; rep < kProbeReps; ++rep) {
      for (const Op& op : first) {
        if (!op.probe) continue;
        OpCtx ctx{tracer, nullptr, &probes};
        op.probe(ctx);
      }
    }
    auto probe_ms = [&probes](const char* name) {
      return probes.sum(name) / kProbeReps;
    };
    tracer.set_enabled(false);
    if (!args.trace_out.empty()) {
      if (tracer.write_chrome(args.trace_out)) {
        std::printf("  chrome trace: %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
      }
    }

    const std::map<std::string, double> self = tracer.self_ms();
    const double per_pass = 1.0 / std::max(traced.passes, 1);
    auto span_ms = [&](const char* name) {
      auto s = self.find(name);
      return s == self.end() ? 0.0 : s->second * per_pass;
    };
    const CountingObserver::Counts& c = traced.counts;
    const double events = static_cast<double>(
        c.stream_ops + c.puts + c.signal_updates + c.link_flights);
    const double on = probes.sum("tune.check_on_ms");
    const double runs = std::max(plain.runs, 1);
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    metrics = {
        {"vgpu.kernel_groups", d(c.kernel_groups), "count"},
        {"vgpu.stream_ops", d(c.stream_ops), "count"},
        {"vgpu.stream_syncs", d(c.stream_syncs), "count"},
        {"sim.barrier_arrivals", d(c.barrier_arrivals), "count"},
        {"vshmem.puts", d(c.puts), "count"},
        {"vshmem.signal_updates", d(c.signal_updates), "count"},
        {"vshmem.signal_waits", d(c.signal_waits), "count"},
        {"topo.link_flights", d(c.link_flights), "count"},
        {"topo.link_wait_us", d(c.link_wait_ns) * 1e-3, "us"},
        {"topo.shared_flight_share",
         c.link_flights > 0 ? d(c.shared_flights) / d(c.link_flights) : 0.0,
         "ratio"},
        {"sim.host_ns_per_event",
         events > 0 ? plain.canonical_host_ns / events : 0.0, "ns"},
        {"cpufree.host_api_ms", sim::to_msec(plain.split.host_api), "ms"},
        {"cpufree.comm_ms", sim::to_msec(plain.split.comm), "ms"},
        {"cpufree.compute_ms", sim::to_msec(plain.split.compute), "ms"},
        {"cpufree.sync_ms", sim::to_msec(plain.split.sync), "ms"},
        {"cpufree.hidden_comm_ratio", plain.hidden_ratio_sum / runs, "ratio"},
        {"stencil.run_ms", span_ms("stencil.run"), "ms"},
        {"solvers.run_ms", span_ms("solvers.run"), "ms"},
        {"solvers.reference_ms", span_ms("solvers.reference"), "ms"},
        {"workloads.run_ms", span_ms("workloads.run"), "ms"},
        {"workloads.reference_ms", span_ms("workloads.reference"), "ms"},
        {"dacelite.frontend_ms", span_ms("dacelite.frontend"), "ms"},
        {"dacelite.pipeline_ms", span_ms("dacelite.pipeline"), "ms"},
        {"dacelite.exec_ms", span_ms("dacelite.exec"), "ms"},
        {"dacelite.verify_ms", span_ms("dacelite.verify"), "ms"},
        {"tune.tune_ms", span_ms("tune.tune"), "ms"},
        {"check.detector_share",
         on > 0.0 ? (on - probes.sum("tune.check_off_ms")) / on : 0.0,
         "ratio"},
        {"serve.fleet_ms", probe_ms("serve.fleet_ms"), "ms"},
        {"serve.isolated_ms", probe_ms("serve.isolated_ms"), "ms"},
        {"bench.self_ms", span_ms("bench.op") + span_ms("bench.pass"), "ms"},
        {"bench.trace_overhead_pct",
         traced.ops_per_s() > 0.0
             ? (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0
             : 0.0,
         "%"},
        {"serve.queue_wait_us_mean",
         plain.outcomes.mean("serve.queue_wait_us_mean"), "us"},
        {"serve.jain_fairness", plain.outcomes.mean("serve.jain_fairness"),
         "ratio"},
        {"serve.mean_slowdown", plain.outcomes.mean("serve.mean_slowdown"),
         "ratio"},
        {"serve.rejected", plain.outcomes.sum("serve.rejected"), "count"},
        {"serve.slo_attainment", slo, "ratio"},
        {"tune.space_size", plain.outcomes.mean("tune.space_size"), "count"},
        {"tune.predict_error_pct",
         plain.outcomes.mean("tune.predict_error_pct"), "%"},
        {"tune.tuned_speedup_pct", tuned, "%"},
        {"sim.speedup_pct", plain.speedup_pct(), "%"},
        {"bench.runs_per_reference", refs_shared, "ratio"},
    };
  }

  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  std::printf("error_rate %.6f (%lld failed of %lld attempted)\n", error_rate,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  for (const std::string& e : errors) std::printf("  FAIL %s\n", e.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct = failed == 0 && attempted > 0;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t t_main = perfbench::now_ns();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  return perfbench::run(args, t_main);
}
