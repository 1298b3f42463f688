#include "serve/server.hpp"

#include <cmath>
#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "check/detector.hpp"
#include "serve/workload.hpp"
#include "sim/engine.hpp"
#include "vgpu/machine.hpp"

namespace serve {

namespace {

/// Every field an isolated baseline run reads, compared exactly.
struct IsolatedKey {
  JobKind kind;
  std::size_t nx;
  std::size_t ny;
  int iterations;
  int skew;
  double imbalance;
  int threads_per_block;
  int checkpoint_every;
  int blocks_per_device;
  std::vector<int> devices;
  auto operator<=>(const IsolatedKey&) const = default;
};

struct JobState {
  JobSpec spec;
  JobOutcome out;
  std::string label;
  Placement place;
  std::unique_ptr<Workload> work;
  /// Restart seed carried between a job's abort and its recovery attempt.
  ResumeState resume;
};

std::string job_label(const JobSpec& spec) {
  // Built with += rather than operator+ chains: GCC 12 raises a -Wrestrict
  // false positive on concatenation into a temporary here.
  std::string l = "j";
  l += std::to_string(spec.id);
  l += ':';
  l += spec.tenant;
  l += ':';
  l += name(spec.kind);
  return l;
}

class Server {
 public:
  Server(const ServeConfig& cfg, std::vector<JobSpec> jobs)
      : cfg_(cfg), machine_(cfg.machine), admit_(cfg.machine, cfg.policy) {
    machine_.trace().set_enabled(false);
    machine_.engine().set_observer(cfg.observer);
    machine_.engine().set_job_map(&job_map_);
    if (auto* det = dynamic_cast<check::Detector*>(cfg.observer)) {
      det->set_job_map(&job_map_);
    }
    if (cfg.arrival.mode == ArrivalConfig::Mode::kClosed) {
      max_running_ = cfg.arrival.concurrency;
    }
    jobs_.reserve(jobs.size());
    for (JobSpec& j : jobs) {
      JobState st;
      st.label = job_label(j);
      st.spec = std::move(j);
      if (cfg.checkpoint_every > 0 && st.spec.checkpoint_every == 0) {
        st.spec.checkpoint_every = cfg.checkpoint_every;
      }
      jobs_.push_back(std::move(st));
    }
    arrivals_ = arrival_times(cfg.arrival, static_cast<int>(jobs_.size()));
  }

  ServeReport run() {
    machine_.engine().spawn(dispatcher());
    try {
      machine_.engine().run();
    } catch (const sim::DeadlockError& e) {
      // The engine already published its attributed hang report (stuck
      // actors carry job labels via the job map, and the incident log names
      // dead hardware and evicted tenants). Jobs that never reached their
      // end keep completed=false below.
      hang_report_ = e.what();
    }
    return report();
  }

 private:
  sim::Engine& eng() { return machine_.engine(); }

  sim::Task dispatcher() {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const sim::Nanos at = arrivals_[i];
      if (at > eng().now()) co_await eng().delay(at - eng().now());
      JobState& js = jobs_[i];
      js.out.arrival = eng().now();
      std::string why = validate(js.spec);
      if (why.empty() && !admit_.feasible(js.spec)) {
        why = "exceeds machine capacity";
      }
      if (!why.empty()) {
        js.out.detail = "rejected: ";
        js.out.detail += why;
        continue;
      }
      queue_.push_back(i);
      try_admit();
    }
  }

  /// FIFO, no bypass: only the queue head is considered, so a large job
  /// blocks later small ones (head-of-line blocking keeps admission order
  /// — and therefore the whole run — deterministic).
  void try_admit() {
    while (!queue_.empty()) {
      if (max_running_ > 0 && running_ >= max_running_) break;
      const std::size_t i = queue_.front();
      if (machine_.faults().hard_enabled() &&
          !admit_.feasible(jobs_[i].spec)) {
        // The fleet shrank under the queue: a head that can never place
        // again must not wedge FIFO admission forever.
        mark_lost(jobs_[i], "lost: no feasible placement on surviving devices");
        queue_.pop_front();
        continue;
      }
      auto p = admit_.try_place(jobs_[i].spec);
      if (!p) break;
      queue_.pop_front();
      jobs_[i].place = std::move(*p);
      ++running_;
      eng().spawn(run_job(i));
    }
  }

  /// Attempt-qualified world/stream label, so checker and hang reports can
  /// tell a recovery run from the original.
  std::string attempt_label(const JobState& js) const {
    std::string l = js.label;
    if (js.out.attempts > 1) {
      l += "#a";
      l += std::to_string(js.out.attempts);
    }
    return l;
  }

  /// Mirrors the fault plane's fail-stop verdicts into the admission
  /// controller so future placements avoid dead devices.
  void sync_dead_devices() {
    if (!machine_.faults().hard_enabled()) return;
    for (const auto& kv : machine_.faults().dead_devices()) {
      admit_.mark_device_dead(kv.first);
    }
  }

  void mark_lost(JobState& js, std::string why) {
    js.out.end = eng().now();
    js.out.lost = true;
    js.out.completed = false;
    js.out.detail = std::move(why);
  }

  sim::Task run_job(std::size_t i) {
    JobState& js = jobs_[i];
    // A device can die between window selection and stream creation (the
    // placement raced the failure): re-check before anything is built and
    // re-queue at the HEAD — the job never started, so it keeps its FIFO
    // position and is neither wedged nor double-counted as admitted.
    if (machine_.faults().hard_enabled()) {
      sync_dead_devices();
      bool hit = false;
      for (int d : js.place.devices) {
        if (machine_.faults().device_dead(d)) hit = true;
      }
      if (hit) {
        admit_.release(js.place);
        ++requeues_;
        if (admit_.feasible(js.spec)) {
          queue_.push_front(i);
        } else {
          mark_lost(js,
                    "lost: placement raced a device death and no feasible "
                    "placement survives");
        }
        --running_;
        try_admit();
        co_return;
      }
    }
    if (!js.out.admitted) {
      js.out.admitted = true;
      js.out.admit = eng().now();
    } else if (js.out.attempts > 1 && js.out.resumed_at == 0) {
      js.out.resumed_at = eng().now();
    }
    js.out.first_device = js.place.devices.front();
    js.out.blocks_per_device = js.place.blocks_per_device;
    js.work = make_workload(machine_, js.spec, js.place, attempt_label(js),
                            &job_map_,
                            js.resume.iteration > 0 ? &js.resume : nullptr);
    co_await js.work->task();
    if (js.work->aborted()) {
      handle_abort(i);
      co_return;
    }
    js.out.end = eng().now();
    js.out.completed = true;
    js.out.verified = js.work->verify();
    js.out.detail = js.work->detail();
    // The workload (and its World) must outlive the shared run: nbi halo
    // puts from a job's final iteration can still be in flight when the
    // task completes, and their completion callbacks touch the World.
    // Workloads are torn down with the server, after the engine drains.
    admit_.release(js.place);
    --running_;
    try_admit();
  }

  /// Job-level failover. The aborted task already drained cooperatively
  /// (dead groups skip-join to the end), so the slice can be released and
  /// the job re-queued to restart from its newest complete checkpoint on
  /// whatever devices survive.
  void handle_abort(std::size_t i) {
    JobState& js = jobs_[i];
    if (js.out.aborted_at == 0) js.out.aborted_at = eng().now();
    sync_dead_devices();
    admit_.release(js.place);
    --running_;
    // Keep the dead attempt's workload (and its World) alive until the
    // server tears down: in-flight nbi puts' completion callbacks touch it.
    Workload* w = js.work.get();
    graveyard_.push_back(std::move(js.work));

    // Progress the failure destroyed: everything past the checkpoint the
    // recovery will restore (or everything, when nothing can be restored).
    // The kill iteration K means iterations 1..K-1 committed on the dying
    // device; link deaths carry no per-device iteration, so count 0.
    std::int64_t progress = 0;
    for (int d : js.place.devices) {
      const std::int64_t k = machine_.faults().device_kill_iteration(d);
      if (k > 0 && k - 1 > progress) progress = k - 1;
    }
    std::string reason = w->abort_reason();
    if (!w->restartable()) {
      js.out.lost_iterations += progress;
      std::string d = "lost: ";
      d += reason;
      d += "; no checkpointing configured";
      mark_lost(js, std::move(d));
      try_admit();
      return;
    }
    if (!admit_.feasible(js.spec)) {
      js.out.lost_iterations += progress;
      std::string d = "lost: ";
      d += reason;
      d += "; no feasible placement on surviving devices";
      mark_lost(js, std::move(d));
      try_admit();
      return;
    }
    const int from = w->resume_iteration();
    js.resume.iteration = from;
    js.resume.state =
        from > 0 ? w->resume_state() : std::vector<double>{};
    js.out.restarted_from = from;
    if (progress > from) js.out.lost_iterations += progress - from;
    js.out.replayed_iterations += js.spec.iterations - from;
    ++js.out.attempts;
    queue_.push_back(i);
    try_admit();
  }

  /// Isolated baseline: the identical job alone on an idle, fault-free,
  /// serial copy of the machine model, on the same device tuple (the tuple
  /// matters on multi-node topologies). Deduplicated by every field the run
  /// reads. Only the simulated time is read, so the run is timing-only
  /// unless the completed fleet run says its schedule reads computed values.
  sim::Nanos isolated_ns(const JobState& js) {
    IsolatedKey key{js.spec.kind,
                    js.spec.nx,
                    js.spec.ny,
                    js.spec.iterations,
                    js.spec.skew,
                    js.spec.imbalance,
                    js.spec.threads_per_block,
                    js.spec.checkpoint_every,
                    js.place.blocks_per_device,
                    js.place.devices};
    auto it = isolated_cache_.find(key);
    if (it != isolated_cache_.end()) return it->second;

    vgpu::MachineSpec spec = cfg_.machine;
    spec.faults = fault::Config{};
    vgpu::Machine m(spec);
    m.trace().set_enabled(false);
    JobSpec iso = js.spec;
    iso.faulty = false;
    std::string iso_label = "iso:";
    iso_label += js.label;
    auto work = make_workload(m, iso, js.place, iso_label, nullptr, nullptr,
                              js.work->schedule_reads_values());
    m.engine().spawn(work->task());
    m.engine().run();
    const sim::Nanos t = m.engine().now();
    isolated_cache_.emplace(std::move(key), t);
    return t;
  }

  ServeReport report() {
    ServeReport rep;
    rep.fleet.jobs = static_cast<int>(jobs_.size());
    rep.fleet.fleet_makespan_us = sim::to_usec(eng().now());
    rep.fleet.requeues = requeues_;
    rep.hang_report = hang_report_;
    double wait_sum = 0.0;
    int admitted = 0;
    double sd_sum = 0.0, sd_sq = 0.0;
    int sd_n = 0;
    long long useful = 0;
    double rec_sum = 0.0;
    int rec_n = 0;
    for (JobState& js : jobs_) {
      JobRecord rec;
      rec.spec = js.spec;
      rec.out = js.out;
      if (!js.out.admitted) {
        ++rep.fleet.rejected;
      } else {
        ++admitted;
        wait_sum += sim::to_usec(js.out.queue_wait());
      }
      if (js.out.completed) {
        ++rep.fleet.completed;
        if (js.out.verified) ++rep.fleet.verified;
        if (cfg_.compute_isolated) {
          const sim::Nanos iso = isolated_ns(js);
          rec.isolated_us = sim::to_usec(iso);
          rec.slowdown = iso > 0 ? static_cast<double>(js.out.makespan()) /
                                       static_cast<double>(iso)
                                 : 0.0;
          rec.slo_met =
              static_cast<double>(js.out.end - js.out.arrival) <=
              js.spec.slo_factor * static_cast<double>(iso);
          if (rec.slo_met) ++rep.fleet.slo_met;
          sd_sum += rec.slowdown;
          sd_sq += rec.slowdown * rec.slowdown;
          ++sd_n;
          if (rec.slowdown > rep.fleet.max_slowdown) {
            rep.fleet.max_slowdown = rec.slowdown;
          }
        }
      }
      rep.fleet.failovers += js.out.attempts - 1;
      if (js.out.lost) ++rep.fleet.jobs_lost;
      rep.fleet.lost_iterations += js.out.lost_iterations;
      rep.fleet.replayed_iterations += js.out.replayed_iterations;
      if (js.out.resumed_at > 0) {
        rec_sum += sim::to_usec(js.out.recovery_latency());
        ++rec_n;
      }
      if (js.out.completed && js.out.verified) useful += js.spec.iterations;
      rep.jobs.push_back(std::move(rec));
    }
    if (admitted > 0) rep.fleet.mean_queue_wait_us = wait_sum / admitted;
    if (sd_n > 0) {
      rep.fleet.mean_slowdown = sd_sum / sd_n;
      rep.fleet.jain_fairness =
          sd_sq > 0.0 ? (sd_sum * sd_sum) / (sd_n * sd_sq) : 1.0;
    }
    if (rec_n > 0) rep.fleet.mean_recovery_latency_us = rec_sum / rec_n;
    // Exact executed-iteration accounting: a recovered job re-runs exactly
    // what the failure destroyed on top of its useful length, so executed
    // work = useful + lost (lost jobs contribute only lost work).
    const long long executed = useful + rep.fleet.lost_iterations;
    rep.fleet.goodput = executed > 0 ? static_cast<double>(useful) /
                                           static_cast<double>(executed)
                                     : 1.0;
    return rep;
  }

  ServeConfig cfg_;
  vgpu::Machine machine_;
  sim::JobMap job_map_;
  AdmissionController admit_;
  std::vector<JobState> jobs_;
  std::vector<sim::Nanos> arrivals_;
  std::deque<std::size_t> queue_;
  std::map<IsolatedKey, sim::Nanos> isolated_cache_;
  /// Aborted attempts' workloads, kept alive until the engine drains.
  std::deque<std::unique_ptr<Workload>> graveyard_;
  std::string hang_report_;
  int requeues_ = 0;
  int running_ = 0;
  int max_running_ = 0;  // 0 = unbounded (open loop)
};

}  // namespace

ServeReport run_serve(const ServeConfig& config, std::vector<JobSpec> jobs) {
  Server server(config, std::move(jobs));
  return server.run();
}

}  // namespace serve
