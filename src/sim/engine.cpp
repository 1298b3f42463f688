#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/observe.hpp"
#include "sim/pdes.hpp"
#include "sim/sync.hpp"

namespace sim {

std::coroutine_handle<> Task::FinalAwaiter::await_suspend(Handle h) noexcept {
  auto& p = h.promise();
  if (p.continuation) {
    // Awaited subtask: transfer control straight back to the awaiter. The
    // awaiting coroutine owns the Task object and will destroy the frame.
    return p.continuation;
  }
  if (p.owner != nullptr) {
    p.owner->on_root_done(h);
  }
  return std::noop_coroutine();
}

Engine::Engine() = default;

Engine::~Engine() {
  // Destroy still-suspended root frames (e.g. after an exception unwound
  // run()). Finished frames first, then live ones. Sharded roots are owned
  // by the Core's shards and destroyed with it.
  reap_finished();
  for (auto h : roots_) {
    if (h) h.destroy();
  }
}

void Engine::schedule(std::coroutine_handle<> h, Nanos delay) {
  if (core_ != nullptr) {
    core_->schedule(h, delay);
    return;
  }
  queue_.push(Event{now_ + delay, next_seq_++, h, nullptr});
}

TimerToken Engine::schedule_callback(std::function<void()> fn, Nanos delay) {
  if (core_ != nullptr) return core_->schedule_callback(std::move(fn), delay);
  auto state = std::make_shared<TimerState>();
  state->fn = std::move(fn);
  state->owner = this;
  state->home = TimerState::kSerialHome;
  queue_.push(Event{now_ + delay, next_seq_++, nullptr, state});
  return TimerToken{std::move(state)};
}

TimerToken Engine::schedule_callback_global(std::function<void()> fn,
                                            Nanos delay) {
  if (core_ != nullptr) {
    return core_->schedule_callback_global(std::move(fn), delay);
  }
  return schedule_callback(std::move(fn), delay);
}

void Engine::spawn(Task t) {
  if (core_ != nullptr) {
    core_->spawn(std::move(t));
    return;
  }
  Task::Handle h = t.release();
  if (!h) return;
  h.promise().owner = this;
  roots_.push_back(h);
  ++live_roots_;
  schedule(h, 0);
}

void Engine::spawn_on(int shard, Task t) {
  if (core_ != nullptr) {
    core_->spawn_on(shard, std::move(t));
    return;
  }
  spawn(std::move(t));
}

void Engine::schedule_cross(int shard, Nanos at, std::function<void()> fn) {
  if (core_ != nullptr) {
    core_->schedule_cross(shard, at, std::move(fn));
    return;
  }
  (void)schedule_callback(std::move(fn), at - now_);
}

void Engine::post_global(std::function<void()> fn) {
  if (core_ != nullptr) {
    core_->post_global(std::move(fn));
    return;
  }
  fn();
}

void Engine::post_gate(std::coroutine_handle<> h) {
  // GateAwaiter::await_ready short-circuits serial engines.
  core_->post_gate(h);
}

void Engine::schedule_to(int home, std::coroutine_handle<> h) {
  if (core_ != nullptr) {
    core_->schedule_to(home, h);
    return;
  }
  schedule(h, 0);
}

void Engine::enable_sharding(const pdes::ShardPlan& plan, int threads,
                             Nanos lookahead) {
  if (core_ != nullptr) {
    throw std::logic_error("Engine::enable_sharding called twice");
  }
  if (next_seq_ != 0 || !roots_.empty() || now_ != 0) {
    throw std::logic_error(
        "Engine::enable_sharding after work was already scheduled");
  }
  if (plan.num_shards < 1) {
    throw std::invalid_argument("ShardPlan.num_shards must be >= 1");
  }
  core_ = std::make_unique<pdes::Core>(*this, plan, threads, lookahead);
}

void Engine::force_serial_rounds() noexcept {
  if (core_ != nullptr) core_->force_serial();
}

void Engine::require_lockstep() noexcept {
  if (core_ != nullptr) core_->require_lockstep();
}

void Engine::set_data_coupled(bool on) noexcept {
  if (core_ != nullptr) core_->set_data_coupled(on);
}

int Engine::shard_of_device(int device) const noexcept {
  return core_ != nullptr ? core_->shard_of_device(device)
                          : TimerState::kSerialHome;
}

int Engine::context_shard() const noexcept {
  return core_ != nullptr ? core_->ctx_shard() : TimerState::kSerialHome;
}

Nanos Engine::sharded_now() const noexcept { return core_->ctx_now(); }

std::size_t Engine::live_tasks() const noexcept {
  return core_ != nullptr ? core_->live_tasks() : live_roots_;
}

Trace& Engine::trace() noexcept {
  return core_ != nullptr ? core_->ctx_trace() : trace_;
}

const Trace& Engine::trace() const noexcept {
  return core_ != nullptr ? core_->ctx_trace() : trace_;
}

void Engine::on_timer_cancelled(int home) noexcept {
  if (home == TimerState::kSerialHome) {
    queue_.note_cancel();
    return;
  }
  if (core_ != nullptr) core_->note_cancel(home);
}

void Engine::on_root_done(Task::Handle h) {
  if (core_ != nullptr) {
    core_->on_root_done(h);
    return;
  }
  finished_.push_back(h);
  --live_roots_;
  if (!error_ && h.promise().exception) {
    error_ = h.promise().exception;
  }
}

void Engine::reap_finished() {
  for (auto h : finished_) {
    std::erase(roots_, h);
    h.destroy();
  }
  finished_.clear();
}

void Engine::run() {
  if (core_ != nullptr) {
    try {
      core_->run();
    } catch (const DeadlockError& e) {
      // The sharded core composed its report from the per-shard wait
      // registries; graft the incident log on so dead hardware is named.
      const std::string inc = describe_incidents();
      if (inc.empty()) throw;
      throw DeadlockError(e.stuck_tasks, std::string(e.what()) + inc);
    }
    return;
  }
  while (queue_.peek_live() != nullptr) {
    Event ev = queue_.pop();
    now_ = ev.at;
    if (ev.timer != nullptr) {
      // Exactly one of {fire, cancel} wins the exchange; the winner owns
      // (and releases) the payload. peek_live already skipped entries whose
      // cancel had landed.
      if (ev.timer->alive.exchange(false, std::memory_order_acq_rel)) {
        auto fn = std::move(ev.timer->fn);
        ev.timer->fn = nullptr;
        fn();
      } else {
        queue_.note_popped_dead();
      }
    } else {
      ev.handle.resume();
    }
    queue_.compact_if_bloated();
    reap_finished();
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }
  if (live_roots_ != 0) {
    // The queue was drained through peek_live, so cancelled-but-unpopped
    // callbacks are gone: the hang is real, not a dead timer. Give an
    // attached checker the chance to turn the bare hang into a wait-for
    // diagnosis before the exception unwinds everything; the always-on
    // open-wait registry names stuck actors even without one.
    if (observer_ != nullptr) observer_->on_deadlock(live_roots_);
    std::string report = describe_open_waits();
    report += describe_incidents();
    if (!report.empty()) {
      report = "simulation deadlock: " + std::to_string(live_roots_) +
               " task(s) blocked with an empty event queue" + report;
    }
    throw DeadlockError(live_roots_, report);
  }
}

Engine::WaitToken Engine::note_wait_begin(WaitSite site) {
  if (core_ != nullptr) return core_->note_wait_begin(std::move(site));
  const WaitToken t = ++next_wait_token_;
  open_waits_.emplace(t, std::move(site));
  return t;
}

void Engine::note_wait_end(WaitToken token) {
  if (core_ != nullptr) {
    core_->note_wait_end(token);
    return;
  }
  open_waits_.erase(token);
}

std::string Engine::flag_name(const void* flag) const {
  auto it = flag_names_.find(flag);
  if (it != flag_names_.end() && !it->second.empty()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "<flag@%p>", flag);
  return buf;
}

std::string Engine::describe_wait_site(const WaitSite& site) const {
  std::string out = "\n  ";
  out += site.who.str();
  if (job_map_ != nullptr) out += job_map_->suffix(site.who);
  out += " blocked on " + site.what + ": " + flag_name(site.flag) + " " +
         cmp_str(site.cmp) + " " + std::to_string(site.rhs) + "; value " +
         std::to_string(site.flag->value());
  return out;
}

std::string Engine::describe_open_waits() const {
  if (core_ != nullptr) return core_->describe_open_waits();
  std::string out;
  for (const auto& [token, site] : open_waits_) {
    out += describe_wait_site(site);
  }
  return out;
}

std::string Engine::describe_incidents() const {
  std::string out;
  for (const std::string& line : incidents_) {
    out += "\n  incident: ";
    out += line;
  }
  return out;
}

}  // namespace sim
