#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/observe.hpp"
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

Engine::~Engine() {
  // Destroy still-suspended root frames (e.g. after an exception unwound
  // run()). Finished frames first, then live ones.
  reap_finished();
  for (auto h : roots_) {
    if (h) h.destroy();
  }
}

TimerToken Engine::schedule_callback(std::function<void()> fn, Nanos delay) {
  auto state = std::make_shared<TimerState>();
  state->fn = std::move(fn);
  state->owner = this;
  queue_.push(Event{now_ + delay, next_seq_++, nullptr, state});
  return TimerToken{std::move(state)};
}

void Engine::spawn(Task t) {
  Task::Handle h = t.release();
  if (!h) return;
  h.promise().owner = this;
  roots_.push_back(h);
  ++live_roots_;
  schedule(h, 0);
}

void Engine::on_root_done(Task::Handle h) {
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
  while (queue_.peek_live() != nullptr) {
    Event ev = queue_.pop();
    now_ = ev.at;
    if (ev.timer != nullptr) {
      // peek_live already dropped cancelled entries, so this timer is live:
      // firing disarms it and releases the payload.
      ev.timer->alive = false;
      auto fn = std::move(ev.timer->fn);
      ev.timer->fn = nullptr;
      fn();
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
  const WaitToken t = ++next_wait_token_;
  open_waits_.emplace(t, std::move(site));
  return t;
}

void Engine::note_wait_end(WaitToken token) {
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
