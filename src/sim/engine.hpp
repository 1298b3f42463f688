// Deterministic discrete-event engine.
//
// The engine owns a priority queue of (time, sequence) ordered resumptions.
// Sequence numbers break timestamp ties in FIFO order, so simulations are
// exactly reproducible run-to-run. All simulated concurrency (GPU streams,
// persistent kernels, host threads, MPI ranks) is expressed as coroutines
// resumed by this engine.
//
// Two execution modes share the same API:
//
//  * Serial (default): one queue, one clock — the historical loop, unchanged
//    event for event.
//  * Sharded (enable_sharding): events are partitioned into per-shard
//    sub-engines advanced in parallel under conservative lookahead windows
//    (see sim/pdes.hpp and DESIGN.md §11). `--pdes-threads=1` never enables
//    sharding, so the serial loop stays byte-for-byte identical to history.
#pragma once

#include <algorithm>
#include <atomic>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/actor.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace sim {

class Observer;
class JobMap;
class Engine;
class Flag;

namespace pdes {
class Core;
struct ShardPlan;
}  // namespace pdes

/// Thrown by Engine::run() when the event queue drains while spawned root
/// tasks are still suspended (e.g. waiting on a flag nobody will ever set).
/// When the synchronization layers registered their open waits (see
/// Engine::note_wait_begin) the message names each stuck actor and wait
/// site; otherwise it is the bare task count.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::size_t stuck, const std::string& report = "")
      : std::runtime_error(
            report.empty()
                ? "simulation deadlock: " + std::to_string(stuck) +
                      " task(s) blocked with an empty event queue"
                : report),
        stuck_tasks(stuck) {}
  std::size_t stuck_tasks;
};

/// Shared state behind one scheduled callback. The queue entry and the
/// caller's TimerToken both point here; `alive` arbitrates cancel vs fire
/// (exactly one side wins the exchange), and the callback payload is
/// released by whichever side wins — a cancelled timer drops its captured
/// closure immediately instead of pinning it until the entry is popped.
struct TimerState {
  std::atomic<bool> alive{true};
  std::function<void()> fn;
  Engine* owner = nullptr;
  /// Queue the entry lives on: shard id when sharded, kSerialHome for the
  /// serial queue, kCoordinatorHome for the sharded coordinator queue.
  int home = -3;
  static constexpr int kSerialHome = -2;
  static constexpr int kCoordinatorHome = -1;
};

/// Cancellation handle for Engine::schedule_callback. Cancelling keeps the
/// queue entry but marks it dead: when popped it is discarded WITHOUT
/// advancing simulated time, so a rescheduled timer leaves no trace on the
/// clock. The captured callback is released at cancel() time (not at pop
/// time), and the dead entry is accounted so the engine can compact bloated
/// queues and never blames a cancelled timer in a hang report.
/// Default-constructed tokens are inert. Cancel-after-fire is a no-op.
/// Cancelling from a different shard than the one the timer lives on takes
/// effect immediately (atomic), but is only deterministic when cancel and
/// expiry are at least one lookahead window apart — every in-tree user
/// cancels from the timer's own shard.
class TimerToken {
 public:
  TimerToken() = default;
  void cancel() noexcept;  // defined after Engine (notifies the home queue)
  [[nodiscard]] bool armed() const noexcept {
    return state_ != nullptr &&
           state_->alive.load(std::memory_order_acquire);
  }

 private:
  friend class Engine;
  friend class pdes::Core;
  explicit TimerToken(std::shared_ptr<TimerState> s) : state_(std::move(s)) {}
  std::shared_ptr<TimerState> state_;
};

/// One queued resumption or callback.
struct Event {
  Nanos at = 0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle;    // null for callback events
  std::shared_ptr<TimerState> timer;  // null for resumptions
  friend bool operator>(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// Min-heap of events with dead-entry accounting. A plain vector heap (not
/// std::priority_queue) so cancelled timers can be dropped off the top
/// lazily and compacted in place when they accumulate — long fault soaks and
/// shared-link-heavy topo runs reschedule timers constantly.
class EventQueue {
 public:
  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  /// Drops cancelled entries off the top, then returns the earliest live
  /// event (nullptr when none remain). This is the "drain dead entries"
  /// step: emptiness checks and hang reports go through here, so a root
  /// blocked behind cancelled-but-unpopped callbacks is never miscounted as
  /// having pending work.
  const Event* peek_live() {
    while (!heap_.empty()) {
      const Event& top = heap_.front();
      if (top.timer != nullptr &&
          !top.timer->alive.load(std::memory_order_acquire)) {
        (void)pop();
        dead_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      return &top;
    }
    return nullptr;
  }

  /// A timer living in this queue was cancelled (called from TimerToken).
  void note_cancel() noexcept { dead_.fetch_add(1, std::memory_order_relaxed); }

  /// The executor popped an entry whose cancel landed between peek and pop
  /// (possible only under sharding, where cancel may come from another
  /// worker) — rebalance the dead-entry count.
  void note_popped_dead() noexcept {
    dead_.fetch_sub(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t dead_count() const noexcept {
    return dead_.load(std::memory_order_relaxed);
  }

  /// Removes all cancelled entries when they dominate the queue, so a run
  /// that parks many timers (ledger reschedules, watchdogs) keeps its queue
  /// proportional to live work. Heap order is rebuilt; (at, seq) pop order
  /// is unaffected.
  void compact_if_bloated() {
    const std::size_t dead = dead_.load(std::memory_order_relaxed);
    if (dead < 64 || dead * 2 < heap_.size()) return;
    std::erase_if(heap_, [](const Event& e) {
      return e.timer != nullptr &&
             !e.timer->alive.load(std::memory_order_acquire);
    });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    dead_.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<Event> heap_;
  /// Cancelled entries still in the heap. Atomic: under sharding a token
  /// may be cancelled from another worker thread.
  std::atomic<std::size_t> dead_{0};
};

class Engine {
 public:
  Engine();  // out of line: members need pdes::Core complete
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time (of the calling execution context when sharded).
  [[nodiscard]] Nanos now() const noexcept {
    return core_ != nullptr ? sharded_now() : now_;
  }

  /// Schedules a raw coroutine resumption `delay` ns from now.
  void schedule(std::coroutine_handle<> h, Nanos delay = 0);

  /// Schedules a resumption at the current instant on the queue that parked
  /// it (`home` from context_shard() at park time). The wake primitive for
  /// synchronization objects whose setter may run outside the waiter's
  /// shard (ledger completion flags, global barriers). Serial engines
  /// ignore `home`.
  void schedule_to(int home, std::coroutine_handle<> h);

  /// Schedules a plain callback `delay` ns from now and returns a token that
  /// can cancel it. Cancelled entries are dropped when popped without
  /// advancing the clock — the primitive behind re-schedulable timers (the
  /// link ledger moves its next-completion wake both earlier and later as
  /// transfers start and finish). Callbacks run at (time, seq) order like
  /// coroutine resumptions and may schedule further work, but must not call
  /// Engine::run(). When sharded the timer lives on the calling shard's
  /// queue; its effects must stay on that shard.
  TimerToken schedule_callback(std::function<void()> fn, Nanos delay);

  /// Detaches `t` as a root process; it starts at the current simulated time
  /// (after already-queued events with the same timestamp). When sharded the
  /// root joins the calling context's shard (shard 0 before run()).
  void spawn(Task t);

  /// Awaitable that suspends the caller for `d` simulated nanoseconds.
  struct DelayAwaiter {
    Engine& engine;
    Nanos duration;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine.schedule(h, duration); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(Nanos d) { return DelayAwaiter{*this, d}; }

  /// Reschedules the caller at the current time, behind pending same-time
  /// events. Useful to model "check again after everyone else acted".
  [[nodiscard]] DelayAwaiter yield() { return delay(0); }

  /// Runs until the event queue is empty. Rethrows the first exception that
  /// escaped a root task; throws DeadlockError if root tasks remain blocked.
  void run();

  /// Number of spawned root tasks that have not yet completed.
  [[nodiscard]] std::size_t live_tasks() const noexcept;

  [[nodiscard]] Trace& trace() noexcept;
  [[nodiscard]] const Trace& trace() const noexcept;

  /// Attaches (or detaches, with nullptr) an execution observer. The
  /// observer receives the events published by the vgpu/vshmem/exec layers;
  /// it never affects simulated time. Observers are single-threaded: a
  /// sharded engine with an observer attached runs its rounds on one worker
  /// (see force_serial_rounds).
  void set_observer(Observer* observer) noexcept { observer_ = observer; }
  [[nodiscard]] Observer* observer() const noexcept { return observer_; }

  // --- sharded execution (sim/pdes.hpp) ------------------------------------

  /// Switches this engine to sharded (parallel) execution. Must be called
  /// before the first spawn/schedule. `lookahead` is the conservative window
  /// width: the minimum simulated latency of any cross-shard interaction,
  /// i.e. no event executed on shard A at time t may require an effect on
  /// shard B before t + lookahead. Callers derive it from the topology's
  /// minimum link latency. `threads` is the worker cap; shard count comes
  /// from the plan.
  void enable_sharding(const pdes::ShardPlan& plan, int threads,
                       Nanos lookahead);
  [[nodiscard]] bool sharded() const noexcept { return core_ != nullptr; }

  /// Collapses a sharded engine's rounds to a single worker while keeping
  /// the sharded round algorithm (and therefore its deterministic message
  /// order) — used when a layer with zero-lookahead cross-shard coupling is
  /// active: an attached observer, an enabled fault schedule (resilience
  /// protocols read sender-side shadows), functional-payload delivery, or
  /// hostmpi mailbox matching. Results are then identical for every
  /// --pdes-threads value by construction. No-op on a serial engine.
  void force_serial_rounds() noexcept;

  /// Declares (or withdraws) a zero-lookahead data coupling between shards:
  /// delivery callbacks copy payload bytes another shard may concurrently
  /// mutate (vshmem functional mode). While set, rounds run on one worker —
  /// same algorithm, same results. Toggleable, unlike force_serial_rounds
  /// (benchmarks switch functional mode off for timed runs). No-op when
  /// serial.
  void set_data_coupled(bool on) noexcept;

  /// Strongest fallback: single-worker rounds with one-nanosecond windows,
  /// for layers whose cross-shard coupling has zero simulated latency at
  /// unpredictable instants (hostmpi mailbox matching). No-op when serial.
  void require_lockstep() noexcept;

  /// Shard that `device`'s events run on (kSerialHome when not sharded).
  [[nodiscard]] int shard_of_device(int device) const noexcept;

  /// Shard of the calling execution context (TimerState::kCoordinatorHome
  /// from coordinator context, kSerialHome when not sharded).
  [[nodiscard]] int context_shard() const noexcept;

  /// Spawns `t` as a root on a specific shard (serial: plain spawn).
  void spawn_on(int shard, Task t);

  /// Delivers `fn` on `shard` at absolute time `at`. This is the timestamped
  /// inter-shard message of DESIGN §11: messages are merged into the target
  /// shard at window boundaries in (time, source shard, source sequence)
  /// order. `at` must be at least one lookahead window ahead of the calling
  /// shard's clock; violations throw (they would be causality bugs).
  /// On a serial engine this is schedule_callback at (at - now), dropped-
  /// token semantics.
  void schedule_cross(int shard, Nanos at, std::function<void()> fn);

  /// schedule_callback on the coordinator queue: for timers whose callback
  /// touches cross-shard state (the link ledger's completion wake). The
  /// coordinator runs between windows, and pending coordinator timers cap
  /// the window end, so such callbacks are never late. Serial: plain
  /// schedule_callback.
  TimerToken schedule_callback_global(std::function<void()> fn, Nanos delay);

  /// Runs `fn` in the next serialized phase at the caller's current time
  /// (immediately on a serial engine). Global ops across shards execute in
  /// (time, source shard, source sequence) order; the posting shard stops
  /// draining its window so the op may wake it at the posting instant.
  void post_global(std::function<void()> fn);

  /// `co_await engine.global_gate()` — suspends the calling coroutine and
  /// resumes it in the serialized phase (same simulated instant, coordinator
  /// thread), where it may freely touch cross-shard state until its next
  /// suspension. No-op on a serial engine.
  struct GateAwaiter {
    Engine& engine;
    bool await_ready() const noexcept { return !engine.sharded(); }
    void await_suspend(std::coroutine_handle<> h) { engine.post_gate(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] GateAwaiter global_gate() { return GateAwaiter{*this}; }

  // --- open-wait registry (hang attribution without a checker) -------------
  //
  // The synchronization layers (KernelCtx::spin_wait, World::quiet, ...)
  // register every blocking wait here and withdraw it on completion. If the
  // event queue then drains with live tasks, run() names each stuck actor
  // and wait site in the DeadlockError instead of exiting with open tasks
  // unreported. This mirrors check::DeadlockAnalyzer's attribution strings
  // but is always on — no observer required — and costs one map insert/erase
  // per wait. Cancelled timers are drained from the queues before the report
  // is composed, so a dead callback is never counted as pending work.

  /// One open blocking wait: `who` waits at site `what` until
  /// `flag <cmp> rhs` holds. Stored as typed fields; describe_wait_site
  /// renders the actor, the predicate and the flag's current value only
  /// when a hang report is built. `flag` must outlive the registration.
  struct WaitSite {
    Actor who;         ///< waiting actor, e.g. pe1/k0.g2
    std::string what;  ///< wait-site name, e.g. "signal_wait"
    const Flag* flag = nullptr;
    Cmp cmp = Cmp::kGe;
    std::int64_t rhs = 0;
  };
  using WaitToken = std::uint64_t;

  [[nodiscard]] WaitToken note_wait_begin(WaitSite site);
  void note_wait_end(WaitToken token);

  /// Names a flag for hang reports (the registry-side twin of
  /// Observer::on_flag_name; filled in unconditionally by the allocating
  /// layers).
  void name_flag(const void* flag, std::string name) {
    flag_names_[flag] = std::move(name);
  }
  [[nodiscard]] std::string flag_name(const void* flag) const;

  /// Attaches the actor->job label map of an active multi-tenant serve run
  /// (nullptr detaches). Hang reports then name the owning job of each stuck
  /// wait. Attribution only; never consulted for scheduling.
  void set_job_map(const JobMap* jobs) noexcept { job_map_ = jobs; }
  [[nodiscard]] const JobMap* job_map() const noexcept { return job_map_; }

  /// Multi-line description of every open registered wait ("" when none).
  [[nodiscard]] std::string describe_open_waits() const;

  /// Renders one wait site in the hang-report format (shared with the
  /// sharded core's per-shard registries).
  [[nodiscard]] std::string describe_wait_site(const WaitSite& site) const;

  // --- incident log (fail-stop attribution) --------------------------------
  //
  // Permanent events that change what the simulation can ever complete — a
  // device declared dead, a link severed, a tenant evicted — are recorded
  // here by the fault/serve layers. The log is appended to hang reports so
  // a DeadlockError caused by dead hardware names the hardware, not just
  // the starved waiters. Recording is attribution only: it never affects
  // scheduling, and an empty log leaves every report byte-identical.

  /// Appends one line to the incident log (chronological order — appends
  /// happen in deterministic event order, lockstep when sharded).
  void note_incident(std::string line) {
    incidents_.push_back(std::move(line));
  }
  [[nodiscard]] const std::vector<std::string>& incidents() const noexcept {
    return incidents_;
  }

  /// The incident log rendered for a hang report ("" when empty).
  [[nodiscard]] std::string describe_incidents() const;

 private:
  friend struct Task::FinalAwaiter;
  friend class pdes::Core;
  void on_root_done(Task::Handle h);

  [[nodiscard]] Nanos sharded_now() const noexcept;
  void post_gate(std::coroutine_handle<> h);

  EventQueue queue_;
  std::vector<Task::Handle> roots_;
  std::vector<Task::Handle> finished_;
  std::exception_ptr error_;
  Trace trace_;
  Observer* observer_ = nullptr;
  const JobMap* job_map_ = nullptr;
  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_roots_ = 0;

  std::unique_ptr<pdes::Core> core_;

  std::map<WaitToken, WaitSite> open_waits_;
  std::map<const void*, std::string> flag_names_;
  std::uint64_t next_wait_token_ = 0;
  std::vector<std::string> incidents_;

  void reap_finished();
  /// Routes a cancel notification to the queue holding the timer.
  void on_timer_cancelled(int home) noexcept;
  friend class TimerToken;
};

inline void TimerToken::cancel() noexcept {
  if (state_ == nullptr) return;
  // Exactly one of {cancel, fire} wins the exchange; the loser is a no-op.
  // Winning cancel releases the captured closure right here — the queue
  // entry it leaves behind is an empty husk dropped on pop or compaction.
  if (state_->alive.exchange(false, std::memory_order_acq_rel)) {
    state_->fn = nullptr;
    if (state_->owner != nullptr) {
      state_->owner->on_timer_cancelled(state_->home);
    }
  }
}

}  // namespace sim
