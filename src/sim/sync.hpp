// Synchronization primitives for simulated processes.
//
// Flag is the workhorse: NVSHMEM signal variables, CUDA event state, stream
// progress counters, and in-kernel spin flags are all Flags. A Flag holds a
// 64-bit value; waiters park with a comparison predicate and are resumed at
// the simulated instant a mutation satisfies it, which models a device-side
// busy-wait that notices the store immediately (poll granularity can be added
// by the caller via Engine::delay).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sim {

class Flag {
 public:
  explicit Flag(Engine& engine, std::int64_t initial = 0)
      : engine_(&engine), value_(initial) {}

  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  [[nodiscard]] Engine& engine() const noexcept { return *engine_; }

  void set(std::int64_t v) {
    value_ = v;
    wake_satisfied();
  }
  void add(std::int64_t d) { set(value_ + d); }

  struct WaitAwaiter {
    Flag& flag;
    Cmp cmp;
    std::int64_t rhs;
    bool await_ready() const noexcept { return compare(cmp, flag.value_, rhs); }
    void await_suspend(std::coroutine_handle<> h) {
      (void)flag.park(cmp, rhs, h);
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until `value() <cmp> rhs` holds (returns immediately if it
  /// already does).
  [[nodiscard]] WaitAwaiter wait(Cmp cmp, std::int64_t rhs) {
    return WaitAwaiter{*this, cmp, rhs};
  }
  [[nodiscard]] WaitAwaiter wait_geq(std::int64_t rhs) { return wait(Cmp::kGe, rhs); }
  [[nodiscard]] WaitAwaiter wait_eq(std::int64_t rhs) { return wait(Cmp::kEq, rhs); }

  /// Watchdog-guarded wait: resumes when the predicate holds OR after
  /// `timeout` simulated ns, whichever comes first. `co_await` yields true
  /// on satisfaction and false on timeout (the waiter is withdrawn, so a
  /// later mutation will not resume it twice). The timer is cancelled on the
  /// success path; a cancelled entry is dropped without advancing the clock,
  /// so an untriggered watchdog leaves no trace on simulated time.
  struct TimedAwaiter {
    Flag& flag;
    Cmp cmp;
    std::int64_t rhs;
    Nanos timeout;
    std::uint64_t id = 0;
    bool timed_out = false;
    TimerToken timer{};

    bool await_ready() const noexcept { return compare(cmp, flag.value_, rhs); }
    void await_suspend(std::coroutine_handle<> h) {
      id = flag.park(cmp, rhs, h);
      timer = flag.engine_->schedule_callback(
          [this, h] {
            // Fires only while still parked: a normal wake erases the waiter
            // first and the cancelled/late timer finds nothing to remove.
            if (flag.remove_waiter(id)) {
              timed_out = true;
              flag.engine_->schedule(h, 0);
            }
          },
          timeout);
    }
    bool await_resume() noexcept {
      if (!timed_out) timer.cancel();
      return !timed_out;
    }
  };

  /// `co_await flag.wait_for(...)` -> true if satisfied, false on timeout.
  [[nodiscard]] TimedAwaiter wait_for(Cmp cmp, std::int64_t rhs,
                                      Nanos timeout) {
    return TimedAwaiter{*this, cmp, rhs, timeout};
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept { return waiters_.size(); }

 private:
  struct Waiter {
    Cmp cmp;
    std::int64_t rhs;
    std::coroutine_handle<> handle;
    std::uint64_t id = 0;
  };

  /// Parks a waiter and returns its withdrawal id (timed waits withdraw on
  /// watchdog expiry).
  std::uint64_t park(Cmp cmp, std::int64_t rhs, std::coroutine_handle<> h) {
    const std::uint64_t id = ++next_waiter_id_;
    waiters_.push_back(Waiter{cmp, rhs, h, id});
    return id;
  }

  bool remove_waiter(std::uint64_t id) {
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].id == id) {
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  void wake_satisfied() {
    // Wake in arrival order; satisfied waiters resume at the current time,
    // behind already-queued same-time events.
    for (std::size_t i = 0; i < waiters_.size();) {
      if (compare(waiters_[i].cmp, value_, waiters_[i].rhs)) {
        engine_->schedule(waiters_[i].handle, 0);
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  Engine* engine_;
  std::int64_t value_;
  std::vector<Waiter> waiters_;
  std::uint64_t next_waiter_id_ = 0;
};

/// Counting semaphore with FIFO handoff: a released unit is transferred
/// directly to the oldest waiter, so a same-instant acquire cannot steal it.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial)
      : engine_(&engine), count_(initial) {}

  struct AcquireAwaiter {
    Semaphore& sem;
    bool await_ready() noexcept {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] AcquireAwaiter acquire() { return AcquireAwaiter{*this}; }

  void release(std::int64_t n = 1) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (!waiters_.empty()) {
        auto h = waiters_.front();
        waiters_.pop_front();
        engine_->schedule(h, 0);
      } else {
        ++count_;
      }
    }
  }

  [[nodiscard]] std::int64_t available() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiter_count() const noexcept { return waiters_.size(); }

 private:
  friend struct AcquireAwaiter;
  Engine* engine_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier for a fixed set of participants (used for device-side
/// grid.sync() and host-side OpenMP/MPI-style barriers).
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t parties)
      : engine_(&engine), parties_(parties) {}

  struct Awaiter {
    Barrier& barrier;
    bool await_ready() const noexcept { return barrier.parties_ <= 1; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (barrier.arrived_ + 1 == barrier.parties_) {
        // Last arriver releases everyone and continues without suspending.
        barrier.arrived_ = 0;
        for (auto w : barrier.waiting_) barrier.engine_->schedule(w, 0);
        barrier.waiting_.clear();
        ++barrier.generation_;
        return false;
      }
      ++barrier.arrived_;
      barrier.waiting_.push_back(h);
      return true;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter arrive_and_wait() { return Awaiter{*this}; }
  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

 private:
  friend struct Awaiter;

  Engine* engine_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiting_;
};

/// Unbounded FIFO channel; pop suspends until an element is available.
/// Pushed elements are handed directly to the oldest waiter (see Semaphore).
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}

  void push(T value) {
    if (!waiters_.empty()) {
      PopAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot = std::move(value);
      engine_->schedule(w->handle, 0);
      return;
    }
    items_.push_back(std::move(value));
  }

  struct PopAwaiter {
    Channel& ch;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() noexcept {
      if (!ch.items_.empty()) {
        slot = std::move(ch.items_.front());
        ch.items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.waiters_.push_back(this);
    }
    T await_resume() { return std::move(*slot); }
  };

  [[nodiscard]] PopAwaiter pop() { return PopAwaiter{*this, std::nullopt, {}}; }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

 private:
  friend struct PopAwaiter;
  Engine* engine_;
  std::deque<T> items_;
  std::deque<PopAwaiter*> waiters_;
};

}  // namespace sim
