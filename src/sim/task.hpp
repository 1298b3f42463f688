// Coroutine task type for simulated processes.
//
// A sim::Task is a lazily-started coroutine. Tasks form the unit of
// concurrency in the simulator: every host thread, stream operation, kernel
// block group, and MPI rank is a Task scheduled by sim::Engine.
//
// Tasks compose in two ways:
//  * `co_await subtask()` — runs the subtask to completion, then resumes the
//    awaiting coroutine at the simulated time the subtask finished.
//  * `engine.spawn(task())` — detaches the task as a root process owned by
//    the engine; exceptions escaping a root task are rethrown from
//    Engine::run().
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

/// Workaround for a GCC 12 coroutine codegen bug: when a `co_await f(...)`
/// expression passes a non-trivially-destructible prvalue argument (a
/// composed std::string, an inline lambda converted to std::function, a
/// braced aggregate holding a string, ...) and the awaited coroutine itself
/// awaits further tasks, GCC 12.2 mis-destroys the argument temporaries when
/// the frame is torn down (invalid free). Binding the task to a named local
/// first ends the call's full-expression — and destroys its temporaries —
/// before any suspension, which sidesteps the bug (verified under
/// ASan+UBSan; see tests/gccbug_regression_test.cpp).
///
/// Rule: plain `co_await` is fine for awaitables and for Task calls whose
/// arguments are all trivially destructible (ints, references, string_view,
/// spans). Use CO_AWAIT(...) for any Task call with non-trivial arguments.
#define CO_AWAIT(...)                       \
  do {                                      \
    ::sim::Task cpufree_tmp_ = __VA_ARGS__; \
    co_await std::move(cpufree_tmp_);       \
  } while (false)

namespace sim {

class Engine;

class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept;
    void await_resume() const noexcept {}
  };

  struct promise_type {
    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }

    /// Coroutine to resume when this task completes (set by Awaiter).
    std::coroutine_handle<> continuation;
    /// Owning engine for detached (spawned) tasks; nullptr for awaited tasks.
    Engine* owner = nullptr;
    std::exception_ptr exception;
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Awaiting a Task starts it immediately (symmetric transfer) and resumes
  /// the awaiter once the task runs to completion in simulated time.
  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
      handle.promise().continuation = awaiting;
      return handle;
    }
    void await_resume() const {
      if (handle.promise().exception) {
        std::rethrow_exception(handle.promise().exception);
      }
    }
  };

  Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_.done(); }

  /// Releases ownership of the coroutine handle (used by Engine::spawn).
  [[nodiscard]] Handle release() noexcept { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

}  // namespace sim
