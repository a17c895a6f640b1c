// C++20 coroutine primitives layered on the discrete-event Simulator.
//
//  * Task       — detached, eagerly-started top-level coroutine (a "client
//                 process" in the simulation). Progress happens only through
//                 scheduled events, so Simulator::Run() drains all Tasks.
//                 Work that nothing needs to join is started as Tasks.
//  * Coro<T>    — lazy child coroutine (T may be void); `co_await` starts it
//                 and resumes the parent (symmetric transfer) when it
//                 co_returns.
//  * Future<T> / Promise<T>
//               — one-shot rendezvous, consumed only by `co_await`. Set() is
//                 first-wins (later Sets are ignored), which is how
//                 response-vs-timeout races resolve. The waiter is resumed
//                 through the event queue, never inline, preserving
//                 deterministic execution order. Code outside a coroutine
//                 that needs the value starts a Task that awaits it.
//  * Gather<T>  — the fan-out join: runs N child coroutines concurrently and
//                 completes, with their results in input order (independent
//                 of completion order), when every one has finished. The
//                 joined waiter is resumed only through the event queue, so
//                 fan-out stays deterministic.
//  * SleepFor   — awaitable virtual-time delay.
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace paxoscp::sim {

namespace internal {

/// Destroys a finished coroutine frame *safely*: never inline, because the
/// destructor typically runs from within the frame's own resume chain
/// (symmetric transfer resumed the parent from inside the child's resume
/// activation, and GCC 12 does not guarantee a true tail call there).
/// Destruction is deferred through the current simulator's event queue;
/// outside a simulator the destroy happens inline (only safe when no
/// symmetric transfer is on the stack — all library code runs under a
/// Simulator).
inline void DestroyFrameDeferred(std::coroutine_handle<> h) {
  if (!h) return;
  if (Simulator* sim = Simulator::Current()) {
    sim->ScheduleAfter(0, [h] { h.destroy(); }, "coro/frame-destroy");
  } else {
    h.destroy();
  }
}

/// How a Coro<T>'s promise holds the coroutine's result until the parent
/// takes it; Coro<void> holds nothing.
template <typename T>
struct CoroResult {
  std::optional<T> value;

  void return_value(T v) { value = std::move(v); }
  T Take() {
    assert(value.has_value());
    return std::move(*value);
  }
};

template <>
struct CoroResult<void> {
  void return_void() {}
  void Take() {}
};

}  // namespace internal

/// Detached top-level coroutine handle. The coroutine starts running as soon
/// as it is called and destroys its own frame when it finishes.
struct Task {
  struct promise_type {
    promise_type() = default;

    Task get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// Lazy child coroutine returning T (or nothing, for Coro<void>). Must be
/// awaited exactly once; the awaiting coroutine owns the frame for the
/// duration of the await.
template <typename T>
class [[nodiscard]] Coro {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  struct promise_type : internal::CoroResult<T> {
    // Explicitly declared so the promise is not an aggregate: otherwise
    // C++20 parenthesized aggregate initialization builds it from the
    // coroutine's parameters, and `Coro<std::string> F(std::string s)`
    // would start with `value` already holding `s` (GCC 12 does this).
    promise_type() = default;

    std::coroutine_handle<> continuation;

    Coro get_return_object() { return Coro(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { std::terminate(); }
  };

  explicit Coro(Handle h) : handle_(h) {}
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      internal::DestroyFrameDeferred(handle_);
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Coro() { internal::DestroyFrameDeferred(handle_); }

  // Awaiter interface.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    handle_.promise().continuation = cont;
    return handle_;  // start the child
  }
  T await_resume() { return handle_.promise().Take(); }

 private:
  Handle handle_;
};

namespace internal {

template <typename T>
struct FutureState {
  explicit FutureState(Simulator* s) : sim(s) {}

  Simulator* sim;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  bool delivered = false;
  /// Seq of the event in which the waiter suspended: the source of the
  /// promise-completion happens-before edge to the resume event (race
  /// detector, D12).
  uint64_t origin_seq = kNoEventSeq;

  void Set(T v) {
    if (value.has_value()) return;  // first-wins
    value = std::move(v);
    if (!waiter) return;
    delivered = true;
    sim->ScheduleAfter(0, [h = std::exchange(waiter, nullptr)] { h.resume(); },
                       "future/resume");
    sim->NoteEdgeToLastScheduled(origin_seq);
  }
};

}  // namespace internal

template <typename T>
class Promise;

/// Awaitable one-shot value, obtained from Promise<T>::GetFuture() and
/// consumed by awaiting it from a coroutine.
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  bool await_ready() const noexcept {
    return state_->value.has_value() && !state_->delivered;
  }
  void await_suspend(std::coroutine_handle<> h) {
    assert(!state_->waiter && "future already awaited");
    state_->waiter = h;
    state_->origin_seq = state_->sim->CurrentEventSeq();
  }
  T await_resume() {
    state_->delivered = true;
    return std::move(*state_->value);
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<internal::FutureState<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<internal::FutureState<T>> state_;
};

/// Producer side of Future<T>. Copyable: multiple events (e.g. a response
/// and a timeout) may race to Set(); the first wins.
template <typename T>
class Promise {
 public:
  explicit Promise(Simulator* sim)
      : state_(std::make_shared<internal::FutureState<T>>(sim)) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  void Set(T value) const { state_->Set(std::move(value)); }

  bool IsSet() const { return state_->value.has_value(); }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

namespace internal {

/// Shared bookkeeping of one Gather join: a result slot per child, a
/// countdown of unfinished children and the coroutine waiting on the join.
/// The children start only once the waiter is set, and the waiter is
/// resumed through the event queue, never inline (as FutureState does).
template <typename T>
struct GatherState {
  GatherState(Simulator* s, size_t n) : sim(s), results(n), remaining(n) {}

  Simulator* sim;
  /// Slot per child, in input order; optional because T (e.g. Result<V>)
  /// need not be default-constructible.
  std::vector<std::optional<T>> results;
  size_t remaining;
  std::coroutine_handle<> waiter;
  /// Seq of the event in which the waiter suspended — promise-completion
  /// edge source for the join's resume event (race detector, D12).
  uint64_t waiter_seq = kNoEventSeq;

  void ResumeWaiter() {
    sim->ScheduleAfter(0, [h = waiter] { h.resume(); }, "join/resume");
    sim->NoteEdgeToLastScheduled(waiter_seq);
  }
};

/// Detached driver of one Gather child: owns the child's frame for its
/// whole run, stores its result, then counts the join down. The frame is
/// destroyed through the event queue (Coro's destructor defers), so
/// teardown is safe even at the end of a symmetric-transfer chain.
template <typename T>
Task RunGatherChild(Coro<T> child, std::shared_ptr<GatherState<T>> state,
                    size_t index) {
  state->results[index] = co_await child;
  assert(state->remaining > 0 && "join countdown underflow");
  if (--state->remaining == 0) state->ResumeWaiter();
}

}  // namespace internal

/// Join of N child coroutines that completes when ALL of them have
/// finished, with their results ordered by input index, not completion
/// order:
///
///   Gather<T> join(sim, std::move(children));
///   std::vector<T> out = co_await std::move(join);
///
/// The children start when the join is awaited, in input order. An empty
/// input completes (through the event queue) with an empty vector. A
/// Gather destroyed without being awaited never starts its children; their
/// frames are destroyed (deferred) with it.
template <typename T>
class [[nodiscard]] Gather {
 public:
  Gather(Simulator* sim, std::vector<Coro<T>> children)
      : state_(std::make_shared<internal::GatherState<T>>(sim,
                                                          children.size())),
        pending_(std::move(children)) {}

  Gather(Gather&&) = default;
  Gather(const Gather&) = delete;
  Gather& operator=(const Gather&) = delete;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    state_->waiter = h;
    state_->waiter_seq = state_->sim->CurrentEventSeq();
    if (pending_.empty()) state_->ResumeWaiter();
    for (size_t i = 0; i < pending_.size(); ++i) {
      internal::RunGatherChild<T>(std::move(pending_[i]), state_, i);
    }
    pending_.clear();
  }
  std::vector<T> await_resume() {
    std::vector<T> out;
    out.reserve(state_->results.size());
    for (std::optional<T>& slot : state_->results) {
      assert(slot.has_value());
      out.push_back(std::move(*slot));
    }
    return out;
  }

 private:
  std::shared_ptr<internal::GatherState<T>> state_;
  std::vector<Coro<T>> pending_;
};

/// Awaitable virtual-time delay: `co_await SleepFor(sim, 10 * kMillisecond)`.
struct SleepFor {
  SleepFor(Simulator* sim, TimeMicros delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim_->ScheduleAfter(delay_, [h] { h.resume(); }, "sim/sleep");
  }
  void await_resume() const noexcept {}

 private:
  Simulator* sim_;
  TimeMicros delay_;
};

}  // namespace paxoscp::sim
