// C++20 coroutine primitives layered on the discrete-event Simulator.
//
//  * Task       — detached, eagerly-started top-level coroutine (a "client
//                 process" in the simulation). Progress happens only through
//                 scheduled events, so Simulator::Run() drains all Tasks.
//  * Coro<T>    — lazy child coroutine; `co_await` starts it and resumes the
//                 parent (symmetric transfer) when it co_returns.
//  * Future<T> / Promise<T>
//               — one-shot rendezvous. Set() is first-wins (later Sets are
//                 ignored), which is how response-vs-timeout races resolve.
//                 Waiters are resumed through the event queue, never inline,
//                 preserving deterministic execution order.
//  * WhenAll / Gather<T>
//               — fan-out join: runs N child coroutines concurrently and
//                 completes when every one has finished. Gather
//                 additionally collects the children's results in input
//                 order, independent of completion order. The joined
//                 waiter is resumed only through the event queue, so
//                 fan-out stays deterministic.
//  * SleepFor   — awaitable virtual-time delay.
#pragma once

#include <cassert>
#include <coroutine>
#include <functional>
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

/// Lazy child coroutine returning T. Must be awaited exactly once; the
/// awaiting coroutine owns the frame for the duration of the await.
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

  struct promise_type {
    // Explicitly declared so the promise is not an aggregate: otherwise
    // C++20 parenthesized aggregate initialization builds it from the
    // coroutine's parameters, and `Coro<std::string> F(std::string s)`
    // would start with `value` already holding `s` (GCC 12 does this).
    promise_type() = default;

    std::optional<T> value;
    std::coroutine_handle<> continuation;

    Coro get_return_object() { return Coro(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
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
  T await_resume() {
    assert(handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

 private:
  Handle handle_;
};

/// Coro<void> specialization.
template <>
class [[nodiscard]] Coro<void> {
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

  struct promise_type {
    promise_type() = default;

    std::coroutine_handle<> continuation;

    Coro get_return_object() { return Coro(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  explicit Coro(Handle h) : handle_(h) {}
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { internal::DestroyFrameDeferred(handle_); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    handle_.promise().continuation = cont;
    return handle_;
  }
  void await_resume() {}

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
  std::function<void(T&&)> callback;
  bool delivered = false;
  /// Seq of the event in which the waiter suspended (or the callback was
  /// registered): the source of the promise-completion happens-before
  /// edge to the resume/delivery event (race detector, D12).
  uint64_t origin_seq = kNoEventSeq;

  void Set(T v) {
    if (value.has_value()) return;  // first-wins
    value = std::move(v);
    MaybeDeliver();
  }

  void MaybeDeliver() {
    if (!value.has_value() || delivered) return;
    if (waiter) {
      delivered = true;
      auto h = waiter;
      waiter = nullptr;
      sim->ScheduleAfter(0, [h] { h.resume(); }, "future/resume");
      sim->NoteEdgeToLastScheduled(origin_seq);
    } else if (callback) {
      delivered = true;
      auto cb = std::move(callback);
      callback = nullptr;
      // Deliver through the event queue for deterministic ordering. The
      // state must stay alive until the event runs; the lambda's shared_ptr
      // is added by the caller (Future/Promise both hold one).
      auto* self = this;
      sim->ScheduleAfter(0, [cb = std::move(cb), self] {
        cb(std::move(*self->value));
      }, "future/callback");
      sim->NoteEdgeToLastScheduled(origin_seq);
    }
  }
};

}  // namespace internal

template <typename T>
class Promise;

/// Awaitable one-shot value. Obtained from Promise<T>::GetFuture(). Await it
/// from a coroutine, or attach a plain callback with OnReady().
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  bool await_ready() const noexcept {
    return state_->value.has_value() && !state_->delivered;
  }
  void await_suspend(std::coroutine_handle<> h) {
    assert(!state_->waiter && !state_->callback && "future already awaited");
    state_->waiter = h;
    state_->origin_seq = state_->sim->CurrentEventSeq();
  }
  T await_resume() {
    state_->delivered = true;
    return std::move(*state_->value);
  }

  /// Callback alternative to awaiting; runs through the event queue.
  void OnReady(std::function<void(T&&)> cb) {
    assert(!state_->waiter && !state_->callback && "future already awaited");
    state_->callback = [keep = state_, cb = std::move(cb)](T&& v) mutable {
      cb(std::move(v));
    };
    state_->origin_seq = state_->sim->CurrentEventSeq();
    state_->MaybeDeliver();
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

/// Shared bookkeeping of one WhenAll/Gather join: a countdown of
/// unfinished children plus the coroutine waiting on the join. The
/// children start only once the waiter is set, and the waiter is resumed
/// through the event queue, never inline (mirroring FutureState).
struct JoinCore {
  explicit JoinCore(Simulator* s) : sim(s) {}

  Simulator* sim;
  size_t remaining = 0;
  std::coroutine_handle<> waiter;
  /// Seq of the event in which the waiter suspended — promise-completion
  /// edge source for the join's resume event (race detector, D12).
  uint64_t waiter_seq = kNoEventSeq;

  void ChildDone() {
    assert(remaining > 0 && "join countdown underflow");
    --remaining;
    MaybeDeliver();
  }

  void MaybeDeliver() {
    if (remaining != 0 || !waiter) return;
    auto h = waiter;
    waiter = nullptr;
    sim->ScheduleAfter(0, [h] { h.resume(); }, "join/resume");
    sim->NoteEdgeToLastScheduled(waiter_seq);
  }
};

/// Detached driver of one WhenAll child: owns the child's frame for its
/// whole run, then counts the join down. The frame is destroyed through
/// the event queue (Coro's destructor defers), so teardown is safe even
/// at the end of a symmetric-transfer chain.
inline Task RunJoinChild(Coro<void> child, std::shared_ptr<JoinCore> core) {
  co_await child;
  core->ChildDone();
}

template <typename T>
struct GatherState {
  GatherState(Simulator* s, size_t n) : core(s), results(n) {}
  JoinCore core;
  /// Slot per child, in input order; optional because T (e.g. Result<V>)
  /// need not be default-constructible.
  std::vector<std::optional<T>> results;
};

template <typename T>
Task RunGatherChild(Coro<T> child, std::shared_ptr<GatherState<T>> state,
                    size_t index) {
  state->results[index] = co_await child;
  state->core.ChildDone();
}

}  // namespace internal

/// Join of N child coroutines that completes when ALL of them have
/// finished. Usage:
///
///   WhenAll all(sim);
///   all.Add(DoThing(a));            // lazy child: starts at the await
///   all.Add(DoThing(b));
///   co_await std::move(all);        // resumes (via the event queue) when
///                                   // every child has finished
///
/// A WhenAll destroyed without being awaited never starts its queued
/// children; their frames are destroyed (deferred) with it. Add() must not
/// be called after the join was awaited.
class [[nodiscard]] WhenAll {
 public:
  explicit WhenAll(Simulator* sim)
      : core_(std::make_shared<internal::JoinCore>(sim)) {}

  WhenAll(WhenAll&&) = default;
  WhenAll(const WhenAll&) = delete;
  WhenAll& operator=(const WhenAll&) = delete;

  /// Adds a lazy child coroutine; it starts when the join is awaited, in
  /// Add order.
  void Add(Coro<void> child) {
    assert(!core_->waiter && "Add after the join was awaited");
    ++core_->remaining;
    pending_.push_back(std::move(child));
  }

  // Awaiter interface: `co_await std::move(when_all)`.
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    core_->waiter = h;
    core_->waiter_seq = core_->sim->CurrentEventSeq();
    for (Coro<void>& child : pending_) {
      internal::RunJoinChild(std::move(child), core_);
    }
    pending_.clear();
    core_->MaybeDeliver();  // empty join
  }
  void await_resume() noexcept {}

 private:
  std::shared_ptr<internal::JoinCore> core_;
  std::vector<Coro<void>> pending_;
};

/// WhenAll variant that collects the children's results:
/// `std::vector<T> out = co_await Gather<T>(sim, std::move(children));`
/// Results are ordered by input index, not completion order. An empty
/// input completes (through the event queue) with an empty vector.
template <typename T>
class [[nodiscard]] Gather {
 public:
  Gather(Simulator* sim, std::vector<Coro<T>> children)
      : state_(std::make_shared<internal::GatherState<T>>(sim,
                                                          children.size())),
        pending_(std::move(children)) {
    state_->core.remaining = pending_.size();
  }

  Gather(Gather&&) = default;
  Gather(const Gather&) = delete;
  Gather& operator=(const Gather&) = delete;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    state_->core.waiter = h;
    state_->core.waiter_seq = state_->core.sim->CurrentEventSeq();
    for (size_t i = 0; i < pending_.size(); ++i) {
      internal::RunGatherChild<T>(std::move(pending_[i]), state_, i);
    }
    pending_.clear();
    state_->core.MaybeDeliver();  // empty join
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
