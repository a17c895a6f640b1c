// Unit tests for the discrete-event simulator and coroutine primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/coro.h"
#include "sim/simulator.h"

namespace paxoscp::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeMicros seen = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { seen = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { EXPECT_EQ(sim.Now(), 100); });
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.ScheduleAt(10, [&] { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.EventsExecuted(), 0u);
}

TEST(SimulatorTest, CancelIsSelective) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(10, [&] { ran += 1; });
  const EventId id = sim.ScheduleAt(10, [&] { ran += 10; });
  sim.ScheduleAt(10, [&] { ran += 100; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(ran, 101);
}

TEST(SimulatorTest, CancelAfterExecuteIsExactNoOp) {
  // Regression: the old implementation tracked cancellations in a tombstone
  // set sized against the queue, so cancelling an id that had already
  // executed skewed (and could underflow) PendingEvents().
  Simulator sim;
  int ran = 0;
  const EventId first = sim.ScheduleAt(1, [&] { ++ran; });
  sim.ScheduleAt(2, [&] { ++ran; });
  EXPECT_EQ(sim.PendingEvents(), 2u);
  ASSERT_TRUE(sim.Step());  // runs `first`
  sim.Cancel(first);        // stale: the event already executed
  EXPECT_EQ(sim.PendingEvents(), 1u);
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.EventsExecuted(), 2u);
}

TEST(SimulatorTest, DoubleCancelCountsOnce) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.ScheduleAt(10, [&] { ran = true; });
  sim.ScheduleAt(11, [] {});
  sim.Cancel(id);
  sim.Cancel(id);  // second cancel of the same id must not double-decrement
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, PendingEventsExactUnderInterleavedCancelAndStep) {
  // Interleave Cancel and Step every way the accounting could drift:
  // cancel-before-run, cancel-after-run, double cancel, cancel of an
  // invalid id — PendingEvents() must stay exact throughout.
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(sim.ScheduleAt(i, [] {}));
  EXPECT_EQ(sim.PendingEvents(), 8u);
  sim.Cancel(ids[0]);
  sim.Cancel(ids[3]);
  EXPECT_EQ(sim.PendingEvents(), 6u);
  ASSERT_TRUE(sim.Step());  // runs event 1 (0 was cancelled)
  EXPECT_EQ(sim.PendingEvents(), 5u);
  sim.Cancel(ids[1]);  // already executed: no-op
  sim.Cancel(ids[0]);  // already cancelled-and-collected: no-op
  sim.Cancel(kInvalidEventId);
  EXPECT_EQ(sim.PendingEvents(), 5u);
  ASSERT_TRUE(sim.Step());  // runs event 2
  sim.Cancel(ids[7]);
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_EQ(sim.Run(), 3u);  // events 4, 5, 6
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.EventsExecuted(), 5u);
}

TEST(SimulatorTest, StaleIdDoesNotCancelRecycledSlot) {
  // After an event runs, its pool slot may be recycled for a new event; a
  // stale cancel with the old id must not kill the new occupant.
  Simulator sim;
  const EventId old_id = sim.ScheduleAt(1, [] {});
  sim.Run();  // slot is freed and recycled below
  bool ran = false;
  sim.ScheduleAt(2, [&] { ran = true; });
  sim.Cancel(old_id);  // stale generation: must be a no-op
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<TimeMicros> times;
  for (TimeMicros t : {10, 20, 30, 40}) {
    sim.ScheduleAt(t, [&times, &sim] { times.push_back(sim.Now()); });
  }
  sim.RunUntil(25);
  EXPECT_EQ(times, (std::vector<TimeMicros>{10, 20}));
  EXPECT_EQ(sim.Now(), 25);
  sim.Run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(SimulatorTest, RunUntilAdvancesTimeWhenIdle) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulatorTest, MaxEventsBound) {
  Simulator sim;
  int count = 0;
  std::function<void()> reschedule = [&] {
    ++count;
    sim.ScheduleAfter(1, reschedule);
  };
  sim.ScheduleAfter(1, reschedule);
  sim.Run(/*max_events=*/100);
  EXPECT_EQ(count, 100);
}

// ------------------------------------------------------------ Coroutines --

Task SetFlagAfter(Simulator* sim, TimeMicros delay, bool* flag) {
  co_await SleepFor(sim, delay);
  *flag = true;
}

TEST(CoroTest, TaskSleepsInVirtualTime) {
  Simulator sim;
  bool flag = false;
  SetFlagAfter(&sim, 500, &flag);
  EXPECT_FALSE(flag);  // suspended at the sleep
  sim.Run();
  EXPECT_TRUE(flag);
  EXPECT_EQ(sim.Now(), 500);
}

Coro<int> AddAfter(Simulator* sim, TimeMicros delay, int a, int b) {
  co_await SleepFor(sim, delay);
  co_return a + b;
}

Task DriveAdd(Simulator* sim, int* out) {
  *out = co_await AddAfter(sim, 100, 2, 3);
}

TEST(CoroTest, CoroReturnsValueToParent) {
  Simulator sim;
  int out = 0;
  DriveAdd(&sim, &out);
  sim.Run();
  EXPECT_EQ(out, 5);
}

Coro<int> Nested(Simulator* sim, int depth) {
  if (depth == 0) co_return 1;
  const int below = co_await Nested(sim, depth - 1);
  co_await SleepFor(sim, 1);
  co_return below + 1;
}

Task DriveNested(Simulator* sim, int* out) {
  *out = co_await Nested(sim, 10);
}

TEST(CoroTest, NestedCorosCompose) {
  Simulator sim;
  int out = 0;
  DriveNested(&sim, &out);
  sim.Run();
  EXPECT_EQ(out, 11);
  EXPECT_EQ(sim.Now(), 10);
}

Coro<void> VoidCoro(Simulator* sim, int* counter) {
  co_await SleepFor(sim, 5);
  ++*counter;
}

Task DriveVoid(Simulator* sim, int* counter) {
  co_await VoidCoro(sim, counter);
  co_await VoidCoro(sim, counter);
}

TEST(CoroTest, VoidCoroRuns) {
  Simulator sim;
  int counter = 0;
  DriveVoid(&sim, &counter);
  sim.Run();
  EXPECT_EQ(counter, 2);
  EXPECT_EQ(sim.Now(), 10);
}

Task AwaitFuture(Future<int> f, int* out) { *out = co_await f; }

TEST(FutureTest, AwaitThenSet) {
  Simulator sim;
  Promise<int> promise(&sim);
  int out = 0;
  AwaitFuture(promise.GetFuture(), &out);
  EXPECT_EQ(out, 0);
  sim.ScheduleAt(50, [&] { promise.Set(99); });
  sim.Run();
  EXPECT_EQ(out, 99);
}

TEST(FutureTest, SetBeforeAwaitResumesImmediately) {
  Simulator sim;
  Promise<int> promise(&sim);
  promise.Set(7);
  int out = 0;
  AwaitFuture(promise.GetFuture(), &out);
  sim.Run();
  EXPECT_EQ(out, 7);
}

TEST(FutureTest, FirstSetWins) {
  Simulator sim;
  Promise<int> promise(&sim);
  int out = 0;
  AwaitFuture(promise.GetFuture(), &out);
  promise.Set(1);
  promise.Set(2);
  sim.Run();
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(promise.IsSet());
}

TEST(FutureTest, SetAfterWaiterResumedIsIgnored) {
  // Pins the other half of first-wins: a Set that arrives after the waiter
  // has already been resumed (not merely after an earlier Set) must be a
  // no-op. Response-vs-timeout races depend on this — the losing side of
  // a race may fire arbitrarily late.
  Simulator sim;
  Promise<int> promise(&sim);
  int out = 0;
  AwaitFuture(promise.GetFuture(), &out);
  sim.ScheduleAt(10, [&] { promise.Set(1); });
  sim.RunUntil(20);
  EXPECT_EQ(out, 1);  // waiter resumed with the first value
  promise.Set(2);     // late loser: must not re-deliver or corrupt state
  sim.Run();
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(promise.IsSet());
}

// ------------------------------------------------------------- Gather --

Coro<int> ValueAfter(Simulator* sim, TimeMicros delay, int v) {
  co_await SleepFor(sim, delay);
  co_return v;
}

Coro<int> CountAfter(Simulator* sim, TimeMicros delay, int* counter) {
  co_await SleepFor(sim, delay);
  co_return ++*counter;
}

// NOTE: drivers take pointers, never aggregate class types by value, per the
// coroutine-parameter rules documented in txn/client.h.
Task DriveGather(Simulator* sim, std::vector<Coro<int>>* children,
                 std::vector<int>* out, bool* done) {
  Gather<int> g(sim, std::move(*children));
  *out = co_await std::move(g);
  *done = true;
}

TEST(GatherTest, EmptySetCompletesThroughQueue) {
  Simulator sim;
  std::vector<Coro<int>> none;
  std::vector<int> out{1, 2, 3};  // sentinel: must be replaced by empty
  bool done = false;
  DriveGather(&sim, &none, &out, &done);
  // Even an empty join resumes its waiter via the event queue, never inline.
  EXPECT_FALSE(done);
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(sim.Now(), 0);
}

TEST(GatherTest, SingleChild) {
  Simulator sim;
  std::vector<Coro<int>> kids;
  kids.push_back(ValueAfter(&sim, 25, 42));
  std::vector<int> out;
  bool done = false;
  DriveGather(&sim, &kids, &out, &done);
  EXPECT_FALSE(done);
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(out, (std::vector<int>{42}));
  EXPECT_EQ(sim.Now(), 25);
}

TEST(GatherTest, ResultsInInputOrderForEveryCompletionPermutation) {
  // Three children with delays assigned by permutation: whatever order they
  // complete in, Gather returns results by input index and the join fires
  // exactly when the slowest child resolves.
  const TimeMicros delays[3] = {10, 20, 30};
  int perm[3] = {0, 1, 2};
  do {
    Simulator sim;
    std::vector<Coro<int>> kids;
    for (int i = 0; i < 3; ++i) {
      kids.push_back(ValueAfter(&sim, delays[perm[i]], 100 + i));
    }
    std::vector<int> out;
    bool done = false;
    DriveGather(&sim, &kids, &out, &done);
    sim.Run();
    EXPECT_TRUE(done);
    EXPECT_EQ(out, (std::vector<int>{100, 101, 102}))
        << "perm " << perm[0] << perm[1] << perm[2];
    EXPECT_EQ(sim.Now(), 30);  // join completes with the slowest child
  } while (std::next_permutation(perm, perm + 3));
}

TEST(GatherTest, DestroyedWithoutAwaitLeaksNothing) {
  // A Gather abandoned before being awaited never starts its children;
  // their frames are destroyed (deferred through the queue) with it. ASan
  // verifies no frame leaks.
  Simulator sim;
  int touched = 0;
  {
    std::vector<Coro<int>> kids;
    kids.push_back(CountAfter(&sim, 5, &touched));
    kids.push_back(CountAfter(&sim, 10, &touched));
    Gather<int> g(&sim, std::move(kids));
  }  // dropped without await
  sim.Run();  // drains the deferred frame destructions
  EXPECT_EQ(touched, 0);
}

// Two tasks awaiting sleeps interleave deterministically.
Task Recorder(Simulator* sim, std::vector<std::string>* log, std::string name,
              TimeMicros step) {
  for (int i = 0; i < 3; ++i) {
    co_await SleepFor(sim, step);
    log->push_back(name + std::to_string(i));
  }
}

TEST(CoroTest, DeterministicInterleaving) {
  std::vector<std::string> log1, log2;
  for (auto* log : {&log1, &log2}) {
    Simulator sim;
    Recorder(&sim, log, "a", 10);
    Recorder(&sim, log, "b", 15);
    sim.Run();
  }
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(log1.size(), 6u);
  EXPECT_EQ(log1[0], "a0");  // t=10 before t=15
}

}  // namespace
}  // namespace paxoscp::sim
