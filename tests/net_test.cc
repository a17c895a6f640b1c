// Unit tests for the simulated network: latency, timeouts, loss, outages,
// broadcasts, one-way messages, delivery faults, a golden delivery
// schedule, and how often requests and responses are copied.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/coro.h"

namespace paxoscp::net {
namespace {

constexpr TimeMicros kRtt = 10 * kMillisecond;

/// The network these tests drive: string requests and responses.
using StringNetwork = Network<std::string, std::string>;
using StringCall = CallResult<std::string>;
using StringBroadcast = StringNetwork::BroadcastResult;

/// Awaits `future` and hands its result to `on_ready`: how these tests
/// observe a call or a broadcast that none of their coroutines awaits.
template <typename T, typename Fn>
sim::Task AwaitThen(sim::Future<T> future, Fn on_ready) {
  T result = co_await future;
  on_ready(std::move(result));
}

/// Echo service: replies with "<dc>:<payload>".
StringNetwork::Handler EchoHandler(DcId dc) {
  return [dc](DcId /*from*/,
              const std::string* request) -> sim::Coro<std::string> {
    co_return std::to_string(dc) + ":" + *request;
  };
}

/// Options whose one RPC timeout is `timeout`.
NetworkOptions TimeoutOf(TimeMicros timeout) {
  NetworkOptions options;
  options.rpc_timeout = timeout;
  return options;
}

class NetworkTest : public ::testing::Test {
 protected:
  void Build(int dcs, NetworkOptions options = {}) {
    options.latency_jitter = 0;  // exact timing assertions
    std::vector<std::vector<TimeMicros>> rtt(
        dcs, std::vector<TimeMicros>(dcs, kRtt));
    for (int i = 0; i < dcs; ++i) rtt[i][i] = 1000;
    network_ = std::make_unique<StringNetwork>(&sim_, rtt, options);
    for (DcId dc = 0; dc < dcs; ++dc) {
      network_->RegisterEndpoint(dc, EchoHandler(dc));
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<StringNetwork> network_;
};

TEST_F(NetworkTest, CallDeliversResponse) {
  Build(2);
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "ping"),
            [&](StringCall&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(result->response, "1:ping");
}

TEST_F(NetworkTest, CallTakesOneRoundTrip) {
  Build(2);
  TimeMicros completed_at = -1;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&&) { completed_at = sim_.Now(); });
  sim_.RunUntil(kRtt + kMillisecond);
  EXPECT_GE(completed_at, kRtt);            // one full round trip
  EXPECT_LE(completed_at, kRtt + 2);        // plus delivery events
}

TEST_F(NetworkTest, IntraDatacenterCallIsFast) {
  Build(2);
  TimeMicros completed_at = -1;
  AwaitThen(network_->Call(0, 0, "x"),
            [&](StringCall&&) { completed_at = sim_.Now(); });
  sim_.RunUntil(5 * kMillisecond);
  EXPECT_GE(completed_at, 0);
  EXPECT_LE(completed_at, 2 * kMillisecond);
}

TEST_F(NetworkTest, TimeoutFiresWhenDestinationDown) {
  Build(2, TimeoutOf(50 * kMillisecond));
  network_->SetDatacenterDown(1, true);
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

/// How long after it was sent a call from dc 0 to a down dc 1 resolved,
/// on a network built with `options`; the call must resolve TimedOut.
TimeMicros CallToDownDatacenterResolvesAfter(const NetworkOptions& options) {
  sim::Simulator sim;
  const std::vector<std::vector<TimeMicros>> rtt(
      2, std::vector<TimeMicros>(2, kRtt));
  StringNetwork network(&sim, rtt, options);
  for (DcId dc = 0; dc < 2; ++dc) network.RegisterEndpoint(dc, EchoHandler(dc));
  network.SetDatacenterDown(1, true);
  constexpr TimeMicros kSentAt = 3 * kMillisecond;
  TimeMicros resolved_at = -1;
  sim.ScheduleAt(kSentAt, [&] {
    AwaitThen(network.Call(0, 1, "x"), [&](StringCall&& r) {
      EXPECT_TRUE(r.status.IsTimedOut()) << r.status.ToString();
      resolved_at = sim.Now();
    });
  });
  sim.Run();
  return resolved_at - kSentAt;
}

TEST(NetworkTimeoutTest, CallTimesOutExactlyAfterTheOneRpcTimeout) {
  // The network has one timeout (paper §2.2), 2 s unless the options set
  // another; no call overrides it.
  EXPECT_EQ(CallToDownDatacenterResolvesAfter(NetworkOptions{}), 2 * kSecond);
  EXPECT_EQ(CallToDownDatacenterResolvesAfter(TimeoutOf(50 * kMillisecond)),
            50 * kMillisecond);
}

TEST_F(NetworkTest, AnsweredCallLeavesNoEventBehind) {
  // The answer cancels the call's 2 s timeout, so the run ends at the
  // answer: the request leg, the deferred destroy of the handler's frame,
  // the response leg and the caller's resume, one round trip in.
  Build(2);
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(sim_.EventsExecuted(), 4u);
  EXPECT_EQ(sim_.PendingEvents(), 0u);
  EXPECT_GE(sim_.Now(), kRtt);
  EXPECT_LT(sim_.Now(), kRtt + kMillisecond);
}

TEST_F(NetworkTest, OutageMidFlightDropsDelivery) {
  Build(2, TimeoutOf(50 * kMillisecond));
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  // Take the destination down after the message left but before arrival.
  sim_.ScheduleAfter(kRtt / 4, [&] { network_->SetDatacenterDown(1, true); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, LinkDownBlocksOnlyThatPair) {
  Build(3, TimeoutOf(30 * kMillisecond));
  network_->SetLinkDown(0, 1, true);
  std::optional<StringCall> blocked, open;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { blocked = std::move(r); });
  AwaitThen(network_->Call(0, 2, "x"),
            [&](StringCall&& r) { open = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(blocked->status.IsTimedOut());
  EXPECT_TRUE(open->status.ok());
}

TEST_F(NetworkTest, TotalLossTimesOutEveryCall) {
  NetworkOptions options = TimeoutOf(20 * kMillisecond);
  options.loss_probability = 1.0;
  Build(2, options);
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(result->status.IsTimedOut());
  EXPECT_GT(network_->messages_dropped(), 0u);
}

TEST_F(NetworkTest, BroadcastCollectsAllTargets) {
  Build(3);
  std::optional<StringBroadcast> result;
  AwaitThen(network_->Broadcast(0, {0, 1, 2}, "hi"),
            [&](StringBroadcast&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*result)[i].dc, i);
    ASSERT_TRUE((*result)[i].status.ok());
    EXPECT_EQ((*result)[i].response,
              std::to_string(i) + ":hi");
  }
}

TEST_F(NetworkTest, BroadcastWithDownTargetMarksItTimedOut) {
  Build(3, TimeoutOf(30 * kMillisecond));
  network_->SetDatacenterDown(2, true);
  std::optional<StringBroadcast> result;
  AwaitThen(network_->Broadcast(0, {0, 1, 2}, "hi"),
            [&](StringBroadcast&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE((*result)[0].status.ok());
  EXPECT_TRUE((*result)[1].status.ok());
  EXPECT_TRUE((*result)[2].status.IsTimedOut());
}

TEST_F(NetworkTest, EmptyBroadcastResolvesImmediately) {
  Build(2);
  std::optional<StringBroadcast> result;
  AwaitThen(network_->Broadcast(0, {}, "hi"),
            [&](StringBroadcast&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

/// Awaits one broadcast to dcs 0-2 and records how many simulator events
/// had run when it resumed.
sim::Task AwaitBroadcast(StringNetwork* network, uint64_t* events_at_resume) {
  const std::vector<DcId> targets = {0, 1, 2};
  const std::string request = "hi";
  sim::Future<StringBroadcast> broadcast =
      network->Broadcast(0, targets, request);
  co_await broadcast;
  *events_at_resume = network->simulator()->EventsExecuted();
}

TEST_F(NetworkTest, BroadcastCostsFourEventsPerTargetAndOneResume) {
  // Per target: the request leg, the deferred destroy of the handler's
  // frame, the response leg and the event that hands the result to the
  // broadcast; then one event resumes the awaiting coroutine. Each answer
  // cancels its call's timeout, so no event runs after the resume.
  Build(3);
  uint64_t events_at_resume = 0;
  AwaitBroadcast(network_.get(), &events_at_resume);
  sim_.Run();
  EXPECT_EQ(events_at_resume, 13u);
  EXPECT_EQ(sim_.EventsExecuted(), 13u);
}

/// What the awaiting side of a broadcast saw when it resumed.
struct Resumed {
  std::optional<StringBroadcast> result;
  TimeMicros at = -1;
  uint64_t event = 0;
};

/// Broadcasts from dc 0 to dcs 0-2, whose answers arrive at about 1, 10 and
/// 30 ms, and records when the awaiting coroutine resumed and what it got.
Resumed BroadcastToStaggeredTargets(StringNetwork::Settle settle,
                                    int* settle_calls) {
  sim::Simulator sim;
  NetworkOptions options;
  options.latency_jitter = 0;
  const std::vector<std::vector<TimeMicros>> rtt = {
      {1000, 10 * kMillisecond, 30 * kMillisecond},
      {10 * kMillisecond, 1000, kRtt},
      {30 * kMillisecond, kRtt, 1000}};
  StringNetwork network(&sim, rtt, options);
  for (DcId dc = 0; dc < 3; ++dc) network.RegisterEndpoint(dc, EchoHandler(dc));
  Resumed resumed;
  AwaitThen(network.Broadcast(0, {0, 1, 2}, "hi", nullptr,
                              [&, settle](const StringBroadcast& so_far) {
                                ++*settle_calls;
                                return settle(so_far);
                              }),
            [&](StringBroadcast&& r) {
              resumed.result = std::move(r);
              resumed.at = sim.Now();
              resumed.event = sim.EventsExecuted();
            });
  sim.Run();
  // Every target's four events ran, and no timeout, as without a settle
  // predicate (BroadcastCostsFourEventsPerTargetAndOneResume).
  EXPECT_EQ(sim.EventsExecuted(), 13u);
  EXPECT_EQ(network.messages_sent(), 6u);
  return resumed;
}

TEST(NetworkSettleTest, ResolvesInTheEventOfTheDecidingResponse) {
  int calls = 0;
  const Resumed resumed = BroadcastToStaggeredTargets(
      [](const StringBroadcast& so_far) {
        int answered = 0;
        for (const auto& t : so_far) answered += t.status.ok() ? 1 : 0;
        return answered >= 2;
      },
      &calls);
  // dc 1's answer (10 ms) satisfies the predicate: the awaiting coroutine
  // resumes in the event right after dc 1's result reached the broadcast
  // (events 1-4 serve dc 0, 5-8 dc 1), not after dc 2's at 30 ms.
  EXPECT_EQ(calls, 2);
  EXPECT_GE(resumed.at, 10 * kMillisecond);
  EXPECT_LT(resumed.at, 11 * kMillisecond);
  EXPECT_EQ(resumed.event, 9u);
  ASSERT_TRUE(resumed.result.has_value());
  const StringBroadcast& result = *resumed.result;
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].response, "0:hi");
  EXPECT_EQ(result[1].response, "1:hi");
  // dc 2 was still in flight: its slot reads non-OK and keeps reading so
  // after its answer arrived and was dropped.
  EXPECT_EQ(result[2].dc, 2);
  EXPECT_TRUE(result[2].status.IsUnavailable()) << result[2].status.ToString();
  EXPECT_TRUE(result[2].response.empty());
}

TEST(NetworkSettleTest, UnsatisfiedPredicateWaitsForEveryTarget) {
  int calls = 0;
  const Resumed resumed = BroadcastToStaggeredTargets(
      [](const StringBroadcast&) { return false; }, &calls);
  // Consulted after each of the first two answers; the last one completes
  // the broadcast whatever the predicate says.
  EXPECT_EQ(calls, 2);
  EXPECT_GE(resumed.at, 30 * kMillisecond);
  EXPECT_EQ(resumed.event, 13u);
  ASSERT_TRUE(resumed.result.has_value());
  for (const auto& t : *resumed.result) {
    EXPECT_TRUE(t.status.ok()) << t.dc;
    EXPECT_EQ(t.response, std::to_string(t.dc) + ":hi");
  }
}

TEST_F(NetworkTest, MessageStatsCount) {
  Build(2);
  network_->Call(0, 1, "x");
  sim_.Run();
  EXPECT_EQ(network_->messages_sent(), 2u);  // request + response
  EXPECT_EQ(network_->calls_started(), 1u);
  network_->ResetStats();
  EXPECT_EQ(network_->messages_sent(), 0u);
}

TEST_F(NetworkTest, JitterStaysWithinBounds) {
  NetworkOptions options;
  options.latency_jitter = 0.1;
  options.seed = 9;
  std::vector<std::vector<TimeMicros>> rtt(2,
                                           std::vector<TimeMicros>(2, kRtt));
  StringNetwork network(&sim_, rtt, options);
  network.RegisterEndpoint(1, EchoHandler(1));
  for (int i = 0; i < 20; ++i) {
    TimeMicros start = sim_.Now();
    std::optional<StringCall> result;
    TimeMicros completed_at = -1;
    AwaitThen(network.Call(0, 1, "x"), [&](StringCall&& r) {
      result = std::move(r);
      completed_at = sim_.Now();
    });
    sim_.Run();  // drains the response and the (losing) timeout event
    ASSERT_TRUE(result->status.ok());
    const TimeMicros elapsed = completed_at - start;
    EXPECT_GE(elapsed, static_cast<TimeMicros>(kRtt * 0.9) - 2);
    EXPECT_LE(elapsed, static_cast<TimeMicros>(kRtt * 1.1) + 2);
  }
}

// ---- In-flight outage semantics (ARCHITECTURE.md design note D6) --------
// Intended semantics, pinned here: a message is lost if its destination (or
// the directed link it travels) goes down at ANY point during its flight,
// even if the fault heals before the scheduled delivery; a message whose
// source dies after it left is still delivered; responses already delivered
// stand.

TEST_F(NetworkTest, DownUpFlapWithinFlightWindowLosesMessage) {
  Build(2, TimeoutOf(50 * kMillisecond));
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  // One-way delay is kRtt/2 = 5 ms. The destination flaps down at 1 ms and
  // is back UP at 2 ms — well before the delivery event at 5 ms. The
  // message crossed an outage window, so it must be lost; a delivery-time
  // check alone would (wrongly) deliver it.
  sim_.ScheduleAfter(1 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.ScheduleAfter(2 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, DownUpDownFlapsWithinOneTimeoutWindow) {
  Build(2, TimeoutOf(50 * kMillisecond));
  // dc1 flaps twice inside a single 50 ms RPC timeout: down 1-2 ms, up
  // 2-3 ms, down 3-4 ms, up from 4 ms.
  for (TimeMicros t : {1, 3}) {
    sim_.ScheduleAfter(t * kMillisecond,
                       [&] { network_->SetDatacenterDown(1, true); });
    sim_.ScheduleAfter((t + 1) * kMillisecond,
                       [&] { network_->SetDatacenterDown(1, false); });
  }
  // Sent before the first flap, delivery (5 ms) after the last: lost.
  std::optional<StringCall> flapped;
  AwaitThen(network_->Call(0, 1, "a"),
            [&](StringCall&& r) { flapped = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(flapped.has_value());
  EXPECT_TRUE(flapped->status.IsTimedOut());

  // Sent after the last recovery, same timeout window: clean round trip.
  std::optional<StringCall> clean;
  AwaitThen(network_->Call(0, 1, "b"),
            [&](StringCall&& r) { clean = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->status.ok()) << clean->status.ToString();
}

TEST_F(NetworkTest, BroadcastTargetFlappingMidFlightIsLostOthersStand) {
  Build(3, TimeoutOf(50 * kMillisecond));
  std::optional<StringBroadcast> result;
  AwaitThen(network_->Broadcast(0, {0, 1, 2}, "hi"),
            [&](StringBroadcast&& r) { result = std::move(r); });
  // dc2 goes down while the broadcast's requests are in flight and is back
  // before their arrival; dc0/dc1 deliveries already under way are
  // unaffected and their responses stand.
  sim_.ScheduleAfter(1 * kMillisecond,
                     [&] { network_->SetDatacenterDown(2, true); });
  sim_.ScheduleAfter(2 * kMillisecond,
                     [&] { network_->SetDatacenterDown(2, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE((*result)[0].status.ok());
  EXPECT_TRUE((*result)[1].status.ok());
  EXPECT_TRUE((*result)[2].status.IsTimedOut());
}

TEST_F(NetworkTest, ResponseInFlightFromDownedSourceStillArrives) {
  Build(2, TimeoutOf(50 * kMillisecond));
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  // The response leaves dc1 at ~5 ms (instant handler); dc1 dies at 7 ms
  // while its response is in flight. The message already left the downed
  // datacenter, so it is delivered.
  sim_.ScheduleAfter(7 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(result->response, "1:x");
}

// ---- Asymmetric (one-way) link cuts --------------------------------------

TEST_F(NetworkTest, OneWayLinkCutBlocksOnlyThatDirection) {
  Build(3, TimeoutOf(30 * kMillisecond));
  int handled_at_0 = 0, handled_at_1 = 0;
  network_->RegisterEndpoint(
      0, [&](DcId, const std::string*) -> sim::Coro<std::string> {
        ++handled_at_0;
        co_return "pong0";
      });
  network_->RegisterEndpoint(
      1, [&](DcId, const std::string*) -> sim::Coro<std::string> {
        ++handled_at_1;
        co_return "pong1";
      });
  network_->SetLinkOneWayDown(0, 1, true);

  // 0 -> 1: the request itself travels the cut direction, never arrives.
  std::optional<StringCall> forward;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { forward = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(forward->status.IsTimedOut());
  EXPECT_EQ(handled_at_1, 0);

  // 1 -> 0: the request arrives and is served; only the response (which
  // travels 0 -> 1) is black-holed. The caller sees the same timeout but
  // the side effect happened — the asymmetry 2PC/Paxos must tolerate.
  std::optional<StringCall> reverse;
  AwaitThen(network_->Call(1, 0, "y"),
            [&](StringCall&& r) { reverse = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(reverse->status.IsTimedOut());
  EXPECT_EQ(handled_at_0, 1);

  // Unrelated pairs are untouched.
  std::optional<StringCall> other;
  AwaitThen(network_->Call(2, 1, "z"),
            [&](StringCall&& r) { other = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(other->status.ok());

  // Healing restores the direction.
  network_->SetLinkOneWayDown(0, 1, false);
  std::optional<StringCall> healed;
  AwaitThen(network_->Call(0, 1, "w"),
            [&](StringCall&& r) { healed = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(healed->status.ok());
  EXPECT_EQ(handled_at_1, 2);
}

TEST_F(NetworkTest, OneWayCutMidFlightDropsTheResponse) {
  Build(2, TimeoutOf(50 * kMillisecond));
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  // Cut the response direction (1 -> 0) at 7 ms, while the response is in
  // flight (left dc1 at ~5 ms, due at ~10 ms); heal immediately after. The
  // in-flight response is lost even though the link is up at delivery time.
  sim_.ScheduleAfter(7 * kMillisecond,
                     [&] { network_->SetLinkOneWayDown(1, 0, true); });
  sim_.ScheduleAfter(8 * kMillisecond,
                     [&] { network_->SetLinkOneWayDown(1, 0, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

// ---- Adversarial delivery faults (ARCHITECTURE.md design note D10) -------
// Duplication re-delivers the REQUEST (the handler runs twice — the
// idempotence exercise); responses race into a first-set-wins promise, so
// the caller always sees exactly one result. All duplication/reorder
// randomness draws from a dedicated fault stream, so enabling the faults
// never perturbs the primary copies' delivery schedule.

TEST_F(NetworkTest, DuplicateDeliversHandlerTwice) {
  Build(2);
  network_->set_duplicate_probability(1.0);
  int handled = 0;
  network_->RegisterEndpoint(
      1, [&](DcId, const std::string*) -> sim::Coro<std::string> {
        ++handled;
        co_return "pong";
      });
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(handled, 2);  // both copies reach the handler
  EXPECT_EQ(network_->messages_duplicated(), 1u);
}

TEST_F(NetworkTest, ReorderHoldsMessageBackWithinBound) {
  NetworkOptions options;
  options.reorder_probability = 1.0;
  options.reorder_extra_max = 20 * kMillisecond;
  Build(2, options);
  std::optional<StringCall> result;
  TimeMicros completed_at = -1;
  AwaitThen(network_->Call(0, 1, "x"), [&](StringCall&& r) {
    result = std::move(r);
    completed_at = sim_.Now();
  });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok());
  // Both legs drew an extra in (0, 20 ms]; total must exceed the clean RTT
  // and stay under RTT + 2 * extra_max (plus delivery-event slack).
  EXPECT_GT(completed_at, kRtt);
  EXPECT_LE(completed_at, kRtt + 2 * options.reorder_extra_max + 2);
  EXPECT_EQ(network_->messages_reordered(), 2u);  // request + response
}

TEST_F(NetworkTest, DeliveryFaultsAreDeterministicPerSeed) {
  // Same seed, same call pattern -> identical delivery schedule, twice.
  auto run_once = [&](std::vector<TimeMicros>* completions,
                      uint64_t* duplicated, uint64_t* reordered) {
    sim::Simulator sim;
    NetworkOptions options;
    options.seed = 42;
    options.latency_jitter = 0.1;
    options.duplicate_probability = 0.3;
    options.reorder_probability = 0.3;
    options.reorder_extra_max = 15 * kMillisecond;
    std::vector<std::vector<TimeMicros>> rtt(
        3, std::vector<TimeMicros>(3, kRtt));
    StringNetwork network(&sim, rtt, options);
    for (DcId dc = 0; dc < 3; ++dc) {
      network.RegisterEndpoint(dc, EchoHandler(dc));
    }
    for (int i = 0; i < 40; ++i) {
      AwaitThen(network.Call(0, 1 + i % 2, std::to_string(i)),
                [&](StringCall&&) { completions->push_back(sim.Now()); });
      sim.Run();
    }
    *duplicated = network.messages_duplicated();
    *reordered = network.messages_reordered();
  };
  std::vector<TimeMicros> first, second;
  uint64_t dup1 = 0, dup2 = 0, re1 = 0, re2 = 0;
  run_once(&first, &dup1, &re1);
  run_once(&second, &dup2, &re2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(dup1, dup2);
  EXPECT_EQ(re1, re2);
  EXPECT_GT(dup1, 0u);  // the sweep actually exercised both faults
  EXPECT_GT(re1, 0u);
}

TEST_F(NetworkTest, FaultStreamNeverPerturbsPrimarySchedule) {
  // With jitter on (so the main RNG stream is live), enabling duplication
  // must leave every primary copy's round trip untouched: duplicate
  // scheduling and the duplicate's response leg draw only from the fault
  // stream. Round trips, not completion times: each call is sent when the
  // previous run ended, and a duplicate's answer ends its run later.
  auto run_once = [&](double duplicate_probability,
                      std::vector<TimeMicros>* completions) {
    sim::Simulator sim;
    NetworkOptions options;
    options.seed = 7;
    options.latency_jitter = 0.1;
    options.duplicate_probability = duplicate_probability;
    std::vector<std::vector<TimeMicros>> rtt(
        2, std::vector<TimeMicros>(2, kRtt));
    StringNetwork network(&sim, rtt, options);
    network.RegisterEndpoint(1, EchoHandler(1));
    for (int i = 0; i < 30; ++i) {
      const TimeMicros sent = sim.Now();
      AwaitThen(network.Call(0, 1, std::to_string(i)), [&](StringCall&&) {
        completions->push_back(sim.Now() - sent);
      });
      sim.Run();
    }
  };
  std::vector<TimeMicros> clean, duplicated;
  run_once(0.0, &clean);
  run_once(1.0, &duplicated);
  EXPECT_EQ(clean, duplicated);
}

/// Request-leg and response-leg delays of one call, "leg", sent from dc 0
/// to dc 1 after `noise` unrelated shared-stream calls in the same
/// microsecond, on `stream` (null: the shared stream). Jitter and loss on.
struct LegDelays {
  TimeMicros request = -1;
  TimeMicros response = -1;
  bool operator==(const LegDelays&) const = default;
};
LegDelays DelaysAfterNoise(int noise, DelayStream* stream) {
  sim::Simulator sim;
  NetworkOptions options;
  options.seed = 3;
  options.latency_jitter = 0.1;
  options.loss_probability = 0.05;
  std::vector<std::vector<TimeMicros>> rtt(3,
                                           std::vector<TimeMicros>(3, kRtt));
  StringNetwork network(&sim, rtt, options);
  LegDelays delays;
  for (DcId dc = 0; dc < 3; ++dc) {
    network.RegisterEndpoint(
        dc, [&sim, &delays](DcId, const std::string* request)
                -> sim::Coro<std::string> {
          if (*request == "leg") delays.request = sim.Now();
          co_return *request;
        });
  }
  for (int i = 0; i < noise; ++i) network.Call(0, 1 + i % 2, "noise");
  AwaitThen(network.Call(0, 1, "leg", stream), [&](StringCall&& r) {
    if (r.status.ok()) delays.response = sim.Now() - delays.request;
  });
  sim.Run();
  return delays;
}

TEST(NetworkStreamTest, OwnStreamDelaysIgnoreSharedTraffic) {
  // A call on its own delay stream draws its loss and both legs' jitter
  // from that stream alone, so unrelated shared-stream traffic sent before
  // it in the same microsecond cannot move it. On the shared stream the
  // same traffic does.
  DelayStream stream(22);
  const LegDelays quiet = DelaysAfterNoise(0, &stream);
  ASSERT_GT(quiet.request, 0);
  ASSERT_GT(quiet.response, 0);
  for (int noise : {1, 2, 5}) {
    DelayStream fresh(22);
    EXPECT_EQ(DelaysAfterNoise(noise, &fresh), quiet) << noise;
  }
  const LegDelays shared_quiet = DelaysAfterNoise(0, nullptr);
  ASSERT_GT(shared_quiet.response, 0);
  EXPECT_NE(DelaysAfterNoise(5, nullptr), shared_quiet);
}

TEST_F(NetworkTest, DuplicateRespectsOutageWindows) {
  // The duplicate captures the same channel epoch as its original (D6): a
  // flap between the primary delivery and the duplicate's later delivery
  // kills the duplicate even though the link is up again when it arrives.
  NetworkOptions options = TimeoutOf(100 * kMillisecond);
  options.duplicate_probability = 1.0;
  options.reorder_extra_max = 20 * kMillisecond;  // bounds the dup lag
  Build(2, options);
  int handled = 0;
  network_->RegisterEndpoint(
      1, [&](DcId, const std::string*) -> sim::Coro<std::string> {
        ++handled;
        co_return "pong";
      });
  std::optional<StringCall> result;
  AwaitThen(network_->Call(0, 1, "x"),
            [&](StringCall&& r) { result = std::move(r); });
  // Primary arrives at 5 ms; the duplicate lags it by (0, 20 ms]. Flap the
  // destination down/up in between: epoch bumped, duplicate dead on
  // arrival.
  sim_.ScheduleAfter(5 * kMillisecond + 100,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.ScheduleAfter(5 * kMillisecond + 200,
                     [&] { network_->SetDatacenterDown(1, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(handled, 1);  // only the primary copy was delivered
  EXPECT_EQ(network_->messages_duplicated(), 1u);
}

TEST_F(NetworkTest, RecoveredDatacenterServesAgain) {
  Build(2, TimeoutOf(20 * kMillisecond));
  network_->SetDatacenterDown(1, true);
  std::optional<StringCall> first, second;
  AwaitThen(network_->Call(0, 1, "a"),
            [&](StringCall&& r) { first = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(first->status.IsTimedOut());

  network_->SetDatacenterDown(1, false);
  AwaitThen(network_->Call(0, 1, "b"),
            [&](StringCall&& r) { second = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(second->status.ok());
}

// ---- One-way messages (ARCHITECTURE.md design note D15) -------------------
// A Multicast target that is not asked to answer gets a one-way message: a
// request leg like a call's, with its loss, outage and duplicate faults and
// its handler run, but no promise, no timeout and no response leg.

class OneWayTest : public NetworkTest {
 protected:
  /// Jitter-free 3-datacenter network whose handlers take 10 ms and count
  /// their runs per datacenter.
  void Build3(NetworkOptions options = {}) {
    Build(3, options);
    for (DcId dc = 0; dc < 3; ++dc) {
      network_->RegisterEndpoint(
          dc, [this, dc](DcId, const std::string* request)
                  -> sim::Coro<std::string> {
            ++handled_[dc];
            co_await sim::SleepFor(&sim_, 10 * kMillisecond);
            co_return std::to_string(dc) + ":" + *request;
          });
    }
  }

  std::vector<StringNetwork::CallFuture> MulticastFromDc0(
      StringNetwork::Answering answering) {
    return network_->Multicast(0, {0, 1, 2}, "m", answering);
  }

  int handled_[3] = {0, 0, 0};
};

TEST_F(OneWayTest, OnlyTheSenderAnswers) {
  Build3();
  std::vector<StringNetwork::CallFuture> calls =
      MulticastFromDc0(StringNetwork::Answering::kSender);
  ASSERT_EQ(calls.size(), 1u);
  std::optional<StringCall> answer;
  AwaitThen(std::move(calls[0]), [&](StringCall&& r) { answer = std::move(r); });
  sim_.Run();
  EXPECT_EQ(handled_[0], 1);
  EXPECT_EQ(handled_[1], 1);
  EXPECT_EQ(handled_[2], 1);
  // Three request legs and dc 0's response leg; dc 0's is the one call.
  EXPECT_EQ(network_->messages_sent(), 4u);
  EXPECT_EQ(network_->calls_started(), 1u);
  ASSERT_TRUE(answer.has_value());
  ASSERT_TRUE(answer->status.ok()) << answer->status.ToString();
  EXPECT_EQ(answer->response, "0:m");
}

TEST_F(OneWayTest, NoEventOutlivesTheLastHandler) {
  // Nothing waits for a one-way message, so once the last handler (dc 1's
  // and dc 2's: 5 ms out, 10 ms served) returns, the queue is empty: the
  // run ends about 15 ms in, not at the 2 s timeout a call would arm.
  Build3();
  EXPECT_TRUE(MulticastFromDc0(StringNetwork::Answering::kNone).empty());
  sim_.Run();
  EXPECT_EQ(handled_[0] + handled_[1] + handled_[2], 3);
  EXPECT_EQ(network_->messages_sent(), 3u);
  EXPECT_EQ(network_->calls_started(), 0u);
  EXPECT_GE(sim_.Now(), 15 * kMillisecond);
  EXPECT_LT(sim_.Now(), 16 * kMillisecond);
}

TEST_F(OneWayTest, OutageDropsTheOneWayCopy) {
  Build3();
  network_->SetDatacenterDown(2, true);
  EXPECT_EQ(MulticastFromDc0(StringNetwork::Answering::kSender).size(), 1u);
  sim_.Run();
  EXPECT_EQ(handled_[0], 1);
  EXPECT_EQ(handled_[1], 1);
  EXPECT_EQ(handled_[2], 0);
  EXPECT_EQ(network_->messages_sent(), 4u);
  EXPECT_EQ(network_->messages_dropped(), 1u);
}

TEST_F(OneWayTest, DuplicateRunsTheHandlerTwiceAndStillSendsNoAnswer) {
  NetworkOptions options;
  options.duplicate_probability = 1.0;
  Build3(options);
  EXPECT_TRUE(network_->Multicast(0, {1}, "m", StringNetwork::Answering::kNone)
                  .empty());
  sim_.Run();
  EXPECT_EQ(handled_[1], 2);
  EXPECT_EQ(network_->messages_duplicated(), 1u);
  EXPECT_EQ(network_->messages_sent(), 2u);  // two request legs, no answer
  EXPECT_EQ(network_->calls_started(), 0u);
}


// ---- Golden delivery schedule --------------------------------------------
// One scenario with jitter, loss, duplication, reordering and an outage all
// active at once, pinned to exact completion times, responses and counters.
// The expected transcripts are fixed: a change to the draw order of either
// random stream, or to the order in which legs are scheduled, shows here.

/// Runs the scenario and returns its transcript: each call's completion
/// time and response (T for a timeout), the final broadcast, and the
/// network's counters with the per-datacenter handler runs.
std::string GoldenScheduleTranscript(uint64_t seed) {
  sim::Simulator sim;
  NetworkOptions options = TimeoutOf(40 * kMillisecond);
  options.seed = seed;
  options.latency_jitter = 0.2;
  options.loss_probability = 0.1;
  options.duplicate_probability = 0.3;
  options.reorder_probability = 0.3;
  options.reorder_extra_max = 15 * kMillisecond;
  std::vector<std::vector<TimeMicros>> rtt(3, std::vector<TimeMicros>(3));
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      rtt[a][b] = a == b ? 1000 : kRtt + 5 * kMillisecond * std::abs(a - b);
    }
  }
  StringNetwork network(&sim, rtt, options);
  int handled[3] = {0, 0, 0};
  for (DcId dc = 0; dc < 3; ++dc) {
    // dc1 suspends for a service time, so its response leaves from a
    // resumed handler rather than from the delivery event.
    network.RegisterEndpoint(
        dc, [&sim, &handled, dc](DcId, const std::string* request)
                -> sim::Coro<std::string> {
          ++handled[dc];
          if (dc == 1) co_await sim::SleepFor(&sim, 2 * kMillisecond);
          co_return std::to_string(dc) + ":" + *request;
        });
  }
  // Every (from, to) pair, intra-datacenter included, one call per 2 ms.
  constexpr int kCalls = 40;
  std::vector<std::string> calls(kCalls, "-");
  for (int i = 0; i < kCalls; ++i) {
    sim.ScheduleAt(i * 2 * kMillisecond, [&, i] {
      const DcId from = i % 3;
      const DcId to = (i / 3) % 3;
      AwaitThen(network.Call(from, to, std::to_string(i)),
                [&, i](StringCall&& r) {
                  std::ostringstream line;
                  line << sim.Now() << "="
                       << (r.status.ok() ? r.response : "T");
                  calls[i] = line.str();
                });
    });
  }
  // dc2 is down from 30 ms to 50 ms, in the middle of the calls.
  sim.ScheduleAt(30 * kMillisecond, [&] { network.SetDatacenterDown(2, true); });
  sim.ScheduleAt(50 * kMillisecond,
                 [&] { network.SetDatacenterDown(2, false); });
  std::string broadcast = "-";
  sim.ScheduleAt(100 * kMillisecond, [&] {
    AwaitThen(network.Broadcast(1, {0, 1, 2}, "b"),
              [&](StringBroadcast&& r) {
                std::ostringstream line;
                line << sim.Now();
                for (const auto& t : r) {
                  line << " " << t.dc << "="
                       << (t.status.ok() ? t.response : "T");
                }
                broadcast = line.str();
              });
  });
  sim.Run();

  std::ostringstream out;
  for (int i = 0; i < kCalls; ++i) {
    out << "c" << i << "@" << calls[i] << (i % 4 == 3 ? "\n" : " ");
  }
  out << "broadcast@" << broadcast << "\n"
      << "sent=" << network.messages_sent()
      << " dropped=" << network.messages_dropped()
      << " calls=" << network.calls_started()
      << " duplicated=" << network.messages_duplicated()
      << " reordered=" << network.messages_reordered() << " handled="
      << handled[0] << "/" << handled[1] << "/" << handled[2] << "\n";
  return out.str();
}

TEST(NetworkGoldenTest, DeliveryScheduleMatchesGolden) {
  const std::map<uint64_t, std::string> golden = {
      {1, R"(c0@1044=0:0 c1@15619=0:1 c2@20895=0:2 c3@46000=T
c4@11062=1:4 c5@50000=T c6@36575=2:6 c7@27299=2:7
c8@16904=2:8 c9@19021=0:9 c10@35684=0:10 c11@62000=T
c12@44192=1:12 c13@29025=1:13 c14@68000=T c15@70000=T
c16@72000=T c17@74000=T c18@37025=0:18 c19@59564=0:19
c20@80000=T c21@57990=1:21 c22@46968=1:22 c23@86000=T
c24@88000=T c25@90000=T c26@52977=2:26 c27@55064=0:27
c28@70554=0:28 c29@90153=0:29 c30@83337=1:30 c31@65037=1:31
c32@80805=1:32 c33@85820=2:33 c34@108000=T c35@71018=2:35
c36@72986=0:36 c37@96579=0:37 c38@103489=0:38 c39@95885=1:39
broadcast@122003 0=0:b 1=1:b 2=2:b
sent=90 dropped=14 calls=43 duplicated=7 reordered=12 handled=18/13/9
)"},
      {2, R"(c0@965=0:0 c1@18284=0:1 c2@23842=0:2 c3@28473=1:3
c4@11113=1:4 c5@26809=1:5 c6@41321=2:6 c7@28082=2:7
c8@16901=2:8 c9@18969=0:9 c10@34197=0:10 c11@62000=T
c12@47428=1:12 c13@28983=1:13 c14@68000=T c15@70000=T
c16@72000=T c17@74000=T c18@37067=0:18 c19@51332=0:19
c20@80000=T c21@66378=1:21 c22@46961=1:22 c23@86000=T
c24@88000=T c25@90000=T c26@53065=2:26 c27@55105=0:27
c28@73083=0:28 c29@98000=T c30@93333=1:30 c31@64882=1:31
c32@79946=1:32 c33@106000=T c34@82986=2:34 c35@70966=2:35
c36@73039=0:36 c37@114000=T c38@98919=0:38 c39@114619=1:39
broadcast@129179 0=0:b 1=1:b 2=2:b
sent=87 dropped=13 calls=43 duplicated=5 reordered=13 handled=14/16/9
)"},
      {3, R"(c0@1066=0:0 c1@27930=0:1 c2@22058=0:2 c3@36561=1:3
c4@11138=1:4 c5@28654=1:5 c6@42155=2:6 c7@38231=2:7
c8@16931=2:8 c9@19178=0:9 c10@34454=0:10 c11@62000=T
c12@42670=1:12 c13@28992=1:13 c14@59607=1:14 c15@70000=T
c16@72000=T c17@74000=T c18@36940=0:18 c19@57712=0:19
c20@80000=T c21@65582=1:21 c22@47027=1:22 c23@86000=T
c24@88000=T c25@90000=T c26@53038=2:26 c27@55137=0:27
c28@69735=0:28 c29@98000=T c30@83537=1:30 c31@65125=1:31
c32@91855=1:32 c33@86058=2:33 c34@83333=2:34 c35@71027=2:35
c36@72909=0:36 c37@88451=0:37 c38@116000=T c39@95927=1:39
broadcast@121980 0=0:b 1=1:b 2=2:b
sent=97 dropped=13 calls=43 duplicated=11 reordered=14 handled=15/18/10
)"},
  };
  for (const auto& [seed, expected] : golden) {
    EXPECT_EQ(GoldenScheduleTranscript(seed), expected) << "seed " << seed;
  }
}

// ---- Copies ----------------------------------------------------------------

/// A message that counts how often it is copied; moves are free.
struct Counted {
  Counted() = default;
  explicit Counted(int* counter) : copies(counter) {}
  Counted(const Counted& other) : copies(other.copies) { ++*copies; }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(const Counted& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  Counted& operator=(Counted&&) noexcept = default;

  int* copies = nullptr;
};
using CountedNetwork = Network<Counted, Counted>;

TEST(NetworkCopyTest, BroadcastSharesOneRequestCopyAndMovesResponses) {
  sim::Simulator sim;
  NetworkOptions options;
  options.duplicate_probability = 1.0;
  std::vector<std::vector<TimeMicros>> rtt(5,
                                           std::vector<TimeMicros>(5, kRtt));
  CountedNetwork network(&sim, rtt, options);
  int request_copies = 0;
  int response_copies = 0;
  int runs = 0;
  std::set<const Counted*> addresses;
  for (DcId dc = 0; dc < 5; ++dc) {
    network.RegisterEndpoint(
        dc, [&](DcId, const Counted* request) -> sim::Coro<Counted> {
          ++runs;
          addresses.insert(request);
          co_return Counted(&response_copies);
        });
  }
  const Counted request(&request_copies);
  std::optional<CountedNetwork::BroadcastResult> result;
  AwaitThen(network.Broadcast(0, {0, 1, 2, 3, 4}, request),
            [&](CountedNetwork::BroadcastResult&& r) {
              result = std::move(r);
            });
  sim.Run();

  ASSERT_TRUE(result.has_value());
  for (const auto& t : *result) EXPECT_TRUE(t.status.ok()) << t.dc;
  EXPECT_EQ(network.messages_duplicated(), 4u);  // every remote target
  EXPECT_EQ(runs, 9);                            // 5 originals, 4 copies
  EXPECT_LE(request_copies, 1);
  EXPECT_EQ(addresses.size(), 1u);
  EXPECT_EQ(response_copies, 0);
}

}  // namespace
}  // namespace paxoscp::net
