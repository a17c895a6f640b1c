// Simulated multi-datacenter network. Substitutes for the paper's EC2
// deployment (Virginia x3, Oregon, California over UDP): point-to-point
// latencies come from an RTT matrix, messages can be lost or delayed, whole
// datacenters and individual links can be taken down, and every request is
// bounded by a timeout — exactly the failure model in paper §2.2 ("either
// the message arrives before a known timeout or it is lost").
//
// Network<Request, Response> carries one typed request/response pair; the
// protocol instantiates it with txn::ServiceRequest / ServiceResponse
// (txn/messages.h), so net/ depends on nothing in txn/. Everything that
// does not depend on the message types — topology, delay and loss model,
// outage epochs, delivery faults and counters — is the untyped NetworkBase,
// which the fault injector drives.
//
// Every call resolves a sim::Future, which its caller consumes by awaiting
// it (sim/coro.h). A one-way message is a call without the answer: its
// handler runs, but nothing waits for it (docs/ARCHITECTURE.md, D15).
// Broadcast gathers its targets' results with one small detached Task per
// target that awaits that target's call, and resolves once every target
// answered or timed out, or sooner, once the caller's settle predicate
// holds on the answers so far (docs/ARCHITECTURE.md, D13).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/coro.h"
#include "sim/race_hooks.h"
#include "sim/simulator.h"

namespace paxoscp::net {

/// Outcome of a single RPC.
template <typename Response>
struct CallResult {
  Status status;      // OK, TimedOut, or Unavailable
  Response response;  // valid iff status.ok()
};

/// Outcome of one target within a Broadcast.
template <typename Response>
struct TargetResult {
  DcId dc = kNoDc;
  Status status;
  Response response;
};

struct NetworkOptions {
  /// Probability that any single one-way message is silently dropped.
  double loss_probability = 0.0;
  /// One-way delay is rtt/2 * (1 + U(-jitter, +jitter)).
  double latency_jitter = 0.10;
  /// The one RPC timeout (paper §2.2: 2 seconds): a call that no answer
  /// reaches within it resolves TimedOut.
  TimeMicros rpc_timeout = 2 * kSecond;
  /// RNG seed for delay jitter and loss decisions.
  uint64_t seed = 1;

  // -- Adversarial delivery faults (docs/ARCHITECTURE.md, D10) --------------
  // All randomness below draws from a dedicated fault stream (never the
  // jitter/loss stream), so enabling these faults does not perturb the
  // delivery schedule of the messages they leave alone, and plans without
  // them replay byte-identically to a network that predates the feature.

  /// Probability that an inter-datacenter request is delivered twice: the
  /// copy travels independently (same outage-epoch capture, own delivery
  /// event), so the destination handler runs twice — the service-side
  /// idempotence this repo's 2PC records must provide.
  double duplicate_probability = 0.0;
  /// Probability that a one-way message is held back by an extra delay in
  /// (0, reorder_extra_max], letting later sends overtake it (delivery is
  /// already not FIFO under jitter; this widens the window adversarially).
  double reorder_probability = 0.0;
  /// Max extra delay of a reordered message, and max lag of a duplicate
  /// copy behind its original.
  TimeMicros reorder_extra_max = 200 * kMillisecond;
};

/// A sender's own source of message delays (docs/ARCHITECTURE.md, D10). A
/// call sent without one draws its jitter and loss from the network's
/// shared stream, so its delays depend on how many messages were sent
/// before it — and messages sent in the same microsecond draw in whatever
/// order their events run. A call sent on a DelayStream draws its request
/// leg, its response leg and both loss decisions from that stream alone.
/// The sender owns the stream and keeps it alive while its calls are in
/// flight. Its race-detector cell is `net/rng/<seed>`; the shared stream's
/// is `net/rng`.
struct DelayStream {
  explicit DelayStream(uint64_t stream_seed)
      : rng(stream_seed), seed(stream_seed) {}

  Rng rng;
  uint64_t seed;
};

/// The part of the network that does not depend on the message types: it
/// decides, for each one-way message, whether it is lost and how long it
/// travels, and counts what it decided.
class NetworkBase {
 public:
  /// `rtt_matrix[a][b]` is the round-trip time between datacenters a and b
  /// in microseconds; the diagonal models intra-datacenter hops.
  NetworkBase(sim::Simulator* sim,
              std::vector<std::vector<TimeMicros>> rtt_matrix,
              NetworkOptions options);

  int num_datacenters() const { return static_cast<int>(rtt_.size()); }

  // -- Fault injection ------------------------------------------------------
  //
  // In-flight semantics (docs/ARCHITECTURE.md, design note D6): a message is
  // lost if its destination datacenter, or the directed link it travels,
  // goes down at any point between send and delivery — even if the fault
  // heals before the scheduled arrival (a down->up flap inside one flight
  // window still loses the message). A message whose *source* goes down
  // after it left is delivered normally, and responses already delivered to
  // the caller are never retracted. Implemented with per-destination and
  // per-directed-link outage epochs captured at send time.

  /// Takes a whole datacenter off the network (drops inbound and outbound).
  void SetDatacenterDown(DcId dc, bool down);
  bool IsDatacenterDown(DcId dc) const { return dc_down_[dc]; }

  /// Severs the (bidirectional) link between two datacenters.
  void SetLinkDown(DcId a, DcId b, bool down);

  /// Severs only the `from` -> `to` direction (asymmetric cut: requests one
  /// way still flow while the reverse direction is black-holed).
  void SetLinkOneWayDown(DcId from, DcId to, bool down);
  bool IsLinkDown(DcId from, DcId to) const { return link_down_[from][to]; }

  void set_loss_probability(double p) { options_.loss_probability = p; }
  double loss_probability() const { return options_.loss_probability; }

  // Adversarial delivery faults (see NetworkOptions). Setters are used by
  // the fault injector for kDuplicateBurst / kReorderBurst episodes.
  void set_duplicate_probability(double p) {
    options_.duplicate_probability = p;
  }
  double duplicate_probability() const { return options_.duplicate_probability; }
  void set_reorder_probability(double p) { options_.reorder_probability = p; }
  double reorder_probability() const { return options_.reorder_probability; }
  void set_reorder_extra_max(TimeMicros t) { options_.reorder_extra_max = t; }
  TimeMicros reorder_extra_max() const { return options_.reorder_extra_max; }

  // -- Statistics (used to verify the paper's message-complexity claim) -----

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t calls_started() const { return calls_started_; }
  uint64_t messages_duplicated() const { return messages_duplicated_; }
  uint64_t messages_reordered() const { return messages_reordered_; }
  void ResetStats();

  sim::Simulator* simulator() const { return sim_; }
  TimeMicros rpc_timeout() const { return options_.rpc_timeout; }

 protected:
  /// Which copy of a request a message belongs to. A duplicate draws every
  /// random decision from the fault stream, so the original's schedule —
  /// and every other message's — is the same whether or not it exists.
  enum class Copy : uint8_t { kOriginal, kDuplicate };

  /// Send side of one one-way message: counts it and draws whether it is
  /// lost (outage, severed link, or loss from `copy`'s stream). False means
  /// it is lost at send, counted as dropped. An original draws from
  /// `stream`, or from the shared stream when it is null.
  bool Depart(Copy copy, DelayStream* stream, DcId from, DcId to);
  /// One-way delay of a departed message: the original's jittered delay
  /// (from `stream`, or the shared stream) plus any reorder extra, or a
  /// duplicate's jittered delay drawn from the fault stream. A duplicated
  /// request instead trails its original by ExtraDelay().
  TimeMicros LegDelay(Copy copy, DelayStream* stream, DcId from, DcId to);
  /// Draws (fault stream) whether a request is also delivered a second
  /// time; counts the duplicate when it is.
  bool DrawDuplicate(DcId from, DcId to);
  /// U(1, reorder_extra_max) from the fault stream: how far a reordered
  /// message is held back, and how far a duplicated request trails its
  /// original.
  TimeMicros ExtraDelay();
  /// Delivery-time check of a message that departed under `epoch`: false
  /// (counted as dropped) if the destination is down, or if it or the link
  /// went down at any point in flight — a heal before arrival does not
  /// resurrect it.
  bool Arrives(DcId from, DcId to, uint64_t epoch);
  /// Outage epoch of the `from` -> `to` channel. Captured when a message is
  /// sent; if it changed by delivery time the message crossed a fault window
  /// and is lost (see the in-flight semantics note above).
  uint64_t ChannelEpoch(DcId from, DcId to) const {
    return dc_epoch_[to] + link_epoch_[from][to];
  }

  sim::Simulator* sim_;
  uint64_t messages_dropped_ = 0;
  uint64_t calls_started_ = 0;

 private:
  /// The stream a draw for `copy` comes from — the fault stream for a
  /// duplicate, else `stream`, else the shared stream — after recording the
  /// draw as a write of that stream's race-detector cell.
  Rng* Draw(Copy copy, DelayStream* stream);
  /// Samples the one-way delay from `from` to `to` (see Draw).
  TimeMicros SampleDelay(Copy copy, DelayStream* stream, DcId from, DcId to);
  /// True if the message should be dropped (loss, outage, severed link),
  /// drawing the loss decision as SampleDelay does.
  bool ShouldDrop(Copy copy, DelayStream* stream, DcId from, DcId to);
  /// Extra reorder delay for one leg: 0 unless a reorder fault is active, in
  /// which case a Bernoulli(reorder_probability) draw from the fault stream
  /// holds the message back by ExtraDelay(). Never touches rng_.
  TimeMicros MaybeReorderExtra(DcId from, DcId to);

  std::vector<std::vector<TimeMicros>> rtt_;
  NetworkOptions options_;
  Rng rng_;
  /// Dedicated stream for duplication/reorder faults; only advanced while
  /// the corresponding probability is non-zero, so fault-free runs are
  /// bit-identical with the feature compiled in.
  Rng fault_rng_;
  std::vector<bool> dc_down_;
  std::vector<std::vector<bool>> link_down_;
  /// Incremented every time the datacenter / directed link goes down.
  std::vector<uint64_t> dc_epoch_;
  std::vector<std::vector<uint64_t>> link_epoch_;

  uint64_t messages_sent_ = 0;
  uint64_t messages_duplicated_ = 0;
  uint64_t messages_reordered_ = 0;
};

/// The network for one request/response message pair.
template <typename Request, typename Response>
class Network : public NetworkBase {
 public:
  /// A service endpoint: receives a request (with the caller's DcId) and
  /// produces a response, possibly suspending (e.g. to learn a log entry).
  /// The request is passed by pointer — it is the network's shared copy and
  /// outlives the handler coroutine. (Coroutine parameters must be trivially
  /// destructible on this toolchain; see sim/coro.h.)
  using Handler =
      std::function<sim::Coro<Response>(DcId from, const Request* request)>;
  using CallFuture = sim::Future<CallResult<Response>>;
  using BroadcastResult = std::vector<TargetResult<Response>>;
  /// Whether a broadcast's answers so far decide it (see Broadcast).
  using Settle = std::function<bool(const BroadcastResult&)>;
  /// Which targets of a Multicast answer; the others get a one-way copy.
  enum class Answering : uint8_t {
    kAll,     // every target (Broadcast)
    kSender,  // only the target in the sender's own datacenter (an apply)
    kNone,    // no target (the learner's apply)
  };

  Network(sim::Simulator* sim, std::vector<std::vector<TimeMicros>> rtt_matrix,
          NetworkOptions options)
      : NetworkBase(sim, std::move(rtt_matrix), options),
        handlers_(num_datacenters()) {}

  /// Installs the handler that serves requests arriving at `dc`.
  void RegisterEndpoint(DcId dc, Handler handler) {
    assert(dc >= 0 && dc < num_datacenters());
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite, {"net", "endpoint", dc});
    }
    handlers_[dc] = std::move(handler);
  }

  /// Sends `request` from `from` to `to`; resolves with the response, or
  /// TimedOut once rpc_timeout() has passed without one. `stream` null
  /// draws the delays from the shared stream (see DelayStream). The
  /// request is taken by reference and copied once, before Call returns —
  /// callers in coroutines must pass a named object, never a temporary
  /// inside a co_await expression (see sim/coro.h on GCC 12
  /// cross-suspension temporary hazards).
  CallFuture Call(DcId from, DcId to, const Request& request,
                  DelayStream* stream = nullptr) {
    return Send(from, to, std::make_shared<const Request>(request), stream);
  }

  /// Sends `request` to every target in parallel, served from one copy of
  /// the request. Each target `answering` selects gets a Call, and the
  /// returned futures are theirs, ordered as `targets`. Every other target
  /// gets a one-way message: like a call's request leg it is counted in
  /// messages_sent(), can be lost, reordered or duplicated, is checked
  /// against outage epochs, and runs its handler; unlike a call it has no
  /// promise, no timeout and no response leg, and is not counted in
  /// calls_started(). A caller that only needs some answers awaits those
  /// and drops the rest; a dropped future costs no event when its call
  /// ends.
  std::vector<CallFuture> Multicast(DcId from,
                                    const std::vector<DcId>& targets,
                                    const Request& request,
                                    Answering answering,
                                    DelayStream* stream = nullptr);

  /// Multicast with every target answering, resolved once every target has
  /// responded or timed out — the paper's client keeps collecting votes
  /// until the timeout window closes, so it sees "more than a simple
  /// majority" of responses (§5) — or, when `settle` is given, at the first
  /// response after which `settle` holds on the results so far. Targets
  /// still in flight then read Unavailable; their answers still arrive, and
  /// are dropped. The result vector is ordered as `targets`.
  sim::Future<BroadcastResult> Broadcast(DcId from,
                                         const std::vector<DcId>& targets,
                                         const Request& request,
                                         DelayStream* stream = nullptr,
                                         Settle settle = nullptr);

 private:
  /// The caller's side of a call: its promise, and its timeout event,
  /// which the first answer cancels.
  struct Reply {
    sim::Promise<CallResult<Response>> promise;
    sim::EventId timeout;
  };

  /// One copy of a request, from departure to its response leg. The
  /// request-leg event, the handler run and the response-leg event own it
  /// in turn.
  struct Delivery {
    Copy copy;
    DcId from;
    DcId to;
    DelayStream* stream;  // the sender's, or null for the shared stream
    std::shared_ptr<const Request> request;
    /// The call's; empty for a one-way message, which has no response leg.
    std::optional<Reply> reply;
    uint64_t epoch = 0;  // channel epoch captured when the current leg left
    /// The endpoint as registered on arrival: re-registering it (a service
    /// restart) while this copy is served keeps the running closure alive.
    Handler handler;
    Response response{};
  };

  /// One Broadcast in progress: the caller's promise, a result slot per
  /// target (in target order, Unavailable until the target resolves), how
  /// many targets are still unresolved, and the caller's settle predicate.
  struct Aggregator {
    Aggregator(sim::Promise<BroadcastResult> p, size_t n, Settle s)
        : promise(std::move(p)),
          results(n),
          unresolved(n),
          settle(std::move(s)) {}

    sim::Promise<BroadcastResult> promise;
    BroadcastResult results;
    size_t unresolved;
    Settle settle;
  };

  CallFuture Send(DcId from, DcId to, std::shared_ptr<const Request> request,
                  DelayStream* stream);
  /// Sends the request leg of a call, or a one-way message when `reply`
  /// is empty, and a duplicate copy when the fault stream draws one.
  void Dispatch(DcId from, DcId to, std::shared_ptr<const Request> request,
                DelayStream* stream, std::optional<Reply> reply);
  /// Delivers one copy of a request — the original or a duplicate — after
  /// `delay`, and hands it to the destination's handler.
  void Deliver(std::unique_ptr<Delivery> delivery, TimeMicros delay);
  /// Runs the handler, then sends the response leg of a call's copy. Takes
  /// ownership of `raw`; a pointer parameter because coroutine parameters
  /// must be trivially destructible (sim/coro.h).
  sim::Task Serve(Delivery* raw);
  /// Awaits target `index`'s call and fills its slot of `agg`; the last
  /// target to resolve, or the first after which the settle predicate
  /// holds, completes the broadcast, and later results are dropped. A
  /// result reaches the slot through one queued event and the broadcast's
  /// waiter through one more.
  static sim::Task Collect(CallFuture call, std::shared_ptr<Aggregator> agg,
                           size_t index);

  std::vector<Handler> handlers_;
};

template <typename Request, typename Response>
auto Network<Request, Response>::Send(DcId from, DcId to,
                                      std::shared_ptr<const Request> request,
                                      DelayStream* stream) -> CallFuture {
  ++calls_started_;

  sim::Promise<CallResult<Response>> promise(sim_);

  // Timeout: fires unless an answer arrives first and cancels it.
  const sim::EventId timeout_event = sim_->ScheduleAfter(
      rpc_timeout(),
      [promise] {
        promise.Set(CallResult<Response>{Status::TimedOut("rpc timeout"), {}});
      },
      "net/timeout");

  Dispatch(from, to, std::move(request), stream, Reply{promise, timeout_event});
  return promise.GetFuture();
}

template <typename Request, typename Response>
void Network<Request, Response>::Dispatch(
    DcId from, DcId to, std::shared_ptr<const Request> request,
    DelayStream* stream, std::optional<Reply> reply) {
  assert(from >= 0 && from < num_datacenters());
  assert(to >= 0 && to < num_datacenters());
  if (!Depart(Copy::kOriginal, stream, from, to)) return;
  const TimeMicros delay = LegDelay(Copy::kOriginal, stream, from, to);
  Deliver(std::make_unique<Delivery>(Copy::kOriginal, from, to, stream,
                                     request, reply),
          delay);

  // Duplicate-delivery fault: the request also arrives a second time, a
  // little behind the original. The destination handler runs twice —
  // exactly the re-delivered prepare/decide/apply the 2PC records must
  // tolerate. The copy is a message of its own: counted, lossy, and
  // epoch-checked against the same send-time epoch as the original.
  if (DrawDuplicate(from, to) && Depart(Copy::kDuplicate, stream, from, to)) {
    Deliver(std::make_unique<Delivery>(Copy::kDuplicate, from, to, stream,
                                       std::move(request), std::move(reply)),
            delay + ExtraDelay());
  }
}

template <typename Request, typename Response>
void Network<Request, Response>::Deliver(std::unique_ptr<Delivery> delivery,
                                         TimeMicros delay) {
  delivery->epoch = ChannelEpoch(delivery->from, delivery->to);
  const char* tag = delivery->copy == Copy::kOriginal ? "net/request-leg"
                                                      : "net/dup-request";
  sim_->ScheduleAfter(
      delay,
      [this, d = std::move(delivery)]() mutable {
        if (sim::race::Active()) {
          sim::race::Record(sim::race::AccessKind::kRead,
                            {"net", "endpoint", d->to});
        }
        if (!Arrives(d->from, d->to, d->epoch)) return;
        if (!handlers_[d->to]) {
          ++messages_dropped_;
          return;
        }
        d->handler = handlers_[d->to];
        Serve(d.release());
      },
      tag);
}

template <typename Request, typename Response>
sim::Task Network<Request, Response>::Serve(Delivery* raw) {
  std::unique_ptr<Delivery> d(raw);
  d->response = co_await d->handler(d->from, d->request.get());
  if (!d->reply) co_return;  // one-way: nobody waits for the answer
  // Response leg. A duplicate's response is invisible to the caller (the
  // promise is first-set-wins), but it still costs a message and can be
  // lost.
  if (!Depart(d->copy, d->stream, d->to, d->from)) co_return;
  const TimeMicros delay = LegDelay(d->copy, d->stream, d->to, d->from);
  d->epoch = ChannelEpoch(d->to, d->from);
  const char* tag =
      d->copy == Copy::kOriginal ? "net/response-leg" : "net/dup-response";
  sim_->ScheduleAfter(
      delay,
      [this, d = std::move(d)]() mutable {
        if (Arrives(d->to, d->from, d->epoch)) {
          d->reply->promise.Set(
              CallResult<Response>{Status::OK(), std::move(d->response)});
          // The call is answered: its timeout would only fire as a no-op.
          // A no-op itself when the timeout already fired or an earlier
          // copy's answer cancelled it.
          sim_->Cancel(d->reply->timeout);
        }
      },
      tag);
}

template <typename Request, typename Response>
auto Network<Request, Response>::Multicast(DcId from,
                                           const std::vector<DcId>& targets,
                                           const Request& request,
                                           Answering answering,
                                           DelayStream* stream)
    -> std::vector<CallFuture> {
  std::vector<CallFuture> calls;
  if (answering == Answering::kAll) calls.reserve(targets.size());
  const auto shared = std::make_shared<const Request>(request);
  for (const DcId to : targets) {
    if (answering == Answering::kAll ||
        (answering == Answering::kSender && to == from)) {
      calls.push_back(Send(from, to, shared, stream));
    } else {
      Dispatch(from, to, shared, stream, std::nullopt);
    }
  }
  return calls;
}

template <typename Request, typename Response>
auto Network<Request, Response>::Broadcast(DcId from,
                                           const std::vector<DcId>& targets,
                                           const Request& request,
                                           DelayStream* stream, Settle settle)
    -> sim::Future<BroadcastResult> {
  sim::Promise<BroadcastResult> promise(sim_);
  if (targets.empty()) {
    promise.Set(BroadcastResult{});
    return promise.GetFuture();
  }
  auto agg = std::make_shared<Aggregator>(promise, targets.size(),
                                          std::move(settle));
  for (size_t i = 0; i < targets.size(); ++i) {
    agg->results[i].dc = targets[i];
    agg->results[i].status = Status::Unavailable("in flight");
  }

  std::vector<CallFuture> calls =
      Multicast(from, targets, request, Answering::kAll, stream);
  for (size_t i = 0; i < calls.size(); ++i) {
    Collect(std::move(calls[i]), agg, i);
  }
  return promise.GetFuture();
}

template <typename Request, typename Response>
sim::Task Network<Request, Response>::Collect(CallFuture call,
                                              std::shared_ptr<Aggregator> agg,
                                              size_t index) {
  CallResult<Response> result = co_await call;
  if (agg->promise.IsSet()) co_return;  // settled without this target
  agg->results[index].status = std::move(result.status);
  agg->results[index].response = std::move(result.response);
  if (--agg->unresolved == 0 || (agg->settle && agg->settle(agg->results))) {
    agg->promise.Set(std::move(agg->results));
  }
}

}  // namespace paxoscp::net
