// First-class transaction handles (paper §2.2 / §4): `Txn` is a movable
// RAII handle owning the client-side state of one active transaction —
// read position, read set, buffered writes — obtained from
// `Session::Begin(group)`. Dropping an active handle aborts it (an abort
// is purely local: buffered state is discarded, no messages are sent).
//
// `Session` is the per-application-instance entry point: it wraps a
// cluster-owned TransactionClient and adds `RunTransaction`, the retry
// combinator every consumer of the old string-keyed API hand-rolled —
// re-run the body on conflict aborts with randomized backoff, bounded by
// attempts and a virtual-time deadline, and report one unified
// `TxnResult`.
//
// Misuse rules: committing twice or operating on a committed handle is a
// programming error (assert in debug builds, FailedPrecondition in
// release). A moved-from or default-constructed handle is *inert*: every
// operation fails gracefully and destruction is a no-op.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kvstore/store.h"
#include "sim/coro.h"
#include "txn/transaction.h"
#include "wal/log_entry.h"

namespace paxoscp::txn {

class TransactionClient;
class Session;
class CrossTxn;
struct CrossTxnState;
struct CrossCommitResult;

/// Unified transaction-fate taxonomy (paper §2.2/§4 outcomes), collapsing
/// the old Status / CommitResult::committed / read_only triage:
///   kCommitted      — read/write transaction decided into the log.
///   kReadOnly       — committed locally with no replication (paper §2.2:
///                     read-only commit automatically succeeds).
///   kConflict       — aborted by concurrency control (lost its log
///                     position to a conflicting transaction). Retryable:
///                     the transaction certainly did not commit.
///   kUnavailable    — the attempt never reached a commit decision (begin
///                     or read could not be served anywhere, or the body
///                     failed). The transaction certainly did not commit.
///   kUnknownOutcome — the commit protocol started but the client gave up
///                     without learning the decision (outage / no quorum).
///                     The cohort may still have decided the transaction;
///                     retrying could commit it twice.
enum class TxnOutcome {
  kCommitted,
  kReadOnly,
  kConflict,
  kUnavailable,
  kUnknownOutcome,
};

const char* OutcomeName(TxnOutcome outcome);

/// Maps a finished commit protocol run onto the taxonomy. Never returns
/// kUnavailable: a commit that ran but produced no decision is
/// kUnknownOutcome (the begin/read paths, which cannot have proposed
/// anything, are the only sources of kUnavailable).
TxnOutcome ClassifyCommit(const CommitResult& result);

namespace internal {

/// Frees the per-group active slots `state` holds on `client`: its one
/// group, or every participant of a cross-group transaction.
void ReleaseSlots(TransactionClient* client, const TxnState& state);
void ReleaseSlots(TransactionClient* client, const CrossTxnState& state);

/// The lifecycle Txn and CrossTxn share: a movable RAII handle owning the
/// heap-allocated `State` of one active transaction. Dropping an active
/// handle aborts it (local state drop, no messages — lost client state is
/// an implicit abort, paper §2.2); a moved-from or failed-begin handle is
/// inert; use after Commit/Abort asserts in debug builds.
template <typename State>
class Handle {
 public:
  Handle() = default;
  ~Handle() {
    if (phase_ == Phase::kActive) Release();
  }
  Handle(Handle&& other) noexcept
      : client_(std::exchange(other.client_, nullptr)),
        state_(std::move(other.state_)),
        phase_(std::exchange(other.phase_, Phase::kInert)),
        begin_status_(std::move(other.begin_status_)) {}
  Handle& operator=(Handle&& other) noexcept {
    if (this != &other) {
      if (phase_ == Phase::kActive) Release();
      client_ = std::exchange(other.client_, nullptr);
      state_ = std::move(other.state_);
      phase_ = std::exchange(other.phase_, Phase::kInert);
      begin_status_ = std::move(other.begin_status_);
    }
    return *this;
  }
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  /// True while the handle owns a live, uncommitted transaction.
  bool active() const { return phase_ == Phase::kActive; }
  /// Why the begin produced an inactive handle (OK when active).
  const Status& begin_status() const { return begin_status_; }

  /// Discards the transaction without committing (idempotent on inert
  /// handles; a programming error on finished ones).
  void Abort() {
    if (phase_ == Phase::kInert) return;
    assert(phase_ == Phase::kActive &&
           "Abort of a transaction handle after Commit/Abort");
    if (phase_ == Phase::kActive) Release();
  }

 protected:
  enum class Phase { kInert, kActive, kFinished };

  /// Inert handle carrying the begin failure.
  explicit Handle(Status begin_error)
      : begin_status_(std::move(begin_error)) {}
  /// Active handle (built by the client's begin).
  Handle(TransactionClient* client, std::unique_ptr<State> state)
      : client_(client), state_(std::move(state)), phase_(Phase::kActive) {}

  /// Asserts the handle is not being used after Commit/Abort; returns
  /// whether it is usable (kActive).
  bool Usable() const {
    assert(phase_ != Phase::kFinished &&
           "use of a transaction handle after Commit/Abort");
    return phase_ == Phase::kActive;
  }

  /// Commit start: the slots open as soon as the commit protocol starts
  /// (the buffered state is frozen, so a new transaction may begin while
  /// this commit is in flight) and the handle is finished. The state stays
  /// owned by the handle: the commit coroutine reads it while the caller
  /// awaits, which every `co_await txn.Commit()` guarantees.
  State* StartCommit() {
    ReleaseSlots(client_, *state_);
    phase_ = Phase::kFinished;
    return state_.get();
  }

  TransactionClient* client_ = nullptr;
  std::unique_ptr<State> state_;
  Phase phase_ = Phase::kInert;
  Status begin_status_;

 private:
  void Release() {
    ReleaseSlots(client_, *state_);
    state_.reset();
    phase_ = Phase::kFinished;
  }
};

}  // namespace internal

/// Movable RAII handle for one active transaction on one group.
class Txn : public internal::Handle<TxnState> {
 public:
  /// Inert handle: every operation returns FailedPrecondition.
  Txn() = default;

  TxnId id() const;
  LogPos read_pos() const;
  const std::string& group() const;
  /// Number of recorded snapshot reads (test hook; buffered-write reads
  /// never enter the read set, property A1).
  size_t read_set_size() const;

  /// Snapshot read at the transaction's read position. Reads of items the
  /// transaction already wrote return the buffered value (property A1);
  /// all other reads observe the read-position snapshot (property A2).
  /// A never-written item reads as the empty string.
  sim::Coro<Result<std::string>> Read(std::string row, std::string attribute);

  /// Batched snapshot read of every attribute of `row` in one RPC,
  /// overlaid with this transaction's buffered writes. Every attribute
  /// served from the snapshot enters the read set, plus one whole-row
  /// predicate read (wal::kWholeRowAttribute): reading the row observes
  /// which attributes exist, so a concurrent creation of an attribute
  /// this transaction saw as absent is a detected conflict.
  sim::Coro<Result<kvstore::AttributeMap>> ReadRow(std::string row);

  /// Buffers a write locally (paper step 3: writes are handled locally by
  /// the Transaction Client until commit).
  Status Write(const std::string& row, const std::string& attribute,
               std::string value);

  /// Buffers one write per attribute of `attributes`.
  Status WriteRow(const std::string& row,
                  const kvstore::AttributeMap& attributes);

  /// Runs the commit protocol. Read-only transactions commit immediately
  /// with no messages. The handle is finished afterwards: any further
  /// operation (including a second Commit) is a programming error. The
  /// returned coroutine must be awaited immediately.
  sim::Coro<CommitResult> Commit();

 private:
  friend class TransactionClient;
  friend class Session;
  using Handle::Handle;
};

/// Retry bounds for Session::RunTransaction. Defaults follow the paper's
/// application model: conflict aborts are expected under optimistic
/// concurrency control and are retried from a fresh snapshot with
/// randomized backoff.
struct RetryPolicy {
  // User-declared ctor keeps this a non-aggregate: aggregates must never
  // be passed to coroutines by value (see the parameter rules in
  // txn/client.h).
  RetryPolicy() = default;

  /// Total begin..commit attempts before giving up with kConflict.
  int max_attempts = 8;
  /// Virtual-time budget measured from the first attempt (0 = none): no
  /// new attempt starts once the deadline has passed.
  TimeMicros deadline = 0;
  /// Randomized backoff between conflicting attempts.
  TimeMicros backoff_min = 20 * kMillisecond;
  TimeMicros backoff_max = 200 * kMillisecond;
};

/// Unified result of Session::RunTransaction; `CommitT` is the handle's
/// commit result (CommitResult or CrossCommitResult).
template <typename CommitT>
struct RetryResult {
  TxnOutcome outcome = TxnOutcome::kUnavailable;
  /// Detail behind the outcome (OK iff committed()).
  Status status;
  /// Total begin..commit attempts made.
  int attempts = 0;
  /// Bookkeeping of the last commit protocol run (promotions, latency —
  /// the metrics the paper's evaluation reports).
  CommitT commit;

  bool committed() const {
    return outcome == TxnOutcome::kCommitted ||
           outcome == TxnOutcome::kReadOnly;
  }
};

using TxnResult = RetryResult<CommitResult>;

/// The transaction body run by Session::RunTransaction: performs reads and
/// writes through the handle and returns OK to request a commit, or any
/// error to abort the attempt (body errors are never retried).
using TxnBody = std::function<sim::Coro<Status>(Txn*)>;

/// Cross-group body (see txn/cross.h for the handle).
using CrossTxnBody = std::function<sim::Coro<Status>(CrossTxn*)>;

/// Per-application-instance session: wraps a cluster-owned
/// TransactionClient (see core::Cluster::CreateSession / Db::Session —
/// the client outlives the session). Lightweight and movable; a session
/// may run one transaction per group at a time (paper §2.2), on any
/// number of groups concurrently.
class Session {
 public:
  Session() = default;
  explicit Session(TransactionClient* client) : client_(client) {}

  bool valid() const { return client_ != nullptr; }
  DcId home() const;
  TransactionClient* client() const { return client_; }

  /// Starts a transaction on `group`: fetches the read position from the
  /// local Transaction Service (failing over to remote ones, paper
  /// step 1). The returned handle is inactive — with begin_status()
  /// explaining why — if the slot is taken or no service answered.
  sim::Coro<Txn> Begin(std::string group);

  /// Runs `body` as a serializable transaction on `group`, retrying
  /// conflict aborts (fresh snapshot each attempt, randomized backoff)
  /// within `retry`'s attempt/deadline bounds. Infrastructure failures
  /// (kUnavailable, kUnknownOutcome) are returned immediately — retrying
  /// an unknown outcome could commit the transaction twice.
  sim::Coro<TxnResult> RunTransaction(std::string group, TxnBody body,
                                      RetryPolicy retry = {});

  /// Starts a cross-group transaction spanning `groups` (D8): one leg —
  /// read position, read set, buffered writes — per group, committed via
  /// 2PC over the participants' Paxos-CP logs (txn/cross.h). Requires
  /// Protocol::kPaxosCP; the returned handle is inactive (with
  /// begin_status() explaining why) if any group's slot is taken, any
  /// begin failed, or the protocol is wrong.
  sim::Coro<CrossTxn> BeginCross(std::vector<std::string> groups);

  /// Cross-group overload of the retry combinator: runs `body` over a
  /// fresh BeginCross(groups) per attempt, retrying conflict aborts
  /// (including commit-order aborts) under the same policy as the
  /// single-group overload. kUnknownOutcome is never retried.
  sim::Coro<RetryResult<CrossCommitResult>> RunTransaction(
      std::vector<std::string> groups, CrossTxnBody body,
      RetryPolicy retry = {});

 private:
  /// Immediately-inactive handle for misuse of an invalid session.
  template <typename H>
  static sim::Coro<H> FailedBegin(Status status) {
    co_return H(std::move(status));
  }

  /// The retry loop behind both RunTransaction overloads: each attempt
  /// opens a fresh handle with `begin(groups)`.
  template <typename CommitT, typename H, typename Groups>
  sim::Coro<RetryResult<CommitT>> RunWithRetry(
      sim::Coro<H> (TransactionClient::*begin)(Groups), Groups groups,
      std::function<sim::Coro<Status>(H*)> body, RetryPolicy retry);

  TransactionClient* client_ = nullptr;
};

}  // namespace paxoscp::txn
