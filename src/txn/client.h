// The Transaction Client: the library an application instance links to
// (paper §2.2 / §4). Runs the wire protocol — begin / snapshot read /
// buffered write / commit via either the basic Paxos commit protocol
// (Algorithm 2) or Paxos-CP (§5, combination + promotion) — against the
// Transaction Services of every datacenter.
//
// Applications do not call the client directly: the public transaction
// surface is the `txn::Session` / `txn::Txn` handle API (txn/txn.h),
// which owns the per-transaction state and delegates here. The client
// only enforces the per-group exclusivity rule (at most one active
// transaction per group per client, paper §2.2) via `active_groups_`.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/coro.h"
#include "txn/messages.h"
#include "txn/transaction.h"
#include "txn/txn.h"

namespace paxoscp::txn {

class CrossTxn;
struct CrossTxnState;
struct CrossCommitResult;
struct CrossRead;

namespace recovery {
class CrossRecovery;
}  // namespace recovery

namespace internal {

/// Error every operation on an unusable Txn or CrossTxn handle reports,
/// and the immediately-failing awaitables that carry it (the caller still
/// gets a real awaitable, so misuse fails gracefully instead of crashing
/// in release builds). Defined in txn.cc.
Status InertError(const char* op);
sim::Coro<Result<std::string>> FailedRead(Status status);
template <typename CommitT>
sim::Coro<CommitT> FailedCommit(Status status) {
  CommitT result;
  result.status = std::move(status);
  co_return result;
}

}  // namespace internal

class TransactionClient {
 public:
  /// `client_uid` must be unique among all clients of this datacenter; it
  /// makes transaction ids globally unique.
  TransactionClient(Network* network, DcId home,
                    const ClientOptions& options, uint32_t client_uid,
                    uint64_t seed);

  DcId home() const { return home_; }
  const ClientOptions& options() const { return options_; }
  sim::Simulator* simulator() const { return sim_; }

  /// True while a `Txn` handle holds this client's active slot for
  /// `group` (test hook; released by commit, abort, or handle drop).
  bool HoldsSlot(const std::string& group) const {
    return active_groups_.count(group) > 0;
  }

  /// Waits that begins gave up (D15, D16): a begin on a group waits for
  /// each commit of this client there that no begin has waited for yet,
  /// and goes ahead when a wait failed, counting it here once.
  int begin_giveups() const { return begin_giveups_; }

 private:
  // The handle API is the only caller of the per-transaction operations.
  friend class Txn;
  friend class CrossTxn;
  friend class Session;
  friend void internal::ReleaseSlots(TransactionClient* client,
                                     const TxnState& state);
  friend void internal::ReleaseSlots(TransactionClient* client,
                                     const CrossTxnState& state);
  // The shared recovery core borrows this client as its protocol engine
  // (QueryCrossAll + the ProposeDecide walk).
  friend class recovery::CrossRecovery;

  /// Outcome of running the commit protocol for one log position. The
  /// caller reads from `decided` whether its own record landed, matching id
  /// AND kind (LogEntry::ContainsRecord, FindPrepare, FindDecide): a
  /// recovery daemon's forced-abort decide carries the txn id of the
  /// prepare it resolves, and a prepare walk that took such a decide entry
  /// for its own landed prepare would commit above a canonical abort
  /// (split-brain).
  struct InstanceOutcome {
    InstanceOutcome() = default;
    explicit InstanceOutcome(std::optional<wal::LogEntry> entry)
        : decided(std::move(entry)) {}

    /// The entry decided for the position; empty when no quorum was
    /// reached.
    std::optional<wal::LogEntry> decided;
    /// Decided through the leader fast path (skip prepare), which decides
    /// the proposer's own value.
    bool fast_path = false;
    /// Home's answer to the apply this instance sent for `decided`: the
    /// apply went to every replica, and only home was asked to answer
    /// (D15). Invalid when the instance learned the entry without applying
    /// it: a replica already knew it, or a competing value certainly won
    /// before the accept phase.
    CallFuture applied;
  };

  /// Decided entries a refused leader claim returned (D14), not yet walked:
  /// `entries.front()` is the entry at `pos`, the next at pos + 1, and so
  /// on. Owned by the frame of the walking caller (CommitTxn,
  /// PrepareCrossLeg or ProposeDecide), which hands it to every RunInstance
  /// of its walk.
  struct DecidedRun {
    LogPos pos = 0;
    std::deque<wal::LogEntry> entries;
  };

  /// Starts a transaction on `group` (paper step 1): reserves the
  /// per-group slot, waits for this client's commits on the group that no
  /// begin has waited for yet (D15, D16), fetches the read position from
  /// the local Transaction Service (failing over to remote ones), and
  /// returns the owning handle. On failure the handle is inactive and
  /// carries the status.
  sim::Coro<Txn> BeginTxn(std::string group);

  /// Snapshot read of one item for the transaction in `*state` (which the
  /// awaiting Txn/caller keeps alive; see Txn::Read for A1/A2 semantics).
  sim::Coro<Result<std::string>> ReadItem(TxnState* state, std::string row,
                                          std::string attribute);

  /// Batched snapshot read of all attributes of `row`, overlaid with the
  /// transaction's buffered writes; each snapshot-served attribute is
  /// recorded in the read set.
  sim::Coro<Result<kvstore::AttributeMap>> ReadRowItems(TxnState* state,
                                                        std::string row);

  /// Runs the commit protocol for the transaction in `*state`. The caller
  /// (Txn::Commit) has already released the group slot and keeps the state
  /// alive while it awaits. A commit keeps home's answer to its apply for
  /// the client's next begin on the group to wait for (D15).
  sim::Coro<CommitResult> CommitTxn(TxnState* state);

  /// Starts a cross-group transaction (D8): reserves every group's slot,
  /// waits on each group as BeginTxn does (D15, D16), sends a cross begin
  /// per group (it returns the contiguous frontier and the commit-order
  /// watermark), and fixes cross_ts above every watermark. Requires
  /// Protocol::kPaxosCP.
  sim::Coro<CrossTxn> BeginCrossTxn(std::vector<std::string> groups);

  /// Runs 2PC for the cross-group transaction in `*state` (see
  /// txn/cross.h for the protocol). Slots are already released. Returns at
  /// the commit point, as soon as the canonical decide is known (D16): the
  /// commit group's AwaitDecideApplied and every other participant's
  /// PropagateDecide are started there as detached tasks, and the client's
  /// next begin on each group waits for that group's task.
  sim::Coro<CrossCommitResult> CommitCrossTxn(CrossTxnState* state);

  /// Shared coordinator-crash gate of one cross commit (D9): legs count
  /// landed prepares into it and re-check it between Paxos instances, so
  /// the crash_after_prepares fault trips mid-fan-out — some legs landed,
  /// some abandoned mid-walk, some never proposed — exactly the
  /// partial-parallel-prepare window recovery must close.
  struct CrossCrashGate {
    int threshold = -1;  // -1: never crash
    int landed = 0;
    bool Tripped() const { return threshold >= 0 && landed >= threshold; }
  };

  /// Outcome of one Phase-1 prepare leg.
  struct CrossPrepareOutcome {
    enum class Kind { kPrepared, kConflict, kUnavailable, kAbandoned };
    Kind kind = Kind::kAbandoned;
    /// Prepare position, 0 if none landed. A kConflict leg can still carry
    /// a position: an own-preceded-by-younger prepare is in the log (and
    /// counts toward the crash gate) but must abort.
    LogPos pos = 0;
    /// Where this group's decide walk starts — right after the landed
    /// prepare, else at the leg's first position — and that position's
    /// leader (the winner of the entry before it), whom the walk asks for
    /// the round-0 grant like any other proposer.
    LogPos decide_floor = 0;
    DcId decide_leader = kNoDc;
    int promotions = 0;
    std::string detail;  // failure detail (kConflict / kUnavailable)
  };

  /// Walks one group's log until this transaction's prepare lands, a
  /// commit-order or read-write conflict aborts it, the group is
  /// unavailable, or the crash gate trips. CommitCrossTxn joins the legs
  /// with sim::Gather. `state` and `gate` outlive the leg (they live in
  /// the awaiting CommitCrossTxn frame).
  sim::Coro<CrossPrepareOutcome> PrepareCrossLeg(CrossTxnState* state,
                                                 std::string group,
                                                 CrossCrashGate* gate);

  /// Batched snapshot read across the legs of a cross transaction
  /// (CrossTxn::ReadMany): one result per spec, in spec order, with the
  /// per-leg reads issued concurrently. `reads` is owned by the awaiting
  /// caller's frame.
  sim::Coro<std::vector<Result<std::string>>> ReadItems(
      CrossTxnState* state, const std::vector<CrossRead>* reads);

  /// Frees the per-group active slot (commit start, abort, handle drop).
  void ReleaseGroup(const std::string& group);

  /// Outcome of one decide walk (see ProposeDecide).
  struct DecideOutcome {
    bool known = false;   // false => walk could not complete
    bool commit = false;  // the first decide record encountered
    LogPos pos = 0;
    /// The entry holding that decide, and home's answer to the apply this
    /// walk sent for it (InstanceOutcome::applied; invalid when the walk
    /// only learned the entry, because another proposer landed it).
    wal::LogEntry entry;
    CallFuture applied;
  };

  /// Walks `group`'s log from `floor`, proposing a decide record
  /// (commit/abort per `commit`) for transaction `id` at each undecided
  /// position until one lands — or until an existing decide for `id` is
  /// encountered, which is then adopted (first decide wins). Decide
  /// records read nothing, so they promote past any conflict. `leader` is
  /// the leader of `floor`, or kNoDc when the caller does not know it (the
  /// first position then skips the fast path). The walk sends on the
  /// group's leg stream.
  sim::Coro<DecideOutcome> ProposeDecide(std::string group, LogPos floor,
                                         DcId leader, TxnId id, bool commit);

  /// A cross commit's read-your-effects wait on one group, detached (D16):
  /// sets `done` to the acknowledgement of the replica that serves this
  /// client's next begin — the first to answer in CallWithFailover order,
  /// home first — for applying the entry of `*raw`. A walk knows its decide
  /// once a majority accepted it, before any replica applied it, so a
  /// begin that did not wait for this could overtake the apply and read
  /// below a still-pending prepare. Awaits home's answer to the walk's own
  /// apply. When that answer failed, or the walk only learned the entry,
  /// delivers the entry itself with CallWithFailover and the null ballot,
  /// starting after home when home already failed (D15). When no replica
  /// acked, `done` holds the last failure (a give-up, counted by the begin
  /// that waits for it; the pending prepare is then recovery's to clear).
  /// Takes ownership of `raw`; a pointer because coroutine parameters must
  /// be trivially destructible (see RunInstance).
  sim::Task AwaitDecideApplied(std::string group, DecideOutcome* raw,
                               sim::Promise<CallResult> done);

  /// One Phase-2 propagation leg, detached (D16): lands the canonical
  /// decision in `group`, then hands it to AwaitDecideApplied with `done`.
  /// Sets an acknowledgement at once when the walk could not land it
  /// (recovery's to land, nothing to wait for).
  sim::Task PropagateDecide(std::string group, LogPos floor, DcId leader,
                            TxnId id, bool commit,
                            sim::Promise<CallResult> done);

  /// Merged QueryCross over every reachable datacenter: prepare metadata
  /// from the first replica that has it, the canonical decision if any
  /// replica can vouch for one, and the highest safe read position seen
  /// (the floor recovery decide-walks start from).
  struct CrossQueryResult {
    bool has_prepare = false;
    LogPos prepare_pos = 0;
    std::vector<std::string> participants;
    bool has_canonical_decision = false;
    bool decision_commit = false;
    LogPos safe_pos = 0;
  };
  sim::Coro<CrossQueryResult> QueryCrossAll(std::string group, TxnId id);

  /// Uniform draw from the client's RNG (Session retry backoff shares the
  /// protocol RNG so a workload run consumes one deterministic stream).
  TimeMicros RandomBackoffIn(TimeMicros lo, TimeMicros hi);

  /// Runs one Paxos instance for `pos`, proposing `own`. Implements
  /// Algorithm 2 (prepare / accept / apply with randomized backoff), the
  /// leader fast path, and — for Paxos-CP — combination via
  /// EnhancedFindWinningValue. `leader_dc` is the leader of `pos` (the
  /// winner of the entry at pos - 1, DC 0 for position 1); kNoDc skips the
  /// fast path. `*run` is the walk's decided run (D14): when its first entry
  /// is at `pos`, that entry answers the position and no message is sent;
  /// a run at any other position is dropped. A refused claim refills it
  /// with the leader's log from `pos` on and answers `pos` from it. Every
  /// message of the instance, and its backoff between rounds, draws from
  /// `stream`: a cross-group leg's (LegStream), or null for the shared
  /// streams of a single-group commit.
  // NOTE on coroutine parameters: never references (a caller temporary
  // bound to a reference parameter dies before the frame does) and never
  // aggregate class types by value (miscompiled parameter-copy lifetime on
  // GCC 12 — see tests/sim_test.cc). Aggregates are passed as pointers to
  // objects owned by the awaiting coroutine's frame, which always outlives
  // the child.
  sim::Coro<InstanceOutcome> RunInstance(std::string group, LogPos pos,
                                         const wal::LogEntry* own,
                                         DcId leader_dc, DecidedRun* run,
                                         net::DelayStream* stream);

  /// Accept + apply with a given ballot and value. Returns the outcome
  /// deciding `*proposal` when a majority accepted it, nullopt when the
  /// accept round failed to reach a majority (caller re-prepares). The
  /// apply goes to every replica, and only home answers, because only
  /// home's answer is read (D15): the outcome carries that answer without
  /// waiting for it.
  sim::Coro<std::optional<InstanceOutcome>> AcceptAndApply(
      std::string group, LogPos pos, paxos::Ballot ballot,
      const wal::LogEntry* proposal, paxos::Ballot* max_seen,
      net::DelayStream* stream);

  /// Calls the home service first, then fails over to the others. `first`
  /// skips the first datacenters of that order (1: start after home).
  sim::Coro<CallResult> CallWithFailover(const ServiceRequest* request,
                                         net::DelayStream* stream = nullptr,
                                         int first = 0);

  /// True when `result` is a replica's acknowledgement of an apply.
  static bool ApplyAcked(const CallResult& result);

  /// Hands out, once, every wait the commits kept for `group` (D16).
  std::vector<CallFuture> TakeCommitWaits(const std::string& group);

  /// Keeps one more cross decide leg for the next begin on `group` to wait
  /// for, and returns the promise that the leg sets when it is done.
  sim::Promise<CallResult> KeepDecideWait(const std::string& group);

  /// Algorithm 2's backoff between Paxos rounds, drawn from `stream`, or
  /// from the client's RNG when it is null.
  TimeMicros RandomBackoff(net::DelayStream* stream);

  /// The delay stream of this client's cross-group legs on `group` (D10):
  /// begins, reads, prepare and decide walks and the decides' applies send
  /// on it, so sibling legs sending in the same microsecond draw from
  /// distinct streams. Created on first use, seeded by a hash of the
  /// client's seed and the group name.
  net::DelayStream* LegStream(const std::string& group);

  Network* network_;
  sim::Simulator* sim_;
  DcId home_;
  ClientOptions options_;
  Rng rng_;
  uint64_t seed_;
  /// LegStream's streams; map nodes never move, so in-flight calls may
  /// keep pointers to them.
  std::map<std::string, net::DelayStream> leg_streams_;
  uint32_t client_uid_;
  uint64_t next_seq_ = 1;
  std::vector<DcId> all_dcs_;
  int majority_;

  /// Groups with a live `Txn` handle (the state itself lives in the
  /// handle; only the exclusivity slot is tracked here).
  std::set<std::string> active_groups_;

  /// Per group, what this client's next begin there waits for: an apply
  /// acknowledgement for each of its commits there that no begin has
  /// waited for yet, never an entry. Home's answer to a single-group
  /// commit's apply (D15), or what a cross commit's decide leg on the group
  /// set (D16). All of them, not the highest position: home's MaxDecided
  /// can pass a cross decide's position while SafeReadPos is still held
  /// below the prepare.
  std::map<std::string, std::vector<CallFuture>> commit_waits_;
  int begin_giveups_ = 0;
};

}  // namespace paxoscp::txn
