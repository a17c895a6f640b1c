// Cross-group transactions: two-phase commit layered over the per-group
// Paxos-CP logs (design note D8; lineage: Spinnaker's key-range sharding
// across Paxos cohorts, Consus' commit coordination over multiple Paxos
// groups).
//
// A `CrossTxn` spans a fixed set of entity groups. Reads and writes are
// routed to per-group legs, each with its own read position obtained at
// `Session::BeginCross`. Commit runs 2PC in which every phase is a
// replicated log entry:
//
//   phase 1  A PREPARE record (the leg's reads + writes + the full
//            participant list) is committed into each group's log through
//            the ordinary Paxos-CP protocol — promotion, combination, and
//            the read-write conflict check all apply unchanged. A decided
//            prepare's writes are *held back*: the group's applied
//            watermark and every new read position stay below the prepare
//            until its fate is known.
//   phase 2  A DECIDE record (commit iff every group prepared) is
//            committed into the *commit group* (the first participant in
//            sorted order) and then propagated to the other participants;
//            Commit returns once the commit group's decide is known, and
//            the propagation runs on detached (D16).
//            The canonical outcome of the transaction is the lowest-
//            position decide record in the commit group's log, so the
//            coordinator is stateless: any party can learn — or, by
//            proposing an abort decide, force — the outcome through the
//            existing log machinery, and a crashed coordinator blocks
//            nothing beyond the log decision itself.
//
// Global one-copy serializability needs more than per-group checks: two
// transactions can interleave in opposite orders in two groups with no
// per-group conflict (cross-group write skew). Every cross transaction
// therefore carries a commit-order timestamp `cross_ts` chosen above the
// watermark of every participant's log prefix, and a prepare aborts if a
// younger (greater (cross_ts, id)) prepare already sits before it in any
// group's log — committed prepares appear in every log in one shared
// order, which makes the union of the per-group serial orders acyclic.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/coro.h"
#include "txn/txn.h"

namespace paxoscp::txn {

/// Result of CrossTxn::Commit. Cross transactions never report read-only:
/// even a pure-read transaction replicates its prepares (its reads must
/// occupy one position in every participant's serial order).
struct CrossCommitResult {
  /// OK => canonically committed. Aborted => canonically aborted (conflict,
  /// commit-order violation, or an unreachable participant — all certain:
  /// the coordinator never proposed commit, or the canonical decide says
  /// abort). Unavailable with `unknown` => fate not learned.
  Status status;
  bool committed = false;
  /// True when the commit protocol started but the coordinator gave up
  /// without learning the canonical decision (a retry could commit twice).
  bool unknown = false;
  /// Prepare position per group whose prepare was decided.
  std::map<std::string, LogPos> prepare_positions;
  /// Position of the canonical decide in the commit group (0 if unknown).
  LogPos decide_pos = 0;
  int promotions = 0;  // prepare-walk promotions only (decide walks
                       // advance positions without counting: decides
                       // never conflict, so their walk length is not a
                       // contention signal)
  /// Wall-clock from commit start until Commit resumed the caller. Equals
  /// decision_latency whenever the decide is known, commit or abort:
  /// Commit returns at the commit point, and Phase-2 propagation and the
  /// decides' applies run on as detached legs that the session's next
  /// begin on each group waits for (D16).
  TimeMicros latency = 0;
  /// Wall-clock from commit start until the canonical decide landed in
  /// the commit group — the commit point, after which the outcome is
  /// durable and recovery can only confirm it. With parallel fan-out
  /// (D9) this is ~2 wide-area rounds regardless of participant count.
  /// 0 when no decide landed (crash / unknown).
  TimeMicros decision_latency = 0;
};

/// Maps a finished cross-group commit onto the shared outcome taxonomy.
TxnOutcome ClassifyCommit(const CrossCommitResult& result);

/// One read spec of CrossTxn::ReadMany: an item on one participant leg.
struct CrossRead {
  std::string group;
  std::string row;
  std::string attribute;
};

/// Client-side state of one active cross-group transaction: one
/// single-group leg (read position, read set, buffered writes) per
/// participant. Heap-allocated for the same handle-move stability as
/// TxnState.
struct CrossTxnState {
  TxnId id = 0;
  /// Commit-order timestamp: strictly above every participant's prepare
  /// watermark at begin time.
  uint64_t cross_ts = 0;
  /// Sorted, unique; front() is the commit group.
  std::vector<std::string> groups;
  std::map<std::string, TxnState> legs;
};

/// Movable RAII handle for one active cross-group transaction, with
/// `Txn`'s lifecycle (txn/txn.h): dropping an active handle aborts it
/// locally, a moved-from handle is inert, use-after-Commit asserts in debug
/// builds.
class CrossTxn : public internal::Handle<CrossTxnState> {
 public:
  CrossTxn() = default;

  TxnId id() const;
  uint64_t cross_ts() const;
  const std::vector<std::string>& groups() const;
  /// Read position of the leg on `group` (0 if not a participant).
  LogPos read_pos(const std::string& group) const;

  /// Snapshot read on one participant group (A1/A2 semantics per leg).
  sim::Coro<Result<std::string>> Read(std::string group, std::string row,
                                      std::string attribute);

  /// Batched snapshot read: issues the specs' reads concurrently (joined
  /// with sim::Gather) and returns one Result per spec, in spec order —
  /// an invalid spec (reserved attribute, non-participant group) fails
  /// only its own slot. `reads` must stay alive while the caller awaits
  /// (it does when the caller owns it and awaits immediately).
  sim::Coro<std::vector<Result<std::string>>> ReadMany(
      const std::vector<CrossRead>* reads);

  /// Buffers a write on one participant group.
  Status Write(const std::string& group, const std::string& row,
               const std::string& attribute, std::string value);

  /// Runs 2PC over the participant logs and returns at the commit point
  /// (D16); the session's next begin on each participant waits until the
  /// replica that serves it has applied the decide there. The handle is
  /// finished afterwards; the returned coroutine must be awaited
  /// immediately.
  sim::Coro<CrossCommitResult> Commit();

 private:
  friend class TransactionClient;
  friend class Session;
  using Handle::Handle;
};

/// Unified result of Session::RunTransaction over a group set. A cross
/// commit is never read-only, so committed() means kCommitted.
using CrossTxnResult = RetryResult<CrossCommitResult>;

// The cross-group body alias (CrossTxnBody) lives in txn/txn.h beside
// TxnBody so Session can declare both RunTransaction overloads.

}  // namespace paxoscp::txn
