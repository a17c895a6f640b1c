// Wire messages exchanged between the Transaction Client and the
// Transaction Services (paper Figure 3): begin/read on the transaction
// path, prepare/accept/apply for the Paxos commit protocol, plus the
// leader-claim message of the per-log-position leader optimization.
//
// Messages travel as ServiceRequest / ServiceResponse variants through
// txn::Network, the network instantiated on those two types.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/network.h"
#include "paxos/acceptor.h"
#include "paxos/ballot.h"
#include "paxos/value_selection.h"
#include "wal/log.h"
#include "wal/log_entry.h"

namespace paxoscp::txn {

/// begin(groupKey): fetch the read position (paper transaction protocol
/// step 1). The response also names the leader for the next log position
/// (the datacenter that won the last decided entry).
///
/// `cross` marks a cross-group begin (D8): the read position is then the
/// replica's *contiguous* frontier (still held below pending prepares), so
/// the commit-order watermark returned alongside provably covers every
/// prepare in the log prefix the transaction will read under.
struct BeginRequest {
  std::string group;
  bool cross = false;
};
struct BeginResponse {
  LogPos read_pos = 0;
  DcId leader_dc = kNoDc;
  /// Cross-group begins only: max cross_ts over the cross prepares this
  /// replica has seen. A new cross transaction picks a cross_ts strictly
  /// above every participant's watermark, so it sorts after all of them
  /// (the (cross_ts, id) tie-break only ever arbitrates between
  /// concurrent transactions that drew the same fresh timestamp).
  uint64_t max_cross_ts = 0;
};

/// queryCross(groupKey, txn): cross-group transaction status at one
/// replica — used by the stateless 2PC recovery path (D8) to locate a
/// pending transaction's participant list and learn its canonical
/// decision. `decision_canonical` is true only when the replica's log is
/// contiguous through the decide position, which makes its (lowest-seen)
/// decision marker provably the lowest decide in the log.
struct QueryCrossRequest {
  std::string group;
  TxnId txn = 0;
};
struct QueryCrossResponse {
  bool has_prepare = false;
  LogPos prepare_pos = 0;
  std::vector<std::string> participants;
  bool decision_commit = false;
  bool decision_canonical = false;
  /// The replica's safe read position (floor for recovery decide walks).
  LogPos safe_pos = 0;
};

/// read(groupKey, key): snapshot read at the transaction's read position
/// (step 2). The service catches its log up through read_pos first.
struct ReadRequest {
  std::string group;
  wal::ItemId item;
  LogPos read_pos = 0;
};
struct ReadResponse {
  Status status;
  wal::ItemRead read;
};

/// readRow(groupKey, row): batched snapshot read of every attribute of one
/// row at the transaction's read position (one RPC instead of one per
/// attribute; backs Txn::ReadRow). Provenance shadow attributes are
/// decoded into per-attribute ItemReads, never exposed raw.
struct ReadRowRequest {
  std::string group;
  std::string row;
  LogPos read_pos = 0;
};
struct ReadRowResponse {
  Status status;
  /// (attribute, read) pairs for every value attribute of the row.
  std::vector<std::pair<std::string, wal::ItemRead>> attrs;
};

/// Paxos prepare (Algorithm 1, receive(cid, prepare, propNum)).
struct PrepareRequest {
  std::string group;
  LogPos pos = 0;
  paxos::Ballot ballot;
};
struct PrepareResponse {
  paxos::PrepareResult result;
};

/// Paxos accept (Algorithm 1, receive(cid, accept, propNum, value)).
struct AcceptRequest {
  std::string group;
  LogPos pos = 0;
  paxos::Ballot ballot;
  wal::LogEntry value;
};
struct AcceptResponse {
  paxos::AcceptResult result;
};

/// Paxos apply (Algorithm 1, receive(cid, apply, propNum, value)).
struct ApplyRequest {
  std::string group;
  LogPos pos = 0;
  paxos::Ballot ballot;
  wal::LogEntry value;
};
struct ApplyResponse {
  bool ok = false;
};

/// Leader fast-path claim (paper §4.1): the first claimant of a position at
/// the leader datacenter may skip the prepare phase and use ballot round 0.
/// A refused claim also returns `run`: the decided entries the leader holds
/// from `pos` up to its first missing position, so a proposer that lost
/// those positions long ago promotes through them without a Paxos round
/// (D14). A grant carries no run.
struct ClaimLeaderRequest {
  std::string group;
  LogPos pos = 0;
};
struct ClaimLeaderResponse {
  bool granted = false;
  /// Refusals only: the entries at pos, pos + 1, ... (empty when the leader
  /// does not hold the entry at pos).
  std::vector<wal::LogEntry> run;
};

using ServiceRequest =
    std::variant<BeginRequest, ReadRequest, ReadRowRequest, PrepareRequest,
                 AcceptRequest, ApplyRequest, ClaimLeaderRequest,
                 QueryCrossRequest>;
using ServiceResponse =
    std::variant<BeginResponse, ReadResponse, ReadRowResponse,
                 PrepareResponse, AcceptResponse, ApplyResponse,
                 ClaimLeaderResponse, QueryCrossResponse>;

/// Human-readable message-type name (for traces and message accounting).
const char* RequestName(const ServiceRequest& request);

using Network = net::Network<ServiceRequest, ServiceResponse>;
using CallResult = net::CallResult<ServiceResponse>;
using CallFuture = Network::CallFuture;
using BroadcastResult = Network::BroadcastResult;

/// The responses of a prepare broadcast, folded by the Paxos rules: the
/// first decided value any replica reported, and one LastVote per promise.
struct PrepareTally {
  std::optional<wal::LogEntry> decided;
  std::vector<paxos::LastVote> votes;

  int promised() const { return static_cast<int>(votes.size()); }
};

/// Folds prepare responses: the first known decided value wins, `*max_seen`
/// is raised to every next_bal, and each promise is kept with its vote.
/// Vote and decided values are moved out of `results`.
PrepareTally TallyPrepares(BroadcastResult* results, paxos::Ballot* max_seen);

/// Counts the accepts among accept responses; each refusal raises
/// `*max_seen` to its next_bal.
int TallyAccepts(const BroadcastResult& results, paxos::Ballot* max_seen);

// The settle rules (docs/ARCHITECTURE.md, D13): when the responses so far
// decide a round, so its broadcast stops waiting for the rest. Responses
// still in flight read non-OK, which the rules and the tallies skip.

/// An accept round is decided once `majority` replicas accepted.
Network::Settle AcceptSettle(int majority);

/// A prepare round is decided once a replica reports the decided value, or
/// once `majority` promises carry one value at one ballot (D1), which is
/// then chosen. Nothing else settles it: with bottoms or split votes the
/// client keeps collecting, since §5's combination needs to see that no
/// value can have reached a majority.
Network::Settle PrepareSettle(int majority);

}  // namespace paxoscp::txn
