// Cross-group 2PC over Paxos-CP (design note D8): the CrossTxn handle, the
// coordinator state machine (TransactionClient::BeginCrossTxn /
// CommitCrossTxn / ProposeDecide), the recovery query, and
// Session::BeginCross.
#include "txn/cross.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "txn/client.h"

namespace paxoscp::txn {

namespace {

sim::Coro<std::vector<Result<std::string>>> FailedReadMany(Status status,
                                                           size_t n) {
  std::vector<Result<std::string>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back(status);
  co_return out;
}

/// Shared commit order of cross-group transactions: (cross_ts, id),
/// lexicographic. Committed prepares must appear in every participant
/// log in increasing order of this key.
bool OrderedAfter(uint64_t ts_a, TxnId id_a, uint64_t ts_b, TxnId id_b) {
  if (ts_a != ts_b) return ts_a > ts_b;
  return id_a > id_b;
}

/// True if `entry` contains a cross prepare (other than `self`) that is
/// younger than (ordered after) the (ts, id) key — meaning `self` landing
/// at or after this entry would violate the shared commit order.
bool HasYoungerPrepare(const wal::LogEntry& entry, uint64_t ts, TxnId id) {
  for (const wal::TxnRecord& t : entry.txns) {
    if (t.kind != wal::RecordKind::kPrepare || t.id == id) continue;
    if (OrderedAfter(t.cross_ts, t.id, ts, id)) return true;
  }
  return false;
}

/// True if, within `entry`, a younger cross prepare precedes `id`'s own
/// prepare record in list order (combination can order records freely;
/// a transaction whose record landed behind a younger one must abort).
bool OwnPrecededByYounger(const wal::LogEntry& entry, uint64_t ts, TxnId id) {
  for (const wal::TxnRecord& t : entry.txns) {
    if (t.kind == wal::RecordKind::kPrepare && t.id == id) return false;
    if (t.kind == wal::RecordKind::kPrepare &&
        OrderedAfter(t.cross_ts, t.id, ts, id)) {
      return true;
    }
  }
  return false;
}

}  // namespace

using internal::FailedRead;
using internal::InertError;

TxnOutcome ClassifyCommit(const CrossCommitResult& result) {
  if (result.committed) return TxnOutcome::kCommitted;
  if (result.unknown) return TxnOutcome::kUnknownOutcome;
  if (result.status.IsAborted()) return TxnOutcome::kConflict;
  return TxnOutcome::kUnknownOutcome;
}

// -------------------------------------------------------------- CrossTxn

TxnId CrossTxn::id() const { return active() ? state_->id : 0; }

uint64_t CrossTxn::cross_ts() const { return active() ? state_->cross_ts : 0; }

const std::vector<std::string>& CrossTxn::groups() const {
  static const std::vector<std::string> kEmpty;
  return active() ? state_->groups : kEmpty;
}

LogPos CrossTxn::read_pos(const std::string& group) const {
  if (!active()) return 0;
  auto it = state_->legs.find(group);
  return it == state_->legs.end() ? 0 : it->second.read_pos;
}

sim::Coro<Result<std::string>> CrossTxn::Read(std::string group,
                                              std::string row,
                                              std::string attribute) {
  if (!Usable()) return FailedRead(InertError("Read"));
  if (wal::IsReservedAttribute(attribute)) {
    return FailedRead(wal::ReservedAttributeError());
  }
  auto it = state_->legs.find(group);
  if (it == state_->legs.end()) {
    return FailedRead(Status::InvalidArgument(
        "group '" + group + "' is not a participant of this transaction"));
  }
  // Forwarded like Txn::Read: the awaitable binds the heap-stable leg
  // state, never `this`.
  return client_->ReadItem(&it->second, std::move(row), std::move(attribute));
}

sim::Coro<std::vector<Result<std::string>>> CrossTxn::ReadMany(
    const std::vector<CrossRead>* reads) {
  if (!Usable()) {
    return FailedReadMany(InertError("ReadMany"), reads->size());
  }
  // Forwarded like Read: the awaitable binds the heap-stable state, never
  // `this`; per-spec validation happens inside (a bad spec fails only its
  // own slot).
  return client_->ReadItems(state_.get(), reads);
}

Status CrossTxn::Write(const std::string& group, const std::string& row,
                       const std::string& attribute, std::string value) {
  if (!Usable()) return InertError("Write");
  if (wal::IsReservedAttribute(attribute)) {
    return wal::ReservedAttributeError();
  }
  auto it = state_->legs.find(group);
  if (it == state_->legs.end()) {
    return Status::InvalidArgument(
        "group '" + group + "' is not a participant of this transaction");
  }
  it->second.writes[wal::ItemId{row, attribute}] = std::move(value);
  return Status::OK();
}

sim::Coro<CrossCommitResult> CrossTxn::Commit() {
  if (!Usable()) {
    return internal::FailedCommit<CrossCommitResult>(InertError("Commit"));
  }
  return client_->CommitCrossTxn(StartCommit());
}

// ------------------------------------------------- client: begin + 2PC

sim::Coro<CrossTxn> TransactionClient::BeginCrossTxn(
    std::vector<std::string> groups) {
  if (options_.protocol != Protocol::kPaxosCP) {
    co_return CrossTxn(Status::InvalidArgument(
        "cross-group transactions require Paxos-CP (promotion drives both "
        "the prepare walk and the decide walk)"));
  }
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  if (groups.empty()) {
    co_return CrossTxn(
        Status::InvalidArgument("cross-group begin needs at least one group"));
  }
  for (const std::string& group : groups) {
    if (active_groups_.count(group) > 0) {
      co_return CrossTxn(Status::FailedPrecondition(
          "client already has an active transaction on group '" + group +
          "'"));
    }
  }
  for (const std::string& group : groups) active_groups_.insert(group);
  // Each group's waits, as in BeginTxn (D15, D16).
  for (const std::string& group : groups) {
    std::vector<CallFuture> waits = TakeCommitWaits(group);
    for (CallFuture& applied : waits) {
      const CallResult ack = co_await applied;
      if (!ApplyAcked(ack)) ++begin_giveups_;
    }
  }

  auto state = std::make_unique<CrossTxnState>();
  state->id = MakeTxnId(
      home_, (static_cast<uint64_t>(client_uid_) << 24) | (next_seq_++));
  state->groups = std::move(groups);
  // Commit-order timestamp: start from virtual now, then raise above every
  // participant's watermark so this transaction sorts after every prepare
  // already in any prefix it will read under.
  uint64_t cross_ts = static_cast<uint64_t>(sim_->Now()) + 1;

  // One cross begin per participant, on the group's leg stream, fanned
  // out concurrently (D9). Gather returns the answers in input order, so
  // the cross_ts fold and the error choice below are deterministic
  // regardless of completion order. The requests are reserved up front,
  // so the pointers the calls hold stay valid.
  std::vector<ServiceRequest> requests;
  requests.reserve(state->groups.size());
  std::vector<sim::Coro<CallResult>> calls;
  calls.reserve(state->groups.size());
  for (const std::string& group : state->groups) {
    requests.push_back(BeginRequest{group, /*cross=*/true});
    calls.push_back(CallWithFailover(&requests.back(), LegStream(group)));
  }
  sim::Gather<CallResult> join(sim_, std::move(calls));
  const std::vector<CallResult> begins = co_await std::move(join);
  for (const CallResult& begin : begins) {
    if (!begin.status.ok()) {
      for (const std::string& g : state->groups) active_groups_.erase(g);
      co_return CrossTxn(begin.status);
    }
  }
  for (size_t i = 0; i < state->groups.size(); ++i) {
    const std::string& group = state->groups[i];
    const auto& begin = std::get<BeginResponse>(begins[i].response);
    TxnState& leg = state->legs[group];
    leg.group = group;
    leg.id = state->id;
    leg.read_pos = begin.read_pos;
    leg.leader_dc = begin.leader_dc;
    leg.stream = LegStream(group);
    if (begin.max_cross_ts >= cross_ts) cross_ts = begin.max_cross_ts + 1;
  }
  state->cross_ts = cross_ts;
  co_return CrossTxn(this, std::move(state));
}

sim::Coro<std::vector<Result<std::string>>> TransactionClient::ReadItems(
    CrossTxnState* state, const std::vector<CrossRead>* reads) {
  std::vector<sim::Coro<Result<std::string>>> kids;
  kids.reserve(reads->size());
  for (const CrossRead& r : *reads) {
    if (wal::IsReservedAttribute(r.attribute)) {
      kids.push_back(FailedRead(wal::ReservedAttributeError()));
      continue;
    }
    auto it = state->legs.find(r.group);
    if (it == state->legs.end()) {
      kids.push_back(FailedRead(Status::InvalidArgument(
          "group '" + r.group +
          "' is not a participant of this transaction")));
      continue;
    }
    // Concurrent reads on one leg are safe: they share the leg's snapshot
    // position, and the read set dedupes repeated observations of an item.
    kids.push_back(ReadItem(&it->second, r.row, r.attribute));
  }
  sim::Gather<Result<std::string>> join(sim_, std::move(kids));
  std::vector<Result<std::string>> out = co_await std::move(join);
  co_return out;
}

sim::Coro<CrossCommitResult> TransactionClient::CommitCrossTxn(
    CrossTxnState* state) {
  CrossCommitResult result;
  const TimeMicros start = sim_->Now();
  const TxnId id = state->id;

  // ---- Phase 1: commit a PREPARE record into every participant log.
  // Concurrent (D9): one leg coroutine per group, joined with sim::Gather,
  // so the phase costs one prepare walk of wide-area rounds regardless of
  // participant count. The outcomes are aggregated below in sorted group
  // order, so conflict choice and failure detail are deterministic under
  // any completion order.
  CrossCrashGate gate;  // crash_after_prepares fault hook (see client.h)
  gate.threshold = options_.crash_after_prepares;
  std::vector<sim::Coro<CrossPrepareOutcome>> legs;
  legs.reserve(state->groups.size());
  for (const std::string& group : state->groups) {
    legs.push_back(PrepareCrossLeg(state, group, &gate));
  }
  sim::Gather<CrossPrepareOutcome> join(sim_, std::move(legs));
  const std::vector<CrossPrepareOutcome> outcomes = co_await std::move(join);

  bool conflict = false;
  bool prepare_unknown = false;
  std::string fail_detail;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const CrossPrepareOutcome& leg = outcomes[i];
    if (leg.pos != 0) result.prepare_positions[state->groups[i]] = leg.pos;
    result.promotions += leg.promotions;
    if (conflict || prepare_unknown) continue;  // first failure (in sorted
                                                // group order) wins
    if (leg.kind == CrossPrepareOutcome::Kind::kConflict) {
      conflict = true;
      fail_detail = leg.detail;
    } else if (leg.kind == CrossPrepareOutcome::Kind::kUnavailable) {
      prepare_unknown = true;
      fail_detail = leg.detail;
    }
  }

  if (gate.Tripped()) {
    result.unknown = true;
    result.status = Status::Unavailable(
        "coordinator crashed after " +
        std::to_string(result.prepare_positions.size()) + " of " +
        std::to_string(state->groups.size()) + " prepares");
    result.latency = sim_->Now() - start;
    co_return result;
  }

  // ---- Phase 2: commit the DECIDE into the commit group, adopt the
  // canonical outcome, then propagate it to the other participants.
  // The decision is commit iff every leg prepared cleanly. On any failure
  // the coordinator proposes abort — and since nobody else ever proposes
  // commit, abort is certain even if the decide cannot be delivered now
  // (recovery will land it).
  const bool want_commit = !conflict && !prepare_unknown;
  const std::string& commit_group = state->groups.front();
  DecideOutcome decide = co_await ProposeDecide(
      commit_group, outcomes[0].decide_floor, outcomes[0].decide_leader, id,
      want_commit);
  if (!decide.known) {
    if (want_commit) {
      // The commit decide may or may not have been decided: truly unknown.
      result.unknown = true;
      result.status = Status::Unavailable(
          "cross-group decide reached no quorum; outcome unknown");
    } else {
      result.status =
          Status::Aborted("cross-group transaction aborted (" + fail_detail +
                          "); abort decide not yet delivered");
    }
    result.latency = sim_->Now() - start;
    co_return result;
  }
  result.decide_pos = decide.pos;
  // The canonical decide is the commit point: the outcome is durable from
  // here, whatever happens to the propagation below, and Commit returns
  // now (D16).
  result.decision_latency = sim_->Now() - start;
  result.latency = result.decision_latency;

  // Propagate the canonical decision to every group where a prepare was
  // (or may later be) in the log — concurrently (one extra round flat in
  // participant count). Must start only AFTER
  // the canonical decide is known: a participant-group decide is a copy
  // of the canonical one, and fanning out the *proposed* outcome early
  // could race a recovery abort in the commit group into divergence.
  // Each leg then waits for the begin-serving replica to acknowledge its
  // decide's apply (AwaitDecideApplied), and the commit group gets the
  // same wait. The legs are detached tasks, started here in group order;
  // this client's next begin on a group waits for that group's leg, so a
  // begin issued after Commit returns sees the group's new frontier. Best
  // effort: an unreachable participant is resolved by recovery against
  // the commit group's canonical decide.
  const bool commit = decide.commit;
  AwaitDecideApplied(commit_group, new DecideOutcome(std::move(decide)),
                     KeepDecideWait(commit_group));
  for (size_t i = 1; i < outcomes.size(); ++i) {
    const std::string& group = state->groups[i];
    PropagateDecide(group, outcomes[i].decide_floor, outcomes[i].decide_leader,
                    id, commit, KeepDecideWait(group));
  }

  if (commit) {
    result.committed = true;
    result.status = Status::OK();
  } else if (want_commit) {
    // Overruled: a recovery abort reached the commit group's log first.
    result.status = Status::Aborted(
        "cross-group transaction aborted by recovery before the commit "
        "decide landed");
  } else {
    result.status =
        Status::Aborted("cross-group transaction aborted (" + fail_detail +
                        ")");
  }
  co_return result;
}

sim::Coro<TransactionClient::CrossPrepareOutcome>
TransactionClient::PrepareCrossLeg(CrossTxnState* state, std::string group,
                                   CrossCrashGate* gate) {
  CrossPrepareOutcome out;
  const TxnId id = state->id;
  const uint64_t ts = state->cross_ts;
  // Crash gate, checked before proposing anything: it only fires here
  // when the threshold is zero (all legs start before any prepare lands).
  if (gate->Tripped()) co_return out;  // kAbandoned

  TxnState& leg = state->legs[group];
  wal::TxnRecord record = leg.ToRecord(home_);
  record.kind = wal::RecordKind::kPrepare;
  record.cross_ts = ts;
  record.participants = state->groups;
  wal::LogEntry own;
  own.txns.push_back(record);
  own.winner_dc = home_;

  LogPos pos = leg.read_pos + 1;
  DcId leader = leg.leader_dc;
  out.decide_floor = pos;
  out.decide_leader = leader;
  DecidedRun run;
  for (;;) {
    InstanceOutcome outcome =
        co_await RunInstance(group, pos, &own, leader, &run, leg.stream);
    if (!outcome.decided) {
      out.kind = CrossPrepareOutcome::Kind::kUnavailable;
      out.detail = "prepare on '" + group + "' reached no quorum";
      co_return out;
    }
    const wal::LogEntry& decided = *outcome.decided;
    // A decide for OUR OWN transaction in the walked entries means the
    // recovery daemon already resolved us (it concluded the coordinator
    // crashed while we were merely slow). That decide is canonical — this
    // leg's prepare did NOT land (a decide and a prepare share the txn id,
    // which is exactly why the landed check below matches on kind too).
    // Report a conflict: the coordinator then proposes abort, and its
    // decide walk floors at or below this position, finds the recovery's
    // decide first, and adopts the canonical fate — never committing
    // above it.
    if (decided.FindDecide(id) != nullptr) {
      out.kind = CrossPrepareOutcome::Kind::kConflict;
      out.detail = "recovery already decided txn at position " +
                   std::to_string(pos) + " of '" + group + "'";
      co_return out;
    }
    if (decided.FindPrepare(id) != nullptr) {
      // Landed (possibly combined into another proposer's entry). A
      // younger prepare ahead of ours *within* the entry still violates
      // the shared commit order — the prepare stays in the log but the
      // transaction must abort (the decide makes it a no-op).
      out.pos = pos;
      out.decide_floor = pos + 1;
      out.decide_leader = decided.winner_dc;
      ++gate->landed;
      if (OwnPrecededByYounger(decided, ts, id)) {
        out.kind = CrossPrepareOutcome::Kind::kConflict;
        out.detail = "commit-order violation inside entry " +
                     std::to_string(pos) + " of '" + group + "'";
      } else {
        out.kind = CrossPrepareOutcome::Kind::kPrepared;
      }
      co_return out;
    }
    // Lost the position. A younger cross prepare already in the log
    // means landing anywhere later would violate the shared order.
    if (HasYoungerPrepare(decided, ts, id)) {
      out.kind = CrossPrepareOutcome::Kind::kConflict;
      out.detail = "younger cross-group prepare at position " +
                   std::to_string(pos) + " of '" + group + "'";
      co_return out;
    }
    if (PromotionConflicts(record, decided)) {
      out.kind = CrossPrepareOutcome::Kind::kConflict;
      out.detail = "read-write conflict with winner of position " +
                   std::to_string(pos) + " in '" + group + "'";
      co_return out;
    }
    // Re-check the gate before walking on: prepares landing on other legs
    // can trip the coordinator mid-walk, leaving this leg abandoned
    // between positions — the partial-parallel-prepare window.
    if (gate->Tripped()) {
      out.kind = CrossPrepareOutcome::Kind::kAbandoned;
      co_return out;
    }
    ++out.promotions;
    leader = decided.winner_dc;
    ++pos;
  }
}

sim::Coro<TransactionClient::DecideOutcome> TransactionClient::ProposeDecide(
    std::string group, LogPos floor, DcId leader, TxnId id, bool commit) {
  wal::TxnRecord record;
  record.id = id;
  record.origin_dc = home_;
  record.kind = wal::RecordKind::kDecide;
  record.commit_decision = commit;
  wal::LogEntry own;
  own.txns.push_back(record);
  own.winner_dc = home_;

  DecideOutcome out;
  net::DelayStream* stream = LegStream(group);
  LogPos pos = floor;
  // Decide records read nothing, so they can promote past any entry; the
  // cap only bounds a runaway walk across a pathologically hot log. It
  // must comfortably exceed any real log length: recovery's forced-abort
  // path can floor at position 1 (commit-group prepare hidden by a
  // partition), and a walk that gives up inside the decided prefix would
  // leave the pending prepare holding the group's read frontier forever.
  constexpr int kMaxDecideWalk = 1 << 16;
  DecidedRun run;
  for (int step = 0; step < kMaxDecideWalk; ++step) {
    InstanceOutcome outcome =
        co_await RunInstance(group, pos, &own, leader, &run, stream);
    if (!outcome.decided) co_return out;
    // First decide for this transaction in the walk — ours or someone
    // else's — is the decision (walks start at or below every possible
    // decide position, so the first one encountered is the lowest).
    if (const wal::TxnRecord* found = outcome.decided->FindDecide(id)) {
      out.known = true;
      out.commit = found->commit_decision;
      out.pos = pos;
      out.entry = *std::move(outcome.decided);
      out.applied = std::move(outcome.applied);
      co_return out;
    }
    leader = outcome.decided->winner_dc;
    ++pos;
  }
  co_return out;
}

sim::Promise<CallResult> TransactionClient::KeepDecideWait(
    const std::string& group) {
  sim::Promise<CallResult> done(sim_);
  commit_waits_[group].push_back(done.GetFuture());
  return done;
}

sim::Task TransactionClient::AwaitDecideApplied(
    std::string group, DecideOutcome* raw, sim::Promise<CallResult> done) {
  std::unique_ptr<DecideOutcome> decide(raw);
  // The walk's own apply went to every replica, and home answers it. When
  // home acknowledged, the replica a begin tries first has the entry.
  int first = 0;
  if (decide->applied.valid()) {
    CallResult ack = co_await decide->applied;
    if (ApplyAcked(ack)) {
      done.Set(std::move(ack));
      co_return;
    }
    first = 1;  // home already cost one timeout: fail over past it
  }
  // Home's answer failed, or another proposer landed the entry (say, the
  // recovery daemon decided first) and this walk only learned it, so no
  // answer is on its way. Deliver the entry to the begin-serving replica
  // directly, in the order a begin tries the replicas. The null ballot
  // leaves that replica's acceptor ballots as they are.
  const ServiceRequest apply =
      ApplyRequest{group, decide->pos, paxos::kNullBallot, decide->entry};
  CallResult result =
      co_await CallWithFailover(&apply, LegStream(group), first);
  done.Set(std::move(result));
}

sim::Task TransactionClient::PropagateDecide(std::string group, LogPos floor,
                                             DcId leader, TxnId id,
                                             bool commit,
                                             sim::Promise<CallResult> done) {
  DecideOutcome landed =
      co_await ProposeDecide(group, floor, leader, id, commit);
  if (!landed.known) {
    // Recovery's to land: nothing to wait for.
    done.Set(CallResult{Status::OK(), ApplyResponse{true}});
    co_return;
  }
  AwaitDecideApplied(std::move(group), new DecideOutcome(std::move(landed)),
                     std::move(done));
}

// ------------------------------------------------------------- recovery

sim::Coro<TransactionClient::CrossQueryResult>
TransactionClient::QueryCrossAll(std::string group, TxnId id) {
  CrossQueryResult out;
  const ServiceRequest query = QueryCrossRequest{group, id};
  for (int dc = 0; dc < network_->num_datacenters(); ++dc) {
    CallResult r = co_await network_->Call(
        home_, (home_ + dc) % network_->num_datacenters(), query);
    if (!r.status.ok()) continue;
    const auto& q = std::get<QueryCrossResponse>(r.response);
    if (q.has_prepare && !out.has_prepare) {
      out.has_prepare = true;
      out.prepare_pos = q.prepare_pos;
      out.participants = q.participants;
    }
    if (q.decision_canonical && !out.has_canonical_decision) {
      out.has_canonical_decision = true;
      out.decision_commit = q.decision_commit;
    }
    out.safe_pos = std::max(out.safe_pos, q.safe_pos);
  }
  co_return out;
}

// -------------------------------------------------------------- Session

sim::Coro<CrossTxn> Session::BeginCross(std::vector<std::string> groups) {
  if (client_ == nullptr) {
    assert(false && "BeginCross on an invalid (default) Session");
    return FailedBegin<CrossTxn>(
        Status::FailedPrecondition("invalid session"));
  }
  return client_->BeginCrossTxn(std::move(groups));
}

}  // namespace paxoscp::txn
