#include "txn/recovery.h"

#include <utility>

#include "txn/client.h"

namespace paxoscp::txn::recovery {

sim::Coro<RecoveryResult> CrossRecovery::Run(TransactionClient* engine,
                                             std::string group, TxnId id) {
  RecoveryResult out;
  // 1. Locate the prepare (participant list + commit group). The caller
  // observed it pending in `group`, so some replica there knows it.
  TransactionClient::CrossQueryResult at_group =
      co_await engine->QueryCrossAll(group, id);
  if (!at_group.has_prepare || at_group.participants.empty()) {
    out.status = Status::NotFound("no replica knows the prepare of txn " +
                                  TxnIdToString(id) + " in group '" + group +
                                  "'");
    co_return out;
  }
  const std::string commit_group = at_group.participants.front();

  // 2. Learn the canonical decision from the commit group — a replica
  // whose log is contiguous through its decision marker answers
  // authoritatively. (Plain if/else, not a conditional expression: a
  // co_await inside a ternary arm is a temporary-across-suspension
  // hazard under GCC 12 — see the parameter rules in client.h.)
  TransactionClient::CrossQueryResult at_cg;
  if (commit_group == group) {
    at_cg = at_group;
  } else {
    at_cg = co_await engine->QueryCrossAll(commit_group, id);
  }
  bool decision_commit = at_cg.decision_commit;

  // 3. No canonical decision anywhere: force abort by proposing an abort
  // decide in the commit group. Whatever decide lands lowest wins — if a
  // slow coordinator's commit decide got there first, the walk adopts it.
  // The floor must be at or below every possible decide position: after
  // the commit-group prepare if it landed, else the log's start (the
  // rare crashed-before-its-first-prepare case). Recovery does not know
  // who leads the floor, so the walk skips the fast path there (kNoDc).
  if (!at_cg.has_canonical_decision) {
    const LogPos cg_floor = at_cg.has_prepare ? at_cg.prepare_pos + 1 : 1;
    TransactionClient::DecideOutcome forced = co_await engine->ProposeDecide(
        commit_group, cg_floor, kNoDc, id, /*commit=*/false);
    if (!forced.known) {
      out.status = Status::Unavailable(
          "recovery could not decide txn " + TxnIdToString(id) +
          " in commit group '" + commit_group + "'");
      co_return out;
    }
    decision_commit = forced.commit;
    out.forced_abort = !forced.commit;
  }

  // 4. Propagate the canonical decision to every other participant —
  // their own pending prepares unblock on the same decide. Decides in
  // participant groups are idempotent canonical copies, so the walk may
  // start from the participant's frontier (its prepare position, else
  // the safe read position a replica reports) instead of position 1 —
  // no need to find an existing lower decide, only to land one.
  for (const std::string& participant : at_group.participants) {
    if (participant == commit_group) continue;
    TransactionClient::CrossQueryResult at_part;
    if (participant == group) {
      at_part = at_group;
    } else {
      at_part = co_await engine->QueryCrossAll(participant, id);
    }
    LogPos floor = 1;
    if (at_part.has_prepare) {
      floor = at_part.prepare_pos + 1;
    } else if (at_part.safe_pos > 0) {
      floor = at_part.safe_pos + 1;
    }
    TransactionClient::DecideOutcome propagated =
        co_await engine->ProposeDecide(participant, floor, kNoDc, id,
                                       decision_commit);
    if (!propagated.known) {
      out.status = Status::Unavailable(
          "recovery could not propagate decide of " + TxnIdToString(id) +
          " to '" + participant + "'");
      co_return out;
    }
  }
  out.decided = true;
  out.commit = decision_commit;
  out.status = Status::OK();
  co_return out;
}

}  // namespace paxoscp::txn::recovery
