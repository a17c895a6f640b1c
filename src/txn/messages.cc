#include "txn/messages.h"

#include <algorithm>
#include <utility>

namespace paxoscp::txn {

const char* RequestName(const ServiceRequest& request) {
  struct Visitor {
    const char* operator()(const BeginRequest&) const { return "begin"; }
    const char* operator()(const ReadRequest&) const { return "read"; }
    const char* operator()(const ReadRowRequest&) const { return "read_row"; }
    const char* operator()(const PrepareRequest&) const { return "prepare"; }
    const char* operator()(const AcceptRequest&) const { return "accept"; }
    const char* operator()(const ApplyRequest&) const { return "apply"; }
    const char* operator()(const ClaimLeaderRequest&) const {
      return "claim_leader";
    }
    const char* operator()(const QueryCrossRequest&) const {
      return "query_cross";
    }
  };
  return std::visit(Visitor{}, request);
}

PrepareTally TallyPrepares(BroadcastResult* results, paxos::Ballot* max_seen) {
  PrepareTally tally;
  for (net::TargetResult<ServiceResponse>& target : *results) {
    if (!target.status.ok()) continue;
    paxos::PrepareResult& pr = std::get<PrepareResponse>(target.response).result;
    if (pr.decided.has_value() && !tally.decided.has_value()) {
      tally.decided = std::move(pr.decided);
    }
    *max_seen = std::max(*max_seen, pr.next_bal);
    if (pr.promised) {
      tally.votes.push_back(
          paxos::LastVote{target.dc, pr.vote_ballot, std::move(pr.vote_value)});
    }
  }
  return tally;
}

int TallyAccepts(const BroadcastResult& results, paxos::Ballot* max_seen) {
  int accepted = 0;
  for (const net::TargetResult<ServiceResponse>& target : results) {
    if (!target.status.ok()) continue;
    const paxos::AcceptResult& ar =
        std::get<AcceptResponse>(target.response).result;
    if (ar.accepted) {
      ++accepted;
    } else {
      *max_seen = std::max(*max_seen, ar.next_bal);
    }
  }
  return accepted;
}

Network::Settle AcceptSettle(int majority) {
  return [majority](const BroadcastResult& results) {
    paxos::Ballot unused;
    return TallyAccepts(results, &unused) >= majority;
  };
}

namespace {

/// A prepare response's vote as the same-ballot test reads it: the value is
/// null for bottom, a refusal, or a response still in flight.
std::pair<paxos::Ballot, const wal::LogEntry*> PromisedVote(
    const net::TargetResult<ServiceResponse>& target) {
  if (!target.status.ok()) return {};
  const paxos::PrepareResult& pr =
      std::get<PrepareResponse>(target.response).result;
  if (!pr.promised || !pr.vote_value.has_value()) return {};
  return {pr.vote_ballot, &*pr.vote_value};
}

}  // namespace

Network::Settle PrepareSettle(int majority) {
  return [majority](const BroadcastResult& results) {
    for (const net::TargetResult<ServiceResponse>& target : results) {
      if (!target.status.ok()) continue;
      if (std::get<PrepareResponse>(target.response).result.decided) {
        return true;
      }
    }
    return paxos::ChosenAtOneBallot(results, majority, PromisedVote) !=
           nullptr;
  };
}

}  // namespace paxoscp::txn
