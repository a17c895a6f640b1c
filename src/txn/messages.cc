#include "txn/messages.h"

#include <algorithm>

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

}  // namespace paxoscp::txn
