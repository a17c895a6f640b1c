#include "txn/client.h"

#include <iterator>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "paxos/value_selection.h"
#include "txn/cross.h"

namespace paxoscp::txn {

TransactionClient::TransactionClient(Network* network, DcId home,
                                     const ClientOptions& options,
                                     uint32_t client_uid, uint64_t seed)
    : network_(network),
      sim_(network->simulator()),
      home_(home),
      options_(options),
      rng_(seed),
      seed_(seed),
      client_uid_(client_uid) {
  const int d = network_->num_datacenters();
  all_dcs_.resize(d);
  std::iota(all_dcs_.begin(), all_dcs_.end(), 0);
  majority_ = paxos::Quorum(d);
}

TimeMicros TransactionClient::RandomBackoff(net::DelayStream* stream) {
  return paxos::RoundBackoff(stream != nullptr ? &stream->rng : &rng_);
}

TimeMicros TransactionClient::RandomBackoffIn(TimeMicros lo, TimeMicros hi) {
  return rng_.UniformRange(lo, hi);
}

net::DelayStream* TransactionClient::LegStream(const std::string& group) {
  const uint64_t stream_seed = HashMix(seed_ ^ HashString(group));
  return &leg_streams_.try_emplace(group, stream_seed).first->second;
}

void TransactionClient::ReleaseGroup(const std::string& group) {
  active_groups_.erase(group);
}

void internal::ReleaseSlots(TransactionClient* client, const TxnState& state) {
  client->ReleaseGroup(state.group);
}

void internal::ReleaseSlots(TransactionClient* client,
                            const CrossTxnState& state) {
  for (const std::string& group : state.groups) client->ReleaseGroup(group);
}

sim::Coro<CallResult> TransactionClient::CallWithFailover(
    const ServiceRequest* request, net::DelayStream* stream, int first) {
  // Home datacenter first (the paper's locality optimization), then every
  // other Transaction Service until one answers.
  CallResult last{Status::Unavailable("no datacenters"), {}};
  for (int attempt = first; attempt < network_->num_datacenters();
       ++attempt) {
    const DcId target = (home_ + attempt) % network_->num_datacenters();
    last = co_await network_->Call(home_, target, *request, stream);
    if (last.status.ok()) co_return last;
  }
  co_return last;
}

bool TransactionClient::ApplyAcked(const CallResult& result) {
  return result.status.ok() && std::get<ApplyResponse>(result.response).ok;
}

std::vector<CallFuture> TransactionClient::TakeCommitWaits(
    const std::string& group) {
  const auto it = commit_waits_.find(group);
  if (it == commit_waits_.end()) return {};
  std::vector<CallFuture> waits = std::move(it->second);
  commit_waits_.erase(it);
  return waits;
}

sim::Coro<Txn> TransactionClient::BeginTxn(std::string group) {
  if (active_groups_.count(group) > 0) {
    co_return Txn(Status::FailedPrecondition(
        "client already has an active transaction on group '" + group + "'"));
  }
  active_groups_.insert(group);
  // Read-your-own-commits (D15, D16): a begin that overtook home's apply of
  // one of this client's commits would read below it. The waits are
  // usually over by now, and then the awaits do not suspend. When one
  // failed, the begin goes ahead as if it had not waited.
  std::vector<CallFuture> waits = TakeCommitWaits(group);
  for (CallFuture& applied : waits) {
    const CallResult ack = co_await applied;
    if (!ApplyAcked(ack)) ++begin_giveups_;
  }
  ServiceRequest begin_request = BeginRequest{group};
  CallResult result = co_await CallWithFailover(&begin_request);
  if (!result.status.ok()) {
    active_groups_.erase(group);
    co_return Txn(result.status);
  }
  const auto& begin = std::get<BeginResponse>(result.response);

  auto state = std::make_unique<TxnState>();
  state->group = std::move(group);
  state->id = MakeTxnId(
      home_, (static_cast<uint64_t>(client_uid_) << 24) | (next_seq_++));
  state->read_pos = begin.read_pos;
  state->leader_dc = begin.leader_dc;
  co_return Txn(this, std::move(state));
}

sim::Coro<Result<std::string>> TransactionClient::ReadItem(
    TxnState* state, std::string row, std::string attribute) {
  const wal::ItemId item{row, attribute};

  // (A1) read-own-writes from the local buffer.
  if (auto buffered = state->writes.find(item);
      buffered != state->writes.end()) {
    co_return buffered->second;
  }

  // Repeated snapshot reads return the first observation (the snapshot
  // cannot change: all reads use one read position, property A2).
  if (auto recorded = state->reads.find(item);
      recorded != state->reads.end()) {
    co_return recorded->second.value;
  }

  ServiceRequest read_request =
      ReadRequest{state->group, item, state->read_pos};
  CallResult result = co_await CallWithFailover(&read_request, state->stream);
  if (!result.status.ok()) co_return result.status;
  auto& read = std::get<ReadResponse>(result.response);
  if (!read.status.ok()) co_return read.status;

  // Record the read (with observed provenance) in the read set. A
  // concurrent read of the same item may have recorded it first.
  co_return state->reads.emplace(item, std::move(read.read))
      .first->second.value;
}

sim::Coro<Result<kvstore::AttributeMap>> TransactionClient::ReadRowItems(
    TxnState* state, std::string row) {
  ServiceRequest read_request =
      ReadRowRequest{state->group, row, state->read_pos};
  CallResult result = co_await CallWithFailover(&read_request, state->stream);
  if (!result.status.ok()) co_return result.status;
  auto& read = std::get<ReadRowResponse>(result.response);
  if (!read.status.ok()) co_return read.status;

  kvstore::AttributeMap out;
  for (auto& [attribute, item_read] : read.attrs) {
    wal::ItemId item{row, attribute};
    // (A1) attributes this transaction already wrote are served from the
    // buffer (the overlay loop below supplies the value) and never enter
    // the read set.
    if (state->writes.count(item) > 0) continue;
    out[attribute] = item_read.value;
    state->reads.emplace(std::move(item), std::move(item_read));
  }
  // Buffered writes of attributes absent from the snapshot still belong
  // to the row this transaction observes.
  for (const auto& [item, value] : state->writes) {
    if (item.row == row) out[item.attribute] = value;
  }
  // Reading the whole row also observes which attributes exist, so record
  // a row-level predicate read: a concurrent transaction creating an
  // attribute this one saw as absent is a genuine conflict (phantom
  // protection; TxnRecord::Writes matches it against any write to the
  // row). The single-item path gets this for free by recording absent
  // reads with provenance 0/0.
  state->reads.emplace(wal::ItemId{row, wal::kWholeRowAttribute},
                       wal::ItemRead{});
  co_return out;
}

sim::Coro<CommitResult> TransactionClient::CommitTxn(TxnState* state) {
  CommitResult result;
  const TimeMicros start = sim_->Now();

  // Read-only transactions commit automatically with no replication
  // (paper §2.2: "If the transaction is read-only, commit automatically
  // succeeds, and no communication with the Transaction Service is
  // needed").
  if (state->writes.empty()) {
    result.status = Status::OK();
    result.committed = true;
    result.read_only = true;
    result.latency = sim_->Now() - start;
    co_return result;
  }

  const wal::TxnRecord record = state->ToRecord(home_);
  wal::LogEntry own;
  own.txns.push_back(record);
  own.winner_dc = home_;

  LogPos pos = state->read_pos + 1;  // commit position = read position + 1
  DcId leader = state->leader_dc;
  DecidedRun run;

  for (;;) {
    InstanceOutcome outcome = co_await RunInstance(
        state->group, pos, &own, leader, &run, state->stream);
    if (!outcome.decided) {
      result.status =
          Status::Unavailable("commit protocol could not reach a quorum");
      co_return result;
    }
    const wal::LogEntry& decided = *outcome.decided;
    if (decided.ContainsRecord(record.id, record.kind)) {
      // The client's next begin on the group waits for home to answer this
      // commit's apply (D15). A record that landed in another proposer's
      // entry sent no apply, so there is nothing to wait for.
      if (outcome.applied.valid()) {
        commit_waits_[state->group].push_back(std::move(outcome.applied));
      }
      result.status = Status::OK();
      result.committed = true;
      result.position = pos;
      result.fast_path = outcome.fast_path;
      result.latency = sim_->Now() - start;
      co_return result;
    }

    // Lost the position. Basic Paxos aborts here ("All other competing
    // transactions receive an abort response", paper §4.1).
    if (options_.protocol == Protocol::kBasicPaxos) {
      result.status = Status::Aborted("lost log position " +
                                      std::to_string(pos));
      result.latency = sim_->Now() - start;
      co_return result;
    }
    // Paxos-CP promotion (§5): retry at the next position unless we read
    // something the winners wrote.
    if (PromotionConflicts(record, decided)) {
      result.status = Status::Aborted(
          "read-write conflict with winner of position " +
          std::to_string(pos));
      result.latency = sim_->Now() - start;
      co_return result;
    }
    if (options_.promotion_cap >= 0 &&
        result.promotions >= options_.promotion_cap) {
      result.status = Status::Aborted("promotion cap reached at position " +
                                      std::to_string(pos));
      result.latency = sim_->Now() - start;
      co_return result;
    }
    ++result.promotions;
    leader = decided.winner_dc;
    ++pos;
  }
}

sim::Coro<std::optional<TransactionClient::InstanceOutcome>>
TransactionClient::AcceptAndApply(std::string group, LogPos pos,
                                  paxos::Ballot ballot,
                                  const wal::LogEntry* proposal,
                                  paxos::Ballot* max_seen,
                                  net::DelayStream* stream) {
  ServiceRequest accept_request = AcceptRequest{group, pos, ballot, *proposal};
  BroadcastResult aresults = co_await network_->Broadcast(
      home_, all_dcs_, accept_request, stream, AcceptSettle(majority_));
  if (TallyAccepts(aresults, max_seen) < majority_) co_return std::nullopt;

  // Decided. Send apply to every replica (Step 5), and ask only home to
  // answer (D15): the next begin's waits read home's answer, and nothing
  // reads the others'. The outcome carries that answer without waiting for
  // it.
  const ServiceRequest apply_request =
      ApplyRequest{group, pos, ballot, *proposal};
  InstanceOutcome outcome(*proposal);
  std::vector<CallFuture> home = network_->Multicast(
      home_, all_dcs_, apply_request, Network::Answering::kSender, stream);
  outcome.applied = std::move(home.front());
  co_return outcome;
}

sim::Coro<TransactionClient::InstanceOutcome> TransactionClient::RunInstance(
    std::string group, LogPos pos, const wal::LogEntry* own, DcId leader_dc,
    DecidedRun* run, net::DelayStream* stream) {
  paxos::Ballot max_seen;  // null

  // Decided-run short circuit (D14): an earlier refused claim of this walk
  // returned this position's entry. Served only at the run's own position.
  if (run->pos != pos) run->entries.clear();
  if (!run->entries.empty()) {
    InstanceOutcome outcome(std::move(run->entries.front()));
    run->entries.pop_front();
    ++run->pos;
    co_return outcome;
  }

  // Leader fast path (§4.1): ask the leader of this position whether we are
  // first; if so, skip the prepare phase and propose with ballot round 0.
  // Round-0 grants are unique only because every claim for a position goes
  // to that position's one leader, so a caller that does not know the
  // leader (kNoDc) must not guess one: it runs the full protocol.
  if (options_.leader_optimization && leader_dc != kNoDc) {
    const ServiceRequest claim_request = ClaimLeaderRequest{group, pos};
    CallResult claim =
        co_await network_->Call(home_, leader_dc, claim_request, stream);
    if (claim.status.ok()) {
      auto& reply = std::get<ClaimLeaderResponse>(claim.response);
      if (reply.granted) {
        std::optional<InstanceOutcome> outcome = co_await AcceptAndApply(
            group, pos, paxos::Ballot{0, home_}, own, &max_seen, stream);
        if (outcome.has_value()) {
          outcome->fast_path = true;
          co_return *std::move(outcome);
        }
        // Contention: fall through to the full protocol.
      } else if (!reply.run.empty()) {
        // Refused by a leader that holds this position's entry: it answers
        // the position, and the entries after it wait in the run.
        run->pos = pos + 1;
        run->entries.assign(std::make_move_iterator(reply.run.begin() + 1),
                            std::make_move_iterator(reply.run.end()));
        co_return InstanceOutcome(std::move(reply.run.front()));
      }
    }
  }

  for (int round = 0; round < options_.max_rounds_per_position; ++round) {
    const paxos::Ballot ballot = paxos::NextBallot(max_seen, home_);

    // Prepare phase (Step 1/2).
    ServiceRequest prepare_request = PrepareRequest{group, pos, ballot};
    BroadcastResult presults = co_await network_->Broadcast(
        home_, all_dcs_, prepare_request, stream, PrepareSettle(majority_));
    PrepareTally prepares = TallyPrepares(&presults, &max_seen);

    // Catch-up short circuit: a replica already knows the decided value.
    if (prepares.decided.has_value()) {
      co_return InstanceOutcome(std::move(prepares.decided));
    }

    if (prepares.promised() < majority_) {
      co_await sim::SleepFor(sim_, RandomBackoff(stream));
      continue;
    }

    // Choose the value to propose (Step 3).
    wal::LogEntry proposal;
    if (options_.protocol == Protocol::kPaxosCP) {
      paxos::SelectionDecision decision = paxos::EnhancedFindWinningValue(
          prepares.votes, prepares.promised(), network_->num_datacenters(),
          *own, options_.combine);
      if (decision.kind == paxos::SelectionKind::kLost) {
        // A competing value certainly won; stop before the accept phase
        // (§5: the promoted client "stops executing the Paxos protocol
        // before sending accept messages for the winning value").
        co_return InstanceOutcome(std::move(decision.value));
      }
      proposal = std::move(decision.value);
    } else {
      std::optional<wal::LogEntry> winning =
          paxos::FindWinningValue(prepares.votes);
      proposal = winning.has_value() ? *std::move(winning) : *own;
    }

    // Accept + apply (Steps 3-5).
    std::optional<InstanceOutcome> outcome = co_await AcceptAndApply(
        group, pos, ballot, &proposal, &max_seen, stream);
    if (outcome.has_value()) co_return *std::move(outcome);

    co_await sim::SleepFor(sim_, RandomBackoff(stream));
  }

  co_return InstanceOutcome();
}

}  // namespace paxoscp::txn
