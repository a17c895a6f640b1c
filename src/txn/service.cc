#include "txn/service.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "paxos/value_selection.h"
#include "txn/client.h"
#include "txn/recovery.h"

namespace paxoscp::txn {

namespace {

constexpr int kMaxLearnAttempts = 8;
constexpr int kMaxCatchUpSteps = 4096;

// Recovery daemon timers (D10).
/// Upper bound on the deterministic per-(replica, txn) jitter added to
/// base_delay, desynchronizing the replicas' timers.
constexpr TimeMicros kMaxJitter = 500 * kMillisecond;
/// Backoff before re-considering a transaction whose recovery attempt
/// failed or was deferred to the arbiter; doubles per attempt, capped.
constexpr TimeMicros kRetryBackoff = 1 * kSecond;
constexpr TimeMicros kMaxBackoff = 8 * kSecond;
/// Attempt cap per pending transaction: bounds the timer chain so an
/// unresolvable transaction (e.g. under a permanent partition) cannot
/// keep the simulator's event queue alive forever.
constexpr int kMaxAttempts = 16;
/// Attempt index from which a non-arbiter replica drives recovery itself
/// instead of deferring: the arbiter may never have seen this prepare
/// (its replica can be missing the entry), so pure deference could stall
/// forever. Escalated duplicate drives are safe — recovery is idempotent;
/// arbitration only avoids the common-case recovery storm.
constexpr int kEscalateAfter = 4;

std::vector<DcId> AllDatacenters(int d) {
  std::vector<DcId> all(d);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

}  // namespace

TransactionService::TransactionService(DcId dc, Network* network,
                                       kvstore::MultiVersionStore* store,
                                       uint64_t seed)
    : dc_(dc), network_(network), store_(store), rng_(seed), seed_(seed) {}

// Out of line: recovery_client_ is a unique_ptr to the forward-declared
// TransactionClient.
TransactionService::~TransactionService() = default;

TransactionService::GroupState* TransactionService::Group(
    const std::string& group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    it = groups_.emplace(group, std::make_unique<GroupState>(store_, group))
             .first;
  }
  return it->second.get();
}

wal::WriteAheadLog* TransactionService::GroupLog(const std::string& group) {
  return &Group(group)->log;
}

paxos::Acceptor* TransactionService::GroupAcceptor(const std::string& group) {
  return &Group(group)->acceptor;
}

sim::Coro<ServiceResponse> TransactionService::Handle(
    DcId /*from*/, const ServiceRequest* request) {
  if (const auto* begin = std::get_if<BeginRequest>(request)) {
    return HandleBegin(begin);
  }
  if (const auto* read = std::get_if<ReadRequest>(request)) {
    return HandleRead(read);
  }
  if (const auto* read_row = std::get_if<ReadRowRequest>(request)) {
    return HandleReadRow(read_row);
  }
  if (const auto* prepare = std::get_if<PrepareRequest>(request)) {
    return HandlePrepare(prepare);
  }
  if (const auto* accept = std::get_if<AcceptRequest>(request)) {
    return HandleAccept(accept);
  }
  if (const auto* apply = std::get_if<ApplyRequest>(request)) {
    return HandleApply(apply);
  }
  if (const auto* claim = std::get_if<ClaimLeaderRequest>(request)) {
    return HandleClaimLeader(claim);
  }
  return HandleQueryCross(&std::get<QueryCrossRequest>(*request));
}

sim::Coro<ServiceResponse> TransactionService::HandleBegin(
    const BeginRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.begin);
  GroupState* gs = Group(request->group);
  BeginResponse response;
  if (request->cross) {
    // Cross-group begin (D8): the read position must be covered by the
    // commit-order watermark, which only sees entries this replica has —
    // so use the contiguous frontier (and stay below pending prepares).
    response.read_pos =
        std::min(gs->log.ContiguousFrontier(), gs->log.SafeReadPos());
    response.max_cross_ts = gs->log.MaxCrossTs();
  } else {
    // Single-group path: MaxDecided, held below any prepared-but-undecided
    // cross-group prepare (identical to MaxDecided when none is pending).
    response.read_pos = gs->log.SafeReadPos();
  }
  // Leader for the next position = datacenter of the previous winner. The
  // leader MUST be the same at every datacenter — otherwise two clients
  // could each obtain a round-0 fast-path grant from "their" leader and
  // produce two distinct round-0 ballots, which the recovery rule (max
  // ballot wins) cannot arbitrate safely (ARCHITECTURE D3). For position 1
  // of a fresh log there is no previous winner, and every datacenter names
  // datacenter 0 by convention. A replica that lacks the entry at a later
  // read position cannot know its winner, so it names none (kNoDc) and the
  // commit skips the fast path, as decide walks with an unknown leader do.
  response.leader_dc = 0;
  if (response.read_pos > 0) {
    Result<wal::LogEntry> last = gs->log.GetEntry(response.read_pos);
    if (!last.ok()) {
      response.leader_dc = kNoDc;
    } else if (last->winner_dc != kNoDc) {
      response.leader_dc = last->winner_dc;
    }
  }
  co_return ServiceResponse(std::move(response));
}

sim::Coro<ServiceResponse> TransactionService::HandleRead(
    const ReadRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.read);
  GroupState* gs = Group(request->group);
  ReadResponse response;
  response.status = co_await CatchUp(gs, request->read_pos);
  if (response.status.ok()) {
    response.read = gs->log.ReadItem(request->item, request->read_pos);
    ++reads_served_;
  }
  co_return ServiceResponse(std::move(response));
}

sim::Coro<ServiceResponse> TransactionService::HandleReadRow(
    const ReadRowRequest* request) {
  // One full-row read costs one storage operation, like an item read (in
  // the paper's HBase testbed both fetch one row).
  co_await sim::SleepFor(network_->simulator(), model_.read);
  GroupState* gs = Group(request->group);
  ReadRowResponse response;
  response.status = co_await CatchUp(gs, request->read_pos);
  if (response.status.ok()) {
    response.attrs = gs->log.ReadRow(request->row, request->read_pos);
    ++reads_served_;
  }
  co_return ServiceResponse(std::move(response));
}

sim::Coro<ServiceResponse> TransactionService::HandlePrepare(
    const PrepareRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.prepare);
  GroupState* gs = Group(request->group);
  PrepareResponse response;
  response.result = gs->acceptor.OnPrepare(request->pos, request->ballot);
  co_return ServiceResponse(std::move(response));
}

sim::Coro<ServiceResponse> TransactionService::HandleAccept(
    const AcceptRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.accept);
  GroupState* gs = Group(request->group);
  AcceptResponse response;
  response.result =
      gs->acceptor.OnAccept(request->pos, request->ballot, request->value);
  co_return ServiceResponse(std::move(response));
}

sim::Coro<ServiceResponse> TransactionService::HandleApply(
    const ApplyRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.apply);
  GroupState* gs = Group(request->group);
  const Status s =
      gs->acceptor.OnApply(request->pos, request->ballot, request->value);
  if (s.ok()) {
    NoteEntryLanded(request->group);
  } else {
    PAXOSCP_LOG(kError) << "dc " << dc_ << " apply failed at "
                        << request->group << "[" << request->pos
                        << "]: " << s.ToString();
  }
  co_return ServiceResponse(ApplyResponse{s.ok()});
}

sim::Coro<ServiceResponse> TransactionService::HandleClaimLeader(
    const ClaimLeaderRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.claim);
  GroupState* gs = Group(request->group);
  ClaimLeaderResponse response;
  response.granted = gs->acceptor.TryClaimLeadership(request->pos);
  if (!response.granted) {
    // A refusal reads the decided log from the claimed position on (D14):
    // one more storage operation, charged like the claim itself. It grants
    // nothing and touches no acceptor state; every entry it returns is
    // decided.
    co_await sim::SleepFor(network_->simulator(), model_.claim);
    for (LogPos pos = request->pos;; ++pos) {
      Result<wal::LogEntry> entry = gs->log.GetEntry(pos);
      if (!entry.ok()) break;
      response.run.push_back(*std::move(entry));
    }
  }
  co_return ServiceResponse(std::move(response));
}

sim::Coro<ServiceResponse> TransactionService::HandleQueryCross(
    const QueryCrossRequest* request) {
  co_await sim::SleepFor(network_->simulator(), model_.begin);
  GroupState* gs = Group(request->group);
  QueryCrossResponse response;
  const wal::PrepareInfo prep = gs->log.PrepareFor(request->txn);
  if (prep.known) {
    response.has_prepare = true;
    response.prepare_pos = prep.pos;
    response.participants = prep.participants;
  }
  const wal::CrossDecision decision = gs->log.DecisionFor(request->txn);
  if (decision.known) {
    response.decision_commit = decision.commit;
    // Canonical = provably the lowest decide in the log: this replica has
    // every entry up to the decide position, so no lower decide can be
    // hiding in an entry it has not seen.
    response.decision_canonical =
        gs->log.ContiguousFrontier() >= decision.pos;
  }
  response.safe_pos = gs->log.SafeReadPos();
  co_return ServiceResponse(std::move(response));
}

// ------------------------------------------- recovery daemon (D10)

void TransactionService::NoteEntryLanded(const std::string& group) {
  SyncPins(group);
  WatchForHole(group);
}

void TransactionService::SyncPins(const std::string& group) {
  GroupState* gs = Group(group);
  const TimeMicros now = network_->simulator()->Now();
  // Daemon off, this schedules no event and consumes no RNG, so daemon-off
  // runs stay bit-identical. Pending prepares are rare and short-lived; the
  // scan is cheap.
  std::set<TxnId> live;
  for (const wal::PendingPrepare& p : gs->log.PendingPrepares()) {
    live.insert(p.txn);
    if (pin_open_.emplace(PendingKey{group, p.txn}, now).second &&
        recovery_running_) {
      ArmRecoveryTimer(group, p.txn, 0,
                       recovery_options_.base_delay + RecoveryJitter(p.txn));
    }
  }
  for (auto it = pin_open_.begin(); it != pin_open_.end();) {
    if (it->first.first == group && live.count(it->first.second) == 0) {
      max_closed_pin_ = std::max(max_closed_pin_, now - it->second);
      it = pin_open_.erase(it);
    } else {
      ++it;
    }
  }
}

void TransactionService::WatchForHole(const std::string& group) {
  // The running check comes first: ContiguousFrontier writes a marker, so
  // daemon-off runs must never reach it from here.
  if (!recovery_running_ || hole_timed_.count(group) > 0) return;
  GroupState* gs = Group(group);
  const LogPos hole = gs->log.ContiguousFrontier() + 1;
  if (hole > gs->log.MaxDecided() ||
      holes_abandoned_.count({group, hole}) > 0) {
    return;
  }
  hole_timed_.insert(group);
  ArmHoleTimer(group, hole, 0,
               recovery_options_.base_delay + RecoveryJitter(hole));
}

void TransactionService::ArmHoleTimer(const std::string& group, LogPos hole,
                                      int attempt, TimeMicros delay) {
  const uint64_t generation = recovery_generation_;
  network_->simulator()->ScheduleAfter(
      std::max<TimeMicros>(delay, 1),
      [this, group, hole, attempt, generation] {
        if (recovery_running_ && generation == recovery_generation_) {
          LearnHole(group, hole, attempt, generation);
        }
      },
      "txn/hole-timer");
}

sim::Task TransactionService::LearnHole(std::string group, LogPos hole,
                                        int attempt, uint64_t generation) {
  // OK at once if the entry landed while the timer was queued.
  const Status learned = co_await LearnEntry(group, hole);
  if (generation != recovery_generation_) co_return;  // daemon stopped
  hole_timed_.erase(group);
  if (learned.ok()) {
    WatchForHole(group);
  } else if (attempt + 1 < kMaxAttempts) {
    hole_timed_.insert(group);
    ArmHoleTimer(group, hole, attempt + 1, RecoveryBackoff(attempt));
  } else {
    // Give up, like a recovery timer chain: a permanent partition must not
    // keep the event queue alive.
    ++recoveries_abandoned_;
    holes_abandoned_.insert({group, hole});
  }
}

TimeMicros TransactionService::RecoveryJitter(TxnId id) const {
  const uint64_t h = HashMix(seed_ ^ (id * 0x9e3779b97f4a7c15ULL) ^
                             (static_cast<uint64_t>(dc_) << 32));
  return static_cast<TimeMicros>(h % static_cast<uint64_t>(kMaxJitter));
}

TimeMicros TransactionService::RecoveryBackoff(int attempt) const {
  TimeMicros backoff = kRetryBackoff;
  for (int i = 0; i < attempt && backoff < kMaxBackoff; ++i) backoff *= 2;
  return std::min(backoff, kMaxBackoff);
}

void TransactionService::ArmRecoveryTimer(const std::string& group, TxnId id,
                                          int attempt, TimeMicros delay) {
  const uint64_t generation = recovery_generation_;
  network_->simulator()->ScheduleAfter(
      std::max<TimeMicros>(delay, 1),
      [this, group, id, attempt, generation] {
        RecoveryTimerFired(group, id, attempt, generation);
      },
      "txn/recovery-timer");
}

void TransactionService::RecoveryTimerFired(const std::string& group,
                                            TxnId id, int attempt,
                                            uint64_t generation) {
  if (!recovery_running_ || generation != recovery_generation_) return;
  // A decide can land here without this instance hearing of it: at a
  // restart, the retired instance serves the applies already in flight and
  // closes only its own pins.
  SyncPins(group);
  const PendingKey key{group, id};
  if (pin_open_.count(key) == 0) {
    // Resolved while the timer was queued (coordinator finished, or another
    // replica's recovery landed the decide here).
    return;
  }
  if (attempt >= kMaxAttempts) {
    // Give up: bounds the timer chain under a permanent partition. Counted,
    // because a transaction dropped here stays pending until the daemon is
    // restarted (the runner's post-run quiesce does that once).
    ++recoveries_abandoned_;
    return;
  }
  // Arbitration: the lowest *live* datacenter drives; everyone else backs
  // off and re-checks — when the arbiter goes down, the next timer firing
  // re-arbitrates and a new replica takes over. After kEscalateAfter
  // deferrals a watcher drives regardless: the arbiter may not know this
  // prepare at all (it can be missing the entry), and duplicate drives are
  // harmless — the recovery core is idempotent.
  bool arbiter = true;
  for (DcId dc = 0; dc < dc_; ++dc) {
    if (!network_->IsDatacenterDown(dc)) {
      arbiter = false;
      break;
    }
  }
  if ((arbiter || attempt >= kEscalateAfter) &&
      recovery_inflight_.count(key) == 0) {
    DriveRecovery(group, id, attempt, generation);
    return;  // DriveRecovery re-arms the chain if the pin survives
  }
  ArmRecoveryTimer(group, id, attempt + 1, RecoveryBackoff(attempt));
}

sim::Task TransactionService::DriveRecovery(std::string group, TxnId id,
                                            int attempt, uint64_t generation) {
  const PendingKey key{group, id};
  recovery_inflight_.insert(key);
  ++recoveries_started_;
  recovery::RecoveryResult result =
      co_await recovery::CrossRecovery::Run(RecoveryClient(), group, id);
  recovery_inflight_.erase(key);
  if (generation != recovery_generation_) co_return;  // daemon stopped
  if (result.status.ok()) {
    ++recoveries_decided_;
    if (result.forced_abort) ++recoveries_forced_abort_;
    // The canonical decide now exists in every participant group, but this
    // replica's own log may still miss the decide *entry* (the instance
    // apply broadcast is fire-and-forget): learn forward until the local
    // pending entry clears, bounded by the decided frontier.
    GroupState* gs = Group(group);
    for (int step = 0; step < kMaxCatchUpSteps; ++step) {
      if (pin_open_.count(key) == 0) break;
      const LogPos to_learn =
          gs->log.FirstMissing(1, gs->log.MaxDecided() + 1);
      if (to_learn == 0) break;
      const Status learned = co_await LearnEntry(group, to_learn);
      if (!learned.ok()) break;
    }
  }
  if (pin_open_.count(key) != 0 && recovery_running_ &&
      generation == recovery_generation_) {
    // Still pending: recovery failed, or the decide entry has not reached
    // this replica yet. Retry with backoff (the attempt cap ends the chain).
    ArmRecoveryTimer(group, id, attempt + 1, RecoveryBackoff(attempt));
  }
}

TransactionClient* TransactionService::RecoveryClient() {
  if (!recovery_client_) {
    ClientOptions copts = recovery_options_.client;
    copts.protocol = Protocol::kPaxosCP;   // decide walks need CP promotion
    copts.crash_after_prepares = -1;       // the daemon never self-crashes
    recovery_client_ = std::make_unique<TransactionClient>(
        network_, dc_, copts,
        /*client_uid=*/0xFF0000u | static_cast<uint32_t>(dc_),
        /*seed=*/HashMix(seed_ ^ 0x5851f42d4c957f2dULL));
  }
  return recovery_client_.get();
}

void TransactionService::StartRecoveryDaemon(
    const RecoveryDaemonOptions& options) {
  recovery_options_ = options;
  recovery_running_ = true;
  ++recovery_generation_;
  hole_timed_.clear();
  holes_abandoned_.clear();
  // Adopt pending prepares that predate the daemon (start-of-run, or a
  // daemon transferred across a service restart re-reading the durable WAL
  // side tables): open their pins and arm fresh timers.
  const TimeMicros now = network_->simulator()->Now();
  for (auto& [group, gs] : groups_) {
    for (const wal::PendingPrepare& p : gs->log.PendingPrepares()) {
      // Keeps an earlier open time if present.
      pin_open_.emplace(PendingKey{group, p.txn}, now);
      ArmRecoveryTimer(group, p.txn, 0,
                       options.base_delay + RecoveryJitter(p.txn));
    }
    WatchForHole(group);
  }
}

void TransactionService::StopRecoveryDaemon() {
  recovery_running_ = false;
  ++recovery_generation_;
  hole_timed_.clear();
}

std::vector<std::string> TransactionService::KnownGroups() const {
  std::vector<std::string> names;
  names.reserve(groups_.size());
  for (const auto& [name, gs] : groups_) {
    (void)gs;
    names.push_back(name);
  }
  return names;
}

TimeMicros TransactionService::MaxSafeReadPosPin(TimeMicros now) const {
  TimeMicros max_pin = max_closed_pin_;
  for (const auto& [key, opened] : pin_open_) {
    (void)key;
    max_pin = std::max(max_pin, now - opened);
  }
  return max_pin;
}

sim::Coro<Status> TransactionService::CatchUp(GroupState* gs, LogPos target) {
  for (int step = 0; step < kMaxCatchUpSteps; ++step) {
    LogPos missing = 0;
    TxnId undecided = 0;
    Status s = gs->log.ApplyThrough(target, &missing, &undecided);
    if (s.ok()) co_return s;
    if (s.code() != Status::Code::kFailedPrecondition) co_return s;
    if (undecided != 0) {
      // The watermark is held by a prepared-but-undecided cross-group
      // transaction at `missing`. Any legally issued read position at or
      // past the prepare implies a decide record exists at a position
      // <= target, so learn the gap between the prepare and the target —
      // the decide is in one of those entries.
      const LogPos to_learn = gs->log.FirstMissing(missing + 1, target);
      if (to_learn == 0) {
        // Every entry through the target is present and none decides the
        // transaction: the position is genuinely undecided — the caller
        // cannot be served here until 2PC recovery resolves it.
        co_return Status::Unavailable(
            "cross-group txn " + TxnIdToString(undecided) +
            " prepared at position " + std::to_string(missing) +
            " is undecided");
      }
      Status learned = co_await LearnEntry(gs->log.group(), to_learn);
      if (!learned.ok()) co_return learned;
      continue;
    }
    Status learned = co_await LearnEntry(gs->log.group(), missing);
    if (!learned.ok()) co_return learned;
  }
  co_return Status::Internal("catch-up did not converge");
}

sim::Coro<Status> TransactionService::LearnEntry(std::string group,
                                                 LogPos pos) {
  GroupState* gs = Group(group);
  if (gs->log.HasEntry(pos)) co_return Status::OK();
  ++learn_instances_;
  const int d = network_->num_datacenters();
  const int majority = d / 2 + 1;
  const std::vector<DcId> all = AllDatacenters(d);
  sim::Simulator* sim = network_->simulator();

  paxos::Ballot ballot =
      paxos::NextBallot(gs->acceptor.ReadState(pos).next_bal, dc_);
  for (int attempt = 0; attempt < kMaxLearnAttempts; ++attempt) {
    if (gs->log.HasEntry(pos)) co_return Status::OK();  // learned meanwhile
    // Prepare phase: discover the decided value or the highest vote.
    const ServiceRequest prepare_request = PrepareRequest{group, pos, ballot};
    BroadcastResult presults =
        co_await network_->Broadcast(dc_, all, prepare_request, nullptr,
                                     PrepareSettle(majority));
    paxos::Ballot max_seen = ballot;
    PrepareTally prepares = TallyPrepares(&presults, &max_seen);
    if (prepares.decided.has_value()) {
      Status applied = gs->acceptor.OnApply(pos, ballot, *prepares.decided);
      if (applied.ok()) NoteEntryLanded(group);
      co_return applied;
    }
    if (prepares.promised() >= majority) {
      std::optional<wal::LogEntry> winning =
          paxos::FindWinningValue(prepares.votes);
      if (!winning.has_value()) {
        // A quorum reports bottom: the position is genuinely undecided. The
        // learner must not invent a value; the caller's read fails until
        // some client decides the position.
        co_return Status::NotFound("log position " + std::to_string(pos) +
                                   " is undecided");
      }
      const ServiceRequest accept_request =
          AcceptRequest{group, pos, ballot, *winning};
      BroadcastResult aresults =
          co_await network_->Broadcast(dc_, all, accept_request, nullptr,
                                       AcceptSettle(majority));
      if (TallyAccepts(aresults, &max_seen) >= majority) {
        // Decided: propagate the outcome one-way (nobody reads an answer,
        // D15) and record it.
        const ServiceRequest apply_request =
            ApplyRequest{group, pos, ballot, *winning};
        network_->Multicast(dc_, all, apply_request,
                            Network::Answering::kNone);
        Status applied = gs->acceptor.OnApply(pos, ballot, *winning);
        if (applied.ok()) NoteEntryLanded(group);
        co_return applied;
      }
    }
    co_await sim::SleepFor(
        sim, rng_.UniformRange(5 * kMillisecond, 50 * kMillisecond));
    ballot = paxos::NextBallot(max_seen, dc_);
  }
  co_return Status::Unavailable("could not learn log position " +
                                std::to_string(pos));
}

}  // namespace paxoscp::txn
