// The Transaction Service: one per datacenter (paper §2.2). Serves begin
// and snapshot-read requests against the local key-value store, hosts the
// Paxos acceptor for every transaction group's log, and — for fault
// tolerance — learns missing log entries by running Paxos instances of its
// own ("If a Transaction Service does not receive all Paxos messages for a
// log position ... it executes a Paxos instance for the missing log entry
// to learn the winning value", paper §4.1).
//
// Service processes are stateless: all durable state lives in the
// key-value store (acceptor rows, the replicated log, data rows), so a
// Simulate[d] restart loses nothing but in-flight requests.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "kvstore/store.h"
#include "net/network.h"
#include "paxos/acceptor.h"
#include "sim/coro.h"
#include "txn/messages.h"
#include "txn/transaction.h"
#include "wal/log.h"

namespace paxoscp::txn {

class TransactionClient;

/// Options of the service-side 2PC recovery daemon (docs/ARCHITECTURE.md,
/// design note D10). The rest of its timers — jitter, retry backoff, attempt
/// cap, escalation — are constants in service.cc. All timers are
/// deterministic: the per-transaction jitter is hash-derived from (service
/// seed, txn id), never drawn from an RNG stream, so a seeded run with the
/// daemon on replays bit-identically.
struct RecoveryDaemonOptions {
  /// Delay between a pending prepare appearing in the WAL side table and
  /// the first recovery consideration — a live coordinator gets this long
  /// to decide on its own before any replica interferes (the runner's
  /// RunnerConfig::recovery_timer sets it).
  TimeMicros base_delay = 1 * kSecond;
  /// Options of the daemon's internal recovery client (protocol is forced
  /// to Paxos-CP, crash faults are stripped).
  ClientOptions client;
};

/// Simulated processing cost of each request type: one fixed table, which
/// every service charges. Calibrated in EXPERIMENTS.md against the paper's
/// testbed (HBase on EBS-backed EC2 c1.medium nodes in 2012; storage
/// operations dominated intra-datacenter network hops). The calibration
/// targets the paper's observed contention regime: ~42% of basic-Paxos
/// transactions abort with 4 staggered clients at 1 txn/s each, which
/// requires a transaction to span more than one inter-arrival gap.
struct ServiceTimeModel {
  TimeMicros begin = 10 * kMillisecond;    // read log metadata
  TimeMicros read = 60 * kMillisecond;     // snapshot read incl. apply
  TimeMicros prepare = 15 * kMillisecond;  // acceptor-state read + CAS
  TimeMicros accept = 15 * kMillisecond;
  TimeMicros apply = 20 * kMillisecond;    // log write
  TimeMicros claim = 5 * kMillisecond;
};

class TransactionService {
 public:
  TransactionService(DcId dc, Network* network,
                     kvstore::MultiVersionStore* store, uint64_t seed);
  ~TransactionService();

  DcId dc() const { return dc_; }
  kvstore::MultiVersionStore* store() const { return store_; }

  /// Network entry point: returns the handler coroutine of the request's
  /// type, which produces the matching ServiceResponse. Registered as the
  /// datacenter's endpoint. `request` is owned by the network layer and
  /// outlives that coroutine.
  sim::Coro<ServiceResponse> Handle(DcId from, const ServiceRequest* request);

  /// Direct access to a group's log / acceptor (creating them on first
  /// use). Used by the cluster for setup and by invariant checkers.
  wal::WriteAheadLog* GroupLog(const std::string& group);
  paxos::Acceptor* GroupAcceptor(const std::string& group);

  /// Makes sure this replica knows the decided entry at `pos`, running a
  /// learning Paxos instance against the other datacenters if necessary.
  /// An instance that decides the entry sends its apply to every replica
  /// as a one-way message: nobody reads an answer (D15). Unavailable when
  /// no quorum is reachable; NotFound when the position is genuinely
  /// undecided.
  sim::Coro<Status> LearnEntry(std::string group, LogPos pos);

  /// Statistics.
  uint64_t learn_instances() const { return learn_instances_; }
  uint64_t reads_served() const { return reads_served_; }

  // -- Service-side 2PC recovery daemon (D10) -------------------------------

  /// Arms a seed-derived deterministic timer whenever a pending prepare
  /// appears in a group's WAL side table; on expiry, a single deterministic
  /// arbiter per group (the lowest live datacenter) drives the shared
  /// recovery core (txn/recovery.h) while the other replicas watch with
  /// backoff — re-arbitrating when the arbiter goes down, and escalating to
  /// drive themselves after kEscalateAfter deferrals. Also adopts pending
  /// prepares already in the side tables (daemon transfer across a service
  /// restart), and learns the holes below a group's MaxDecided, where a
  /// pending prepare would otherwise stay out of sight.
  void StartRecoveryDaemon(const RecoveryDaemonOptions& options);
  /// Stops the daemon: the generation bump turns every queued timer and the
  /// completion of any in-flight drive into a no-op.
  void StopRecoveryDaemon();
  bool recovery_daemon_running() const { return recovery_running_; }
  const RecoveryDaemonOptions& recovery_daemon_options() const {
    return recovery_options_;
  }

  /// Names of the groups this replica has state for (used by the cluster to
  /// rebuild a restarted service's group map before re-starting its daemon).
  std::vector<std::string> KnownGroups() const;

  /// Recovery accounting.
  uint64_t recoveries_started() const { return recoveries_started_; }
  uint64_t recoveries_decided() const { return recoveries_decided_; }
  uint64_t recoveries_forced_abort() const { return recoveries_forced_abort_; }
  /// Pending prepares and log holes whose timer chain hit kMaxAttempts: the
  /// daemon's give-ups, counted so they never go unnoticed.
  uint64_t recoveries_abandoned() const { return recoveries_abandoned_; }

  /// Longest time a pending prepare has pinned this replica's SafeReadPos:
  /// the max over closed pins and pins still open at `now`. Tracked whether
  /// or not the daemon runs (pure map bookkeeping on the apply path — no
  /// events, no RNG — so daemon-off runs stay bit-identical).
  TimeMicros MaxSafeReadPosPin(TimeMicros now) const;

 private:
  struct GroupState {
    explicit GroupState(kvstore::MultiVersionStore* store,
                        const std::string& group)
        : log(store, group), acceptor(store, &log) {}
    wal::WriteAheadLog log;
    paxos::Acceptor acceptor;
  };

  GroupState* Group(const std::string& group);

  // Sub-handlers take a pointer to the request the network holds for the
  // handler's run: coroutine parameters must be neither references nor
  // by-value aggregates (lifetime hazards; see client.h).
  sim::Coro<ServiceResponse> HandleBegin(const BeginRequest* request);
  sim::Coro<ServiceResponse> HandleRead(const ReadRequest* request);
  sim::Coro<ServiceResponse> HandleReadRow(const ReadRowRequest* request);
  sim::Coro<ServiceResponse> HandlePrepare(const PrepareRequest* request);
  sim::Coro<ServiceResponse> HandleAccept(const AcceptRequest* request);
  sim::Coro<ServiceResponse> HandleApply(const ApplyRequest* request);
  /// Grants round 0 of `pos` to its first claimant for one `claim` of
  /// service time. A refusal costs a second `claim` and returns the decided
  /// entries this replica holds from `pos` up to its first missing one
  /// (D14).
  sim::Coro<ServiceResponse> HandleClaimLeader(
      const ClaimLeaderRequest* request);
  sim::Coro<ServiceResponse> HandleQueryCross(const QueryCrossRequest* request);

  /// Brings the group's applied watermark up to `target`, learning missing
  /// entries on the way. When the watermark is held by an undecided
  /// cross-group prepare (D8), the missing piece is the decide record in a
  /// *later* entry: the learner fills the gap between the prepare and the
  /// target instead of re-learning the (present) stalled position.
  sim::Coro<Status> CatchUp(GroupState* group_state, LogPos target);

  // -- Recovery daemon internals (D10) --------------------------------------

  /// A pending prepare is identified by (group, txn id).
  using PendingKey = std::pair<std::string, TxnId>;

  /// Called after every successful acceptor OnApply: syncs the group's pins
  /// (SyncPins) and, when the daemon runs, watches for a hole.
  void NoteEntryLanded(const std::string& group);
  /// Syncs the SafeReadPos pin table with the group's WAL side table: opens
  /// a pin for each pending prepare it lists that has none, arming that
  /// prepare's recovery timer when the daemon runs, and closes each of the
  /// group's pins whose prepare it no longer lists. Pure bookkeeping unless
  /// it arms a timer. Also run by a firing recovery timer, because the WAL
  /// can change under this instance without telling it: a retired instance
  /// still serving the applies in flight at a restart closes only its own
  /// pins.
  void SyncPins(const std::string& group);
  /// Deterministic per-(replica, txn) jitter in [0, kMaxJitter).
  TimeMicros RecoveryJitter(TxnId id) const;
  /// Doubling backoff for attempt index `attempt`, capped at kMaxBackoff.
  TimeMicros RecoveryBackoff(int attempt) const;
  void ArmRecoveryTimer(const std::string& group, TxnId id, int attempt,
                        TimeMicros delay);
  void RecoveryTimerFired(const std::string& group, TxnId id, int attempt,
                          uint64_t generation);
  /// Detached drive of the shared recovery core for one pending prepare;
  /// re-arms its timer chain on failure.
  sim::Task DriveRecovery(std::string group, TxnId id, int attempt,
                          uint64_t generation);
  /// Daemon only: when `group`'s log misses a position below MaxDecided
  /// (a decided entry whose apply reached no replica this one heard from),
  /// arms a timer that learns the first missing position. A pending
  /// prepare inside the hole is invisible to the recovery timers until
  /// its entry lands here.
  void WatchForHole(const std::string& group);
  void ArmHoleTimer(const std::string& group, LogPos hole, int attempt,
                    TimeMicros delay);
  /// Learns `hole`, then watches for the next one; a failed learn retries
  /// with backoff until kMaxAttempts.
  sim::Task LearnHole(std::string group, LogPos hole, int attempt,
                      uint64_t generation);
  /// The daemon's lazily-built protocol engine: a TransactionClient homed at
  /// this datacenter that only ever runs query/decide walks (it never mints
  /// transaction ids or touches active-transaction state).
  TransactionClient* RecoveryClient();

  DcId dc_;
  Network* network_;
  kvstore::MultiVersionStore* store_;
  /// The calibrated defaults.
  ServiceTimeModel model_;
  Rng rng_;
  /// Construction seed, kept for hash-derived recovery jitter (which must
  /// not consume the rng_ stream: arming a timer may not perturb replay).
  uint64_t seed_;
  std::map<std::string, std::unique_ptr<GroupState>> groups_;

  uint64_t learn_instances_ = 0;
  uint64_t reads_served_ = 0;

  bool recovery_running_ = false;
  RecoveryDaemonOptions recovery_options_;
  /// Bumped by Start/StopRecoveryDaemon; queued timers and in-flight drives
  /// carrying a stale generation do nothing.
  uint64_t recovery_generation_ = 0;
  std::unique_ptr<TransactionClient> recovery_client_;
  /// Pending prepares currently pinning SafeReadPos, with the virtual time
  /// each pin opened. Maintained daemon-on and -off. While the daemon runs,
  /// each pin has one recovery timer chain, armed when the pin opens or the
  /// daemon starts.
  std::map<PendingKey, TimeMicros> pin_open_;
  TimeMicros max_closed_pin_ = 0;
  /// Keys with an in-flight recovery drive (guards concurrent duplicate
  /// drives from the same replica; cross-replica duplicates are handled by
  /// idempotence).
  std::set<PendingKey> recovery_inflight_;
  /// Groups with a live hole timer chain, and the holes whose chain gave
  /// up (not re-armed until the daemon restarts).
  std::set<std::string> hole_timed_;
  std::set<std::pair<std::string, LogPos>> holes_abandoned_;
  uint64_t recoveries_started_ = 0;
  uint64_t recoveries_decided_ = 0;
  uint64_t recoveries_forced_abort_ = 0;
  uint64_t recoveries_abandoned_ = 0;
};

}  // namespace paxoscp::txn
