// TransactionService tests: snapshot reads with catch-up, the learning
// Paxos instance for missed log entries, statelessness (all durable state
// in the key-value store), and multi-row transaction groups.
#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/cluster.h"
#include "sim/coro.h"
#include "txn/service.h"
#include "txn/txn.h"

namespace paxoscp::txn {
namespace {

using core::Cluster;
using core::ClusterConfig;

constexpr char kGroup[] = "g";

ClusterConfig TestConfig(const std::string& code, uint64_t seed = 17) {
  ClusterConfig config = *ClusterConfig::FromCode(code);
  config.seed = seed;
  return config;
}

sim::Task CommitWrite(Session* session, std::string row, std::string attr,
                      std::string value, CommitResult* out) {
  Txn txn = co_await session->Begin(kGroup);
  if (!txn.active()) {
    out->status = txn.begin_status();
    co_return;
  }
  (void)txn.Write(row, attr, value);
  *out = co_await txn.Commit();
}

sim::Task ReadOne(Session* session, std::string row, std::string attr,
                  Result<std::string>* out) {
  Txn txn = co_await session->Begin(kGroup);
  if (!txn.active()) {
    *out = txn.begin_status();
    co_return;
  }
  *out = co_await txn.Read(row, attr);
  (void)co_await txn.Commit();
}

sim::Task DriveLearn(TransactionService* service, LogPos pos, Status* out) {
  *out = co_await service->LearnEntry(kGroup, pos);
}

TEST(ServiceTest, LearnEntryFetchesDecidedValueFromPeers) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "r", {{"a", "0"}}).ok());

  // Commit while DC 2 is offline: it misses the decision.
  cluster.SetDatacenterDown(2, true);
  Session session = cluster.CreateSession(0);
  CommitResult commit;
  CommitWrite(&session, "r", "a", "1", &commit);
  cluster.RunToCompletion();
  ASSERT_TRUE(commit.committed);
  ASSERT_FALSE(cluster.service(2)->GroupLog(kGroup)->HasEntry(1));

  // Recovered DC 2 learns position 1 on demand.
  cluster.SetDatacenterDown(2, false);
  Status learned = Status::Internal("unset");
  DriveLearn(cluster.service(2), 1, &learned);
  cluster.RunToCompletion();
  EXPECT_TRUE(learned.ok()) << learned.ToString();
  EXPECT_TRUE(cluster.service(2)->GroupLog(kGroup)->HasEntry(1));
  EXPECT_GE(cluster.service(2)->learn_instances(), 1u);

  core::Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

TEST(ServiceTest, LearnEntryAlreadyKnownIsFreeNoop) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "r", {{"a", "0"}}).ok());
  Session session = cluster.CreateSession(0);
  CommitResult commit;
  CommitWrite(&session, "r", "a", "1", &commit);
  cluster.RunToCompletion();
  ASSERT_TRUE(commit.committed);

  Status learned = Status::Internal("unset");
  DriveLearn(cluster.service(0), 1, &learned);
  cluster.RunToCompletion();
  EXPECT_TRUE(learned.ok());
  EXPECT_EQ(cluster.service(0)->learn_instances(), 0u);
}

TEST(ServiceTest, LearnUndecidedPositionReturnsNotFound) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "r", {{"a", "0"}}).ok());
  Status learned = Status::Internal("unset");
  DriveLearn(cluster.service(0), 1, &learned);
  cluster.RunToCompletion();
  EXPECT_TRUE(learned.IsNotFound()) << learned.ToString();
  // The learner must not have invented a value for the position.
  EXPECT_FALSE(cluster.service(0)->GroupLog(kGroup)->HasEntry(1));
}

TEST(ServiceTest, LearnFailsWithoutQuorum) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "r", {{"a", "0"}}).ok());
  // DC 1 misses the decision...
  cluster.SetDatacenterDown(1, true);
  Session session = cluster.CreateSession(0);
  CommitResult commit;
  CommitWrite(&session, "r", "a", "1", &commit);
  cluster.RunToCompletion();
  ASSERT_TRUE(commit.committed);
  ASSERT_FALSE(cluster.service(1)->GroupLog(kGroup)->HasEntry(1));

  // ...and when it recovers, both peers are gone: no quorum to learn from
  // (its own acceptor alone is not a majority).
  cluster.SetDatacenterDown(1, false);
  cluster.SetDatacenterDown(0, true);
  cluster.SetDatacenterDown(2, true);
  Status learned = Status::Internal("unset");
  DriveLearn(cluster.service(1), 1, &learned);
  cluster.RunToCompletion();
  EXPECT_FALSE(learned.ok()) << learned.ToString();
  EXPECT_FALSE(cluster.service(1)->GroupLog(kGroup)->HasEntry(1));
}

TEST(ServiceTest, DurableStateLivesInTheStoreNotTheService) {
  // The paper's services are stateless processes. Verify the acceptor
  // promise and the leader claim survive through the store alone: a fresh
  // Acceptor object over the same store must observe them.
  Cluster cluster(TestConfig("VV"));
  paxos::Acceptor* acceptor = cluster.service(0)->GroupAcceptor(kGroup);
  ASSERT_TRUE(acceptor->OnPrepare(1, paxos::Ballot{3, 0}).promised);
  ASSERT_TRUE(acceptor->TryClaimLeadership(1));

  wal::WriteAheadLog fresh_log(cluster.store(0), kGroup);
  paxos::Acceptor fresh(cluster.store(0), &fresh_log);
  EXPECT_EQ(fresh.ReadState(1).next_bal, (paxos::Ballot{3, 0}));
  EXPECT_FALSE(fresh.TryClaimLeadership(1));  // claim persisted
  EXPECT_FALSE(fresh.OnPrepare(1, paxos::Ballot{2, 1}).promised);
}

TEST(ServiceTest, MultiRowTransactionGroup) {
  // Transaction groups may span multiple rows (paper §2.1); a transaction
  // updates two rows atomically.
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "row1", {{"a", "1"}}).ok());
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "row2", {{"b", "2"}}).ok());

  Session session = cluster.CreateSession(0);
  struct {
    sim::Task operator()(Session* s, CommitResult* out) {
      Txn txn = co_await s->Begin(kGroup);
      if (!txn.active()) co_return;
      Result<std::string> a = co_await txn.Read("row1", "a");
      Result<std::string> b = co_await txn.Read("row2", "b");
      if (!a.ok() || !b.ok()) co_return;
      (void)txn.Write("row1", "a", *b);  // swap the values
      (void)txn.Write("row2", "b", *a);
      *out = co_await txn.Commit();
    }
  } swap_rows;
  CommitResult commit;
  swap_rows(&session, &commit);
  cluster.RunToCompletion();
  ASSERT_TRUE(commit.committed);

  Result<std::string> a = Status::Internal("unset");
  Result<std::string> b = Status::Internal("unset");
  Session r1 = cluster.CreateSession(1);
  ReadOne(&r1, "row1", "a", &a);
  cluster.RunToCompletion();
  Session r2 = cluster.CreateSession(2);
  ReadOne(&r2, "row2", "b", &b);
  cluster.RunToCompletion();
  EXPECT_EQ(*a, "2");
  EXPECT_EQ(*b, "1");

  core::Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

TEST(ServiceTest, ReadsServedCounterAdvances) {
  Cluster cluster(TestConfig("VV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "r", {{"a", "x"}}).ok());
  Result<std::string> value = Status::Internal("unset");
  Session session = cluster.CreateSession(0);
  ReadOne(&session, "r", "a", &value);
  cluster.RunToCompletion();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(cluster.service(0)->reads_served(), 1u);
  EXPECT_EQ(cluster.service(1)->reads_served(), 0u);
}

TEST(ServiceTest, StaleReplicaBeginServesOldSnapshotSafely) {
  // A begin at a lagging replica returns an old read position; the
  // transaction reads stale data but can never commit a violation — it
  // competes for an already-decided position and gets promoted/aborted.
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, "r", {{"a", "0"}}).ok());

  cluster.SetDatacenterDown(2, true);
  CommitResult first;
  Session s0 = cluster.CreateSession(0);
  CommitWrite(&s0, "r", "a", "fresh", &first);
  cluster.RunToCompletion();
  ASSERT_TRUE(first.committed);
  cluster.SetDatacenterDown(2, false);

  // Client homed at the stale replica writes based on its old snapshot;
  // no read conflict, so CP promotes it to position 2.
  CommitResult second;
  Session s2 = cluster.CreateSession(2);
  CommitWrite(&s2, "r", "b", "later", &second);
  cluster.RunToCompletion();
  EXPECT_TRUE(second.committed) << second.status.ToString();
  EXPECT_GE(second.promotions, 1);

  core::Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

/// Sends a single-group begin for kGroup from `dc` to its own service.
sim::Task DriveBegin(Network* network, DcId dc, BeginResponse* out) {
  const ServiceRequest request(BeginRequest{kGroup, /*cross=*/false});
  sim::Future<CallResult> call = network->Call(dc, dc, request);
  const CallResult result = co_await call;
  if (result.status.ok()) *out = std::get<BeginResponse>(result.response);
}

TEST(ServiceTest, BeginAtItsOwnDatacenterCostsFiveEvents) {
  // The request leg, the service-time sleep, the deferred destroy of
  // HandleBegin's frame, the response leg and the caller's resume. The
  // service's entry point hands the network HandleBegin itself, so no
  // forwarding frame costs a sixth; the answer cancels the call's timeout.
  Cluster cluster(TestConfig("VVV", 7));
  sim::Simulator* sim = cluster.simulator();
  const uint64_t before = sim->EventsExecuted();
  BeginResponse begin;
  DriveBegin(cluster.network(), 1, &begin);
  cluster.RunToCompletion();
  EXPECT_EQ(sim->EventsExecuted() - before, 5u);
  EXPECT_EQ(sim->PendingEvents(), 0u);
  EXPECT_GE(sim->Now(), ServiceTimeModel{}.begin);
  EXPECT_EQ(begin.leader_dc, 0);  // answered: a fresh log names DC 0
}

TEST(ServiceTest, BeginAtAHoleNamesNoLeader) {
  // dc 0 holds entries 1 and 3 but not 2, and entry 3 carries a pending
  // cross prepare, so its read position is held at 2 — the hole. It cannot
  // know who won position 2, so it must name no leader for position 3:
  // naming DC 0 lets a second round-0 grant for that position go out when
  // another datacenter leads it (ARCHITECTURE D3).
  Cluster cluster(TestConfig("VVV"));
  wal::WriteAheadLog* log = cluster.service(0)->GroupLog(kGroup);
  wal::LogEntry data;
  data.txns.push_back(wal::TxnRecord{});
  data.txns[0].id = MakeTxnId(1, 1);
  data.txns[0].writes.push_back({{"r", "a"}, "1"});
  data.winner_dc = 1;
  ASSERT_TRUE(log->SetEntry(1, data).ok());
  wal::LogEntry prepare;
  prepare.txns.push_back(wal::TxnRecord{});
  prepare.txns[0].id = MakeTxnId(2, 1);
  prepare.txns[0].kind = wal::RecordKind::kPrepare;
  prepare.txns[0].cross_ts = 1;
  prepare.txns[0].participants = {kGroup, "h"};
  prepare.winner_dc = 2;
  ASSERT_TRUE(log->SetEntry(3, prepare).ok());
  ASSERT_FALSE(log->HasEntry(2));
  ASSERT_EQ(log->PendingPrepares().size(), 1u);

  BeginResponse begin;
  DriveBegin(cluster.network(), 0, &begin);
  cluster.RunToCompletion();
  EXPECT_EQ(begin.read_pos, 2);
  EXPECT_EQ(begin.leader_dc, kNoDc);
}

/// Serves one claim for kGroup[`pos`] at `service` and records the reply
/// and how long the service took to answer it.
sim::Task DriveClaim(TransactionService* service, sim::Simulator* sim,
                     LogPos pos, ClaimLeaderResponse* out,
                     TimeMicros* took) {
  const ServiceRequest request(ClaimLeaderRequest{kGroup, pos});
  const TimeMicros start = sim->Now();
  ServiceResponse response = co_await service->Handle(/*from=*/1, &request);
  *took = sim->Now() - start;
  *out = std::get<ClaimLeaderResponse>(std::move(response));
}

TEST(ServiceTest, RefusedClaimReturnsTheDecidedRunFromItsPosition) {
  // A grant costs one claim of service time and reads no log. A refusal
  // costs a second one, which reads the entries this replica holds from
  // the claimed position up to its first missing one (ARCHITECTURE D14).
  Cluster cluster(TestConfig("VVV"));
  TransactionService* service = cluster.service(0);
  const TimeMicros claim = ServiceTimeModel{}.claim;
  ASSERT_EQ(claim, 5 * kMillisecond);
  ClaimLeaderResponse reply;
  TimeMicros took = 0;

  DriveClaim(service, cluster.simulator(), 3, &reply, &took);
  cluster.RunToCompletion();
  EXPECT_TRUE(reply.granted);
  EXPECT_TRUE(reply.run.empty());
  EXPECT_EQ(took, claim);

  DriveClaim(service, cluster.simulator(), 3, &reply, &took);
  cluster.RunToCompletion();
  EXPECT_FALSE(reply.granted);
  EXPECT_TRUE(reply.run.empty());
  EXPECT_EQ(took, 2 * claim);

  // Entries 3, 4 and 6 land; 5 is a hole.
  wal::WriteAheadLog* log = service->GroupLog(kGroup);
  for (const LogPos pos : {3, 4, 6}) {
    wal::LogEntry entry;
    entry.txns.push_back(wal::TxnRecord{});
    entry.txns[0].id = MakeTxnId(1, pos);
    entry.txns[0].writes.push_back({{"r", "a"}, std::to_string(pos)});
    entry.winner_dc = 1;
    ASSERT_TRUE(log->SetEntry(pos, entry).ok());
  }
  DriveClaim(service, cluster.simulator(), 3, &reply, &took);
  cluster.RunToCompletion();
  EXPECT_FALSE(reply.granted);
  EXPECT_EQ(took, 2 * claim);
  ASSERT_EQ(reply.run.size(), 2u);
  EXPECT_EQ(reply.run[0], *log->GetEntry(3));
  EXPECT_EQ(reply.run[1], *log->GetEntry(4));
}

}  // namespace
}  // namespace paxoscp::txn
