// End-to-end integration tests: full clusters, real protocol runs over the
// simulated WAN, invariants checked after every scenario.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checker.h"
#include "core/cluster.h"
#include "sim/coro.h"
#include "txn/txn.h"

namespace paxoscp {
namespace {

using core::Checker;
using core::Cluster;
using core::ClusterConfig;
using txn::ClientOptions;
using txn::CommitResult;
using txn::Protocol;
using txn::Session;
using txn::Txn;

constexpr char kGroup[] = "g";
constexpr char kRow[] = "r";

ClusterConfig TestConfig(const std::string& code, uint64_t seed = 42) {
  ClusterConfig config = *ClusterConfig::FromCode(code);
  config.seed = seed;
  return config;
}

ClientOptions OptionsFor(Protocol protocol) {
  ClientOptions options;
  options.protocol = protocol;
  return options;
}

/// Runs one read-modify-write transaction: reads `read_attr`, writes
/// `write_attr` = `value`, commits; stores the outcome.
sim::Task RunSimpleTxn(Session* session, std::string read_attr,
                       std::string write_attr, std::string value,
                       CommitResult* out) {
  Txn txn = co_await session->Begin(kGroup);
  if (!txn.active()) {
    out->status = txn.begin_status();
    co_return;
  }
  if (!read_attr.empty()) {
    Result<std::string> r = co_await txn.Read(kRow, read_attr);
    if (!r.ok()) {
      out->status = r.status();
      co_return;  // handle drop aborts
    }
  }
  if (!write_attr.empty()) {
    (void)txn.Write(kRow, write_attr, value);
  }
  *out = co_await txn.Commit();
}

/// Reads a single attribute in a fresh transaction.
sim::Task ReadAttr(Session* session, std::string attr,
                   Result<std::string>* out) {
  Txn txn = co_await session->Begin(kGroup);
  if (!txn.active()) {
    *out = txn.begin_status();
    co_return;
  }
  *out = co_await txn.Read(kRow, attr);
  (void)co_await txn.Commit();
}

TEST(IntegrationTest, SingleTransactionCommits) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));

  CommitResult result;
  RunSimpleTxn(&client, "a", "a", "1", &result);
  cluster.RunToCompletion();

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.position, 1u);
  EXPECT_EQ(result.promotions, 0);

  Checker checker(&cluster);
  core::CheckReport report = checker.CheckAllCross({kGroup}, {});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(IntegrationTest, CommittedWriteVisibleToLaterTransaction) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "init"}}).ok());
  Session writer = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  CommitResult wr;
  RunSimpleTxn(&writer, "", "a", "updated", &wr);
  cluster.RunToCompletion();
  ASSERT_TRUE(wr.committed);

  Session reader = cluster.CreateSession(1, OptionsFor(Protocol::kPaxosCP));
  Result<std::string> read = Status::Internal("unset");
  ReadAttr(&reader, "a", &read);
  cluster.RunToCompletion();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "updated");
}

TEST(IntegrationTest, ReadOnlyTransactionCommitsWithoutLogEntry) {
  Cluster cluster(TestConfig("VV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "x"}}).ok());
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  CommitResult result;
  RunSimpleTxn(&client, "a", "", "", &result);
  cluster.RunToCompletion();
  EXPECT_TRUE(result.committed);
  EXPECT_TRUE(result.read_only);
  EXPECT_EQ(cluster.service(0)->GroupLog(kGroup)->MaxDecided(), 0u);
}

TEST(IntegrationTest, SequentialTransactionsFillConsecutivePositions) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  for (int i = 1; i <= 5; ++i) {
    CommitResult result;
    RunSimpleTxn(&client, "a", "a", std::to_string(i), &result);
    cluster.RunToCompletion();
    ASSERT_TRUE(result.committed) << "txn " << i << ": "
                                  << result.status.ToString();
    EXPECT_EQ(result.position, static_cast<LogPos>(i));
  }
  Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

TEST(IntegrationTest, ConcurrentNonConflictingTxns_BasicAbortsOne) {
  // Two clients read the same snapshot and write different attributes.
  // Under basic Paxos exactly one can win the log position; the other
  // aborts even though they do not conflict (concurrency *prevention*).
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(
      cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}, {"b", "0"}}).ok());
  Session c1 = cluster.CreateSession(0, OptionsFor(Protocol::kBasicPaxos));
  Session c2 = cluster.CreateSession(1, OptionsFor(Protocol::kBasicPaxos));

  CommitResult r1, r2;
  RunSimpleTxn(&c1, "a", "a", "1", &r1);
  RunSimpleTxn(&c2, "b", "b", "2", &r2);
  cluster.RunToCompletion();

  EXPECT_NE(r1.committed, r2.committed)
      << "exactly one of two competing transactions must win under basic "
         "Paxos; r1="
      << r1.status.ToString() << " r2=" << r2.status.ToString();
  Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

TEST(IntegrationTest, ConcurrentNonConflictingTxns_CpCommitsBoth) {
  // Same scenario under Paxos-CP: combination or promotion must let both
  // commit (they have no read-write conflict).
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(
      cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}, {"b", "0"}}).ok());
  Session c1 = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  Session c2 = cluster.CreateSession(1, OptionsFor(Protocol::kPaxosCP));

  CommitResult r1, r2;
  RunSimpleTxn(&c1, "a", "a", "1", &r1);
  RunSimpleTxn(&c2, "b", "b", "2", &r2);
  cluster.RunToCompletion();

  EXPECT_TRUE(r1.committed) << r1.status.ToString();
  EXPECT_TRUE(r2.committed) << r2.status.ToString();
  Checker checker(&cluster);
  core::CheckReport report = checker.CheckAllCross({kGroup}, {});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(IntegrationTest, ConflictingTxns_CpAbortsReader) {
  // c2 reads attribute "a" which c1 writes; if c1 wins the position, c2
  // must abort (promotion is illegal: it read-from the winner's write set).
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(
      cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}, {"b", "0"}}).ok());
  Session c1 = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  Session c2 = cluster.CreateSession(1, OptionsFor(Protocol::kPaxosCP));

  CommitResult r1, r2;
  RunSimpleTxn(&c1, "b", "a", "1", &r1);  // reads b, writes a
  RunSimpleTxn(&c2, "a", "b", "2", &r2);  // reads a, writes b
  cluster.RunToCompletion();

  // Both read the other's write target: whoever loses the position has a
  // true read-write conflict with the winner and must abort.
  EXPECT_NE(r1.committed, r2.committed);
  EXPECT_TRUE((r1.committed ? r2 : r1).status.IsAborted());
  Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

TEST(IntegrationTest, FiveReplicaCommit) {
  Cluster cluster(TestConfig("VVVOC"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  Session client = cluster.CreateSession(3, OptionsFor(Protocol::kPaxosCP));  // Oregon
  CommitResult result;
  RunSimpleTxn(&client, "a", "a", "1", &result);
  cluster.RunToCompletion();
  ASSERT_TRUE(result.committed) << result.status.ToString();
  // Every replica eventually holds the same entry.
  Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
  int replicas_with_entry = 0;
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    if (cluster.service(dc)->GroupLog(kGroup)->HasEntry(1)) {
      ++replicas_with_entry;
    }
  }
  EXPECT_GE(replicas_with_entry, 3);  // at least a majority applied
}

TEST(IntegrationTest, CommitSurvivesMinorityOutage) {
  // One of three datacenters is down; commits must still succeed (majority
  // alive).
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  cluster.SetDatacenterDown(2, true);
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  CommitResult result;
  RunSimpleTxn(&client, "a", "a", "1", &result);
  cluster.RunToCompletion();
  ASSERT_TRUE(result.committed) << result.status.ToString();
  EXPECT_FALSE(cluster.service(2)->GroupLog(kGroup)->HasEntry(1));

  // The recovered datacenter serves a consistent read by learning the
  // missing entry from its peers.
  cluster.SetDatacenterDown(2, false);
  Session reader = cluster.CreateSession(2, OptionsFor(Protocol::kPaxosCP));
  Result<std::string> read = Status::Internal("unset");
  ReadAttr(&reader, "a", &read);
  cluster.RunToCompletion();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  // DC2's log was behind: its own begin may have returned read_pos 0, in
  // which case it reads the initial value; what matters is that the system
  // stayed consistent.
  Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

/// Commits one write-only transaction from dc 0 of a fresh VVV cluster
/// whose dc 2 is down, checks the replicas, and returns the outcome.
CommitResult CommitWithDc2Down(bool leader_optimization) {
  Cluster cluster(TestConfig("VVV"));
  EXPECT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  cluster.SetDatacenterDown(2, true);
  ClientOptions options = OptionsFor(Protocol::kPaxosCP);
  options.leader_optimization = leader_optimization;
  Session client = cluster.CreateSession(0, options);
  CommitResult result;
  RunSimpleTxn(&client, "", "a", "1", &result);
  cluster.RunToCompletion();
  Checker checker(&cluster);
  const core::CheckReport report = checker.CheckAllCross({kGroup}, {});
  EXPECT_TRUE(report.ok) << report.ToString();
  return result;
}

TEST(IntegrationTest, DecidedRoundDoesNotWaitForADeadReplica) {
  // The fast-path accept is decided once dc 0 and dc 1 accepted (D13), so
  // the commit does not wait out dc 2's 2 s timeout.
  const CommitResult result = CommitWithDc2Down(/*leader_optimization=*/true);
  ASSERT_TRUE(result.committed) << result.status.ToString();
  EXPECT_TRUE(result.fast_path);
  EXPECT_LT(result.latency, 50 * kMillisecond);
}

TEST(IntegrationTest, UndecidedPrepareKeepsCollectingUntilTheTimeout) {
  // Without the fast path, the first commit at a fresh position prepares
  // and sees only bottom votes. Nothing is decided, so the client keeps
  // collecting votes (§5) until dc 2's timeout before it proposes.
  const CommitResult result =
      CommitWithDc2Down(/*leader_optimization=*/false);
  ASSERT_TRUE(result.committed) << result.status.ToString();
  EXPECT_FALSE(result.fast_path);
  EXPECT_GE(result.latency, 2 * kSecond);
}

TEST(IntegrationTest, MajorityOutageBlocksCommit) {
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  cluster.SetDatacenterDown(1, true);
  cluster.SetDatacenterDown(2, true);
  ClientOptions options = OptionsFor(Protocol::kPaxosCP);
  options.max_rounds_per_position = 3;  // keep the test fast
  Session client = cluster.CreateSession(0, options);
  CommitResult result;
  RunSimpleTxn(&client, "a", "a", "1", &result);
  cluster.RunToCompletion();
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  EXPECT_FALSE(cluster.service(0)->GroupLog(kGroup)->HasEntry(1));
}

TEST(IntegrationTest, ClientFailsOverReadsWhenHomeDown) {
  // The client's home transaction service is down; begin and reads must
  // fail over to other datacenters (paper step 1/2 failover).
  Cluster cluster(TestConfig("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "seed"}}).ok());
  // A network where only the home *service* is gone: model by severing the
  // home's intra-DC link, which kills client->home-service traffic but not
  // client->remote traffic.
  cluster.SetLinkDown(0, 0, true);
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  Result<std::string> read = Status::Internal("unset");
  ReadAttr(&client, "a", &read);
  cluster.RunToCompletion();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "seed");
}

TEST(IntegrationTest, MessageLossStillCommits) {
  ClusterConfig config = TestConfig("VVV", 7);
  config.loss_probability = 0.05;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kPaxosCP));
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    CommitResult result;
    RunSimpleTxn(&client, "a", "a", std::to_string(i), &result);
    cluster.RunToCompletion();
    if (result.committed) ++committed;
  }
  EXPECT_GE(committed, 8);  // sequential txns: loss may delay, rarely abort
  Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({kGroup}, {}).ok);
}

TEST(IntegrationTest, BootstrapLeaderRaceIsSafe) {
  // Regression: two clients in different datacenters race for position 1
  // of a fresh log at the same instant. Both ask for the leader fast path;
  // the grant must be unique cluster-wide (canonical bootstrap leader), or
  // two distinct round-0 ballots could decide conflicting values — the R1
  // checker caught exactly this during development (docs/ARCHITECTURE.md,
  // note D3).
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Cluster cluster(TestConfig("VVV", seed));
    ASSERT_TRUE(
        cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}, {"b", "0"}}).ok());
    ClientOptions options = OptionsFor(Protocol::kBasicPaxos);
    Session s1 = cluster.CreateSession(0, options);
    Session s2 = cluster.CreateSession(1, options);
    CommitResult r1, r2;
    RunSimpleTxn(&s1, "", "a", "1", &r1);
    RunSimpleTxn(&s2, "", "b", "2", &r2);
    cluster.RunToCompletion();

    Checker checker(&cluster);
    core::CheckReport report = checker.CheckAllCross({kGroup}, {});
    ASSERT_TRUE(report.ok) << "seed " << seed << ": " << report.ToString();
    EXPECT_NE(r1.committed, r2.committed) << "seed " << seed;
  }
}

TEST(IntegrationTest, TwoReplicaClusterNeedsBoth) {
  // With D=2, majority is 2: both must be reachable.
  Cluster cluster(TestConfig("VV"));
  ASSERT_TRUE(cluster.LoadInitialRow(kGroup, kRow, {{"a", "0"}}).ok());
  Session client = cluster.CreateSession(0, OptionsFor(Protocol::kBasicPaxos));
  CommitResult result;
  RunSimpleTxn(&client, "a", "a", "1", &result);
  cluster.RunToCompletion();
  EXPECT_TRUE(result.committed);

  cluster.SetDatacenterDown(1, true);
  ClientOptions options = OptionsFor(Protocol::kBasicPaxos);
  options.max_rounds_per_position = 2;
  Session client2 = cluster.CreateSession(0, options);
  CommitResult result2;
  RunSimpleTxn(&client2, "a", "a", "2", &result2);
  cluster.RunToCompletion();
  EXPECT_FALSE(result2.committed);
}

}  // namespace
}  // namespace paxoscp
