// Tests for the correctness checkers themselves: they must accept known-good
// histories and flag every class of violation (R1, L1-L3, MVSG cycles).
#include <gtest/gtest.h>

#include "core/checker.h"

namespace paxoscp::core {
namespace {

wal::TxnRecord Record(TxnId id, LogPos read_pos,
                      std::vector<wal::ReadRecord> reads,
                      std::vector<std::pair<std::string, std::string>> writes) {
  wal::TxnRecord t;
  t.id = id;
  t.origin_dc = TxnIdDc(id);
  t.read_pos = read_pos;
  t.reads = std::move(reads);
  for (auto& [attr, value] : writes) {
    t.writes.push_back(wal::WriteRecord{{"r", attr}, value});
  }
  return t;
}

wal::ReadRecord Read(const std::string& attr, TxnId writer, LogPos pos) {
  return wal::ReadRecord{{"r", attr}, writer, pos};
}

TEST(SerializabilityCheckerTest, AcceptsValidChain) {
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {Read("a", 0, 0)}, {{"a", "1"}}));
  log[2].txns.push_back(Record(t2, 1, {Read("a", t1, 1)}, {{"a", "2"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(SerializabilityCheckerTest, FlagsStaleRead) {
  // t2 sits at position 3 but read "a" from the initial state even though
  // t1 wrote it at position 1 — a lost-update anomaly.
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {}, {{"a", "1"}}));
  log[2].txns.push_back(Record(t2, 0, {Read("a", 0, 0)}, {{"a", "2"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_FALSE(report.ok);
}

TEST(SerializabilityCheckerTest, FlagsPhantomPastWholeRowRead) {
  // t2 read the whole row at snapshot 0 (predicate read, Txn::ReadRow)
  // and committed at position 2, but t1 created attribute "b" at
  // position 1 — an attribute t2 observed as absent changed behind its
  // back (the phantom class the runtime's whole-row conflict rule must
  // prevent; the checker must see through it independently).
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {}, {{"b", "created"}}));
  log[2].txns.push_back(Record(
      t2, 0, {wal::ReadRecord{{"r", wal::kWholeRowAttribute}, 0, 0}},
      {{"c", "derived"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_FALSE(report.ok);
}

TEST(SerializabilityCheckerTest, AcceptsWholeRowReadOfFreshSnapshot) {
  // Same shape, but t2's snapshot (read_pos 1) already includes t1's
  // write: the predicate read is satisfied.
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {}, {{"b", "created"}}));
  log[2].txns.push_back(Record(
      t2, 1,
      {wal::ReadRecord{{"r", wal::kWholeRowAttribute}, 0, 0},
       Read("b", t1, 1)},
      {{"c", "derived"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(SerializabilityCheckerTest, AcceptsLegalCombinedEntry) {
  // Two txns share position 1; the second does not read anything the first
  // wrote.
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(
      Record(MakeTxnId(0, 1), 0, {Read("x", 0, 0)}, {{"a", "1"}}));
  log[1].txns.push_back(
      Record(MakeTxnId(1, 1), 0, {Read("y", 0, 0)}, {{"b", "2"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(SerializabilityCheckerTest, FlagsIllegalCombinedEntry) {
  // The second txn in the entry read "a" from the initial state, but the
  // first txn in the same entry wrote "a" — list order violates L3.
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  log[1].txns.push_back(
      Record(MakeTxnId(1, 1), 0, {Read("a", 0, 0)}, {{"b", "2"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_FALSE(report.ok);
}

TEST(SerializabilityCheckerTest, FlagsIllegalPromotion) {
  // t2 read "a" at read position 1 (from t1), then was promoted past
  // position 2 whose winner t3 also wrote "a": t2's read is no longer the
  // latest preceding write in serial order.
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t3 = MakeTxnId(2, 1),
              t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {}, {{"a", "1"}}));
  log[2].txns.push_back(Record(t3, 1, {}, {{"a", "3"}}));
  log[3].txns.push_back(Record(t2, 1, {Read("a", t1, 1)}, {{"b", "2"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_FALSE(report.ok);
}

TEST(SerializabilityCheckerTest, AcceptsLegalPromotion) {
  // Same shape, but the intervening winner writes a different item.
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t3 = MakeTxnId(2, 1),
              t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {}, {{"a", "1"}}));
  log[2].txns.push_back(Record(t3, 1, {}, {{"c", "3"}}));
  log[3].txns.push_back(Record(t2, 1, {Read("a", t1, 1)}, {{"b", "2"}}));
  CheckReport report;
  Checker::CheckOneCopySerializability(log, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(MvsgTest, AcyclicForValidHistory) {
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {}, {{"a", "1"}}));
  log[2].txns.push_back(Record(t2, 1, {Read("a", t1, 1)}, {{"b", "2"}}));
  CheckReport report;
  Checker::CheckSerializationGraph(log, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(MvsgTest, DetectsCycleFromCrossReads) {
  // t1 reads the version of "b" written by t2 while t2 reads the version of
  // "a" written by t1 — a classic write-skew-like cycle that no serial
  // order satisfies.
  std::map<LogPos, wal::LogEntry> log;
  const TxnId t1 = MakeTxnId(0, 1), t2 = MakeTxnId(1, 1);
  log[1].txns.push_back(Record(t1, 0, {Read("b", t2, 2)}, {{"a", "1"}}));
  log[2].txns.push_back(Record(t2, 1, {Read("a", t1, 1)}, {{"b", "2"}}));
  CheckReport report;
  Checker::CheckSerializationGraph(log, &report);
  EXPECT_FALSE(report.ok);
}

TEST(MvsgTest, FlagsReadFromUnknownWriter) {
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0,
                               {Read("a", MakeTxnId(9, 9), 42)}, {}));
  CheckReport report;
  Checker::CheckSerializationGraph(log, &report);
  EXPECT_FALSE(report.ok);
}

TEST(OutcomeCheckerTest, CommittedMustAppear) {
  std::map<LogPos, wal::LogEntry> log;  // empty
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].committed = true;
  outcomes[0].position = 1;
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_FALSE(report.ok);  // (L1) committed but missing
}

TEST(OutcomeCheckerTest, AbortedMustNotAppear) {
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].committed = false;
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_FALSE(report.ok);  // (L1) aborted but present
}

TEST(OutcomeCheckerTest, UnknownOutcomeMayGoEitherWay) {
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  std::vector<ClientOutcome> outcomes(2);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].unknown = true;  // in the log: fine
  outcomes[1].id = MakeTxnId(0, 2);
  outcomes[1].unknown = true;  // absent: also fine
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(OutcomeCheckerTest, UnknownTxnInTwoPositionsStillViolatesL2) {
  // A crashed client's transaction may appear in the log or not (L1 waived)
  // — but appearing twice is an L2 violation no matter what the client saw.
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  log[2].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].unknown = true;
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_FALSE(report.ok);
}

TEST(OutcomeCheckerTest, UnknownOutcomeIgnoresStalePositionClaim) {
  // A client that timed out mid-commit may carry a stale position guess;
  // the unknown flag waives the position cross-check along with L1.
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].unknown = true;
  outcomes[0].position = 7;  // wrong — but the client never learned it
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(OutcomeCheckerTest, TxnInTwoPositionsViolatesL2) {
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  log[2].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].committed = true;
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_FALSE(report.ok);
}

TEST(OutcomeCheckerTest, PositionMismatchFlagged) {
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].committed = true;
  outcomes[0].position = 7;  // client believes the wrong position
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_FALSE(report.ok);
}

TEST(OutcomeCheckerTest, ReadOnlyMustNotAppear) {
  std::map<LogPos, wal::LogEntry> log;
  log[1].txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {}));
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].committed = true;
  outcomes[0].read_only = true;
  CheckReport report;
  Checker::CheckOutcomes(log, outcomes, &report);
  EXPECT_FALSE(report.ok);
}

// ---- CheckAllCross outcome matching: an outcome is checked against the
// group it names, so one naming no checked group must be reported, never
// silently skipped.

TEST(CheckAllCrossTest, OutcomeNamingAnUncheckedGroupIsReported) {
  Cluster cluster(*ClusterConfig::FromCode("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow("g", "r", {{"a", "0"}}).ok());
  // All aborted: nothing but the group match could flag them.
  std::vector<ClientOutcome> outcomes(3);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].group = "elsewhere";
  outcomes[1].id = MakeTxnId(0, 2);  // group left empty
  outcomes[2].id = MakeTxnId(0, 3);
  outcomes[2].groups = {"elsewhere", "g"};
  Checker checker(&cluster);
  const CheckReport report = checker.CheckAllCross({"g"}, outcomes);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations.size(), 3u) << report.ToString();
}

TEST(CheckAllCrossTest, CommittedSingleGroupOutcomeMissingFromLogRaisesL1) {
  Cluster cluster(*ClusterConfig::FromCode("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow("g", "r", {{"a", "0"}}).ok());
  std::vector<ClientOutcome> outcomes(1);
  outcomes[0].id = MakeTxnId(0, 1);
  outcomes[0].committed = true;
  outcomes[0].position = 1;
  outcomes[0].group = "g";
  Checker checker(&cluster);
  const CheckReport report = checker.CheckAllCross({"g"}, outcomes);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("(L1) committed txn"), std::string::npos)
      << report.ToString();
}

// ---- R1 through a rejected apply: a replica told to apply a second value
// for a decided position keeps its first, so the replicas' logs still
// agree; the checker must report the second decision anyway.

TEST(ReplicationCheckerTest, RejectedSecondValueIsAnR1Violation) {
  Cluster cluster(*ClusterConfig::FromCode("VVV"));
  wal::LogEntry first;
  first.txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  first.winner_dc = 0;
  wal::LogEntry second;
  second.txns.push_back(Record(MakeTxnId(1, 1), 0, {}, {{"a", "2"}}));
  second.winner_dc = 1;
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    ASSERT_TRUE(cluster.service(dc)->GroupLog("g")->SetEntry(1, first).ok());
  }
  const Status rejected =
      cluster.service(1)->GroupLog("g")->SetEntry(1, second);
  EXPECT_EQ(rejected.code(), Status::Code::kCorruption);
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    Result<wal::LogEntry> kept = cluster.service(dc)->GroupLog("g")->GetEntry(1);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(*kept, first) << "dc " << dc;
  }

  Checker checker(&cluster);
  std::map<LogPos, wal::LogEntry> global_log;
  const CheckReport report = checker.CheckReplication("g", &global_log);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_EQ(report.violations[0],
            "(R1) datacenter 1 rejected a second decided value for log "
            "position 1");
}

TEST(ReplicationCheckerTest, ReappliedSameValueIsNoViolation) {
  Cluster cluster(*ClusterConfig::FromCode("VVV"));
  wal::LogEntry entry;
  entry.txns.push_back(Record(MakeTxnId(0, 1), 0, {}, {{"a", "1"}}));
  entry.winner_dc = 0;
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    ASSERT_TRUE(cluster.service(dc)->GroupLog("g")->SetEntry(1, entry).ok());
  }
  EXPECT_TRUE(cluster.service(1)->GroupLog("g")->SetEntry(1, entry).ok());

  Checker checker(&cluster);
  std::map<LogPos, wal::LogEntry> global_log;
  const CheckReport report = checker.CheckReplication("g", &global_log);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(ReportTest, ViolationAccumulates) {
  CheckReport report;
  EXPECT_TRUE(report.ok);
  report.Violation("first");
  report.Violation("second");
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_NE(report.ToString().find("first"), std::string::npos);
}

}  // namespace
}  // namespace paxoscp::core
