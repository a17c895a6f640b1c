// Cross-group transactions (design note D8): 2PC over the per-group
// Paxos-CP logs. Covers the wire format (prepare and decide records
// round-trip; every entry starts with its winner), the WAL's cross-group
// indexes (pending prepares hold SafeReadPos and the applied watermark), the
// commit path (atomic multi-group transfer, conflict aborts, the shared
// commit order, Commit's return at the commit point and the next begin's
// wait for the decides' apply acknowledgements),
// coordinator-crash recovery (prepared-but-undecided
// transactions resolved to a canonical decision by the stateless recovery
// core), the checker's cross-group obligations, and the Session-level
// BeginCross / RunTransaction(groups, ...) API.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "net/network.h"
#include "sim/coro.h"
#include "txn/client.h"
#include "txn/cross.h"
#include "txn/messages.h"
#include "txn/recovery.h"
#include "txn/service.h"
#include "txn/txn.h"
#include "wal/log.h"
#include "wal/log_entry.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace paxoscp {
namespace {

using txn::ClientOptions;
using txn::CrossCommitResult;
using txn::CrossTxn;
using txn::CrossTxnResult;
using txn::Session;
using txn::TxnOutcome;

core::ClusterConfig TestConfig(uint64_t seed = 31) {
  core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------ wire format

TEST(CrossLogEntryTest, PlainEntriesStartWithWinnerAndRoundTrip) {
  wal::LogEntry entry;
  wal::TxnRecord t;
  t.id = MakeTxnId(1, 7);
  t.origin_dc = 1;
  t.read_pos = 3;
  t.reads.push_back({{"row", "a"}, MakeTxnId(0, 1), 2});
  t.writes.push_back({{"row", "b"}, "value"});
  entry.txns.push_back(t);
  entry.winner_dc = 1;

  ASSERT_FALSE(entry.HasCrossRecords());
  const std::string encoded = entry.Encode();
  // Every entry starts with the zigzag varint of winner_dc (1 -> 2); the
  // record kinds follow inside the transaction list.
  ASSERT_FALSE(encoded.empty());
  EXPECT_EQ(static_cast<unsigned char>(encoded[0]), 2u);
  Result<wal::LogEntry> decoded = wal::LogEntry::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entry);
}

TEST(CrossLogEntryTest, PrepareAndDecideRecordsRoundTrip) {
  wal::LogEntry entry;
  wal::TxnRecord prepare;
  prepare.id = MakeTxnId(0, 9);
  prepare.origin_dc = 0;
  prepare.read_pos = 5;
  prepare.kind = wal::RecordKind::kPrepare;
  prepare.cross_ts = 123456;
  prepare.participants = {"alpha", "beta"};
  prepare.reads.push_back({{"row", "x"}, 0, 0});
  prepare.writes.push_back({{"row", "y"}, "v"});
  wal::TxnRecord decide;
  decide.id = MakeTxnId(2, 4);
  decide.origin_dc = 2;
  decide.kind = wal::RecordKind::kDecide;
  decide.commit_decision = true;
  wal::TxnRecord data;
  data.id = MakeTxnId(1, 1);
  data.origin_dc = 1;
  data.writes.push_back({{"row", "z"}, "w"});
  entry.txns = {prepare, data, decide};
  entry.winner_dc = 0;

  ASSERT_TRUE(entry.HasCrossRecords());
  Result<wal::LogEntry> decoded = wal::LogEntry::Decode(entry.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entry);
  EXPECT_NE(entry.FindPrepare(prepare.id), nullptr);
  EXPECT_NE(entry.FindDecide(decide.id), nullptr);
  EXPECT_EQ(entry.FindDecide(prepare.id), nullptr);
}

// ---------------------------------------------------------- WAL cross indexes

TEST(CrossWalTest, PendingPrepareHoldsSafeReadPosAndWatermark) {
  kvstore::MultiVersionStore store;
  wal::WriteAheadLog log(&store, "g");

  wal::LogEntry data;
  wal::TxnRecord u;
  u.id = MakeTxnId(0, 1);
  u.writes.push_back({{"r", "a"}, "1"});
  data.txns.push_back(u);
  data.winner_dc = 0;
  ASSERT_TRUE(log.SetEntry(1, data).ok());

  wal::LogEntry prep_entry;
  wal::TxnRecord p;
  p.id = MakeTxnId(1, 2);
  p.kind = wal::RecordKind::kPrepare;
  p.cross_ts = 10;
  p.participants = {"g", "h"};
  p.read_pos = 1;
  p.writes.push_back({{"r", "a"}, "2"});
  prep_entry.txns.push_back(p);
  prep_entry.winner_dc = 1;
  ASSERT_TRUE(log.SetEntry(2, prep_entry).ok());

  // The prepare is pending: reads and the watermark stay below it.
  EXPECT_EQ(log.MaxDecided(), 2u);
  EXPECT_EQ(log.SafeReadPos(), 1u);
  ASSERT_EQ(log.PendingPrepares().size(), 1u);
  EXPECT_EQ(log.PendingPrepares()[0].pos, 2u);
  EXPECT_EQ(log.PendingPrepares()[0].txn, p.id);
  LogPos missing = 0;
  TxnId undecided = 0;
  Status held = log.ApplyThrough(2, &missing, &undecided);
  EXPECT_EQ(held.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(missing, 2u);
  EXPECT_EQ(undecided, p.id);
  EXPECT_EQ(log.AppliedThrough(), 1u);
  // The held-back write is invisible.
  EXPECT_EQ(log.ReadItem({"r", "a"}, 1).value, "1");

  // Commit-order watermark covers the prepare.
  EXPECT_EQ(log.MaxCrossTs(), 10u);

  // A commit decide unblocks everything and the write lands at the
  // *prepare* position.
  wal::LogEntry dec_entry;
  wal::TxnRecord d;
  d.id = p.id;
  d.kind = wal::RecordKind::kDecide;
  d.commit_decision = true;
  dec_entry.txns.push_back(d);
  dec_entry.winner_dc = 0;
  ASSERT_TRUE(log.SetEntry(3, dec_entry).ok());
  EXPECT_TRUE(log.PendingPrepares().empty());
  EXPECT_EQ(log.SafeReadPos(), 3u);
  ASSERT_TRUE(log.ApplyThrough(3).ok());
  wal::ItemRead read = log.ReadItem({"r", "a"}, 3);
  EXPECT_EQ(read.value, "2");
  EXPECT_EQ(read.writer, p.id);
  EXPECT_EQ(read.written_pos, 2u);
}

TEST(CrossWalTest, AbortDecidedPrepareIsANoOp) {
  kvstore::MultiVersionStore store;
  wal::WriteAheadLog log(&store, "g");

  wal::LogEntry prep_entry;
  wal::TxnRecord p;
  p.id = MakeTxnId(0, 5);
  p.kind = wal::RecordKind::kPrepare;
  p.cross_ts = 4;
  p.participants = {"g"};
  p.writes.push_back({{"r", "a"}, "doomed"});
  prep_entry.txns.push_back(p);
  prep_entry.winner_dc = 0;
  ASSERT_TRUE(log.SetEntry(1, prep_entry).ok());

  // Decide learned BEFORE the prepare would be applied (and decides can
  // even be learned before the prepare entry itself — born-decided).
  wal::LogEntry dec_entry;
  wal::TxnRecord d;
  d.id = p.id;
  d.kind = wal::RecordKind::kDecide;
  d.commit_decision = false;
  dec_entry.txns.push_back(d);
  dec_entry.winner_dc = 0;
  ASSERT_TRUE(log.SetEntry(2, dec_entry).ok());

  ASSERT_TRUE(log.ApplyThrough(2).ok());
  EXPECT_FALSE(log.ReadItem({"r", "a"}, 2).found);
  ASSERT_TRUE(log.DecisionFor(p.id).known);
  EXPECT_FALSE(log.DecisionFor(p.id).commit);
}

TEST(CrossWalTest, DecideLearnedBeforePrepareMeansNeverPending) {
  kvstore::MultiVersionStore store;
  wal::WriteAheadLog log(&store, "g");

  wal::TxnRecord d;
  d.id = MakeTxnId(0, 8);
  d.kind = wal::RecordKind::kDecide;
  d.commit_decision = true;
  wal::LogEntry dec_entry;
  dec_entry.txns.push_back(d);
  dec_entry.winner_dc = 0;
  ASSERT_TRUE(log.SetEntry(2, dec_entry).ok());

  wal::TxnRecord p;
  p.id = d.id;
  p.kind = wal::RecordKind::kPrepare;
  p.cross_ts = 9;
  p.participants = {"g"};
  p.writes.push_back({{"r", "a"}, "late"});
  wal::LogEntry prep_entry;
  prep_entry.txns.push_back(p);
  prep_entry.winner_dc = 0;
  ASSERT_TRUE(log.SetEntry(1, prep_entry).ok());

  EXPECT_TRUE(log.PendingPrepares().empty());
  EXPECT_EQ(log.SafeReadPos(), 2u);
  ASSERT_TRUE(log.ApplyThrough(2).ok());
  EXPECT_EQ(log.ReadItem({"r", "a"}, 2).value, "late");
}

// ------------------------------------------------------------ commit path

TEST(CrossTxnTest, AtomicTransferAcrossGroups) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("acct_a", "row", {{"balance", "100"}}).ok());
  ASSERT_TRUE(db.Load("acct_b", "row", {{"balance", "100"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    CrossCommitResult commit;
    std::string a_after, b_after;
    Status read_status = Status::OK();
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> both = {"acct_a", "acct_b"};
      CrossTxn txn = co_await s->BeginCross(both);
      EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
      if (!txn.active()) co_return;
      Result<std::string> a = co_await txn.Read("acct_a", "row", "balance");
      Result<std::string> b = co_await txn.Read("acct_b", "row", "balance");
      EXPECT_TRUE(a.ok() && b.ok());
      if (!a.ok() || !b.ok()) co_return;
      (void)txn.Write("acct_a", "row", "balance",
                      std::to_string(std::stoi(*a) - 30));
      (void)txn.Write("acct_b", "row", "balance",
                      std::to_string(std::stoi(*b) + 30));
      out->commit = co_await txn.Commit();

      // A later transaction observes both effects.
      const std::vector<std::string> both2 = {"acct_a", "acct_b"};
      CrossTxn audit = co_await s->BeginCross(both2);
      EXPECT_TRUE(audit.active()) << audit.begin_status().ToString();
      if (!audit.active()) co_return;
      Result<std::string> a2 = co_await audit.Read("acct_a", "row", "balance");
      Result<std::string> b2 = co_await audit.Read("acct_b", "row", "balance");
      if (!a2.ok() || !b2.ok()) {
        out->read_status = a2.ok() ? b2.status() : a2.status();
      } else {
        out->a_after = *a2;
        out->b_after = *b2;
      }
      audit.Abort();
    }
  } run;
  run(&session, &probe);
  db.Run();

  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  EXPECT_EQ(probe.commit.prepare_positions.size(), 2u);
  EXPECT_GT(probe.commit.decide_pos, 0u);
  ASSERT_TRUE(probe.read_status.ok()) << probe.read_status.ToString();
  EXPECT_EQ(probe.a_after, "70");
  EXPECT_EQ(probe.b_after, "130");

  core::CheckReport report = db.Check(std::vector<std::string>{"acct_a", "acct_b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossTxnTest, ReadManyReturnsSpecOrderWithPerSlotFailures) {
  // The batched read (D9) fans the specs out concurrently but must return
  // results in spec order, and an invalid spec — reserved attribute,
  // non-participant group — fails only its own slot.
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "1"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "2"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    std::vector<Result<std::string>> values;
  } probe;
  struct Run {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
      if (!txn.active()) co_return;
      // Deliberately out of group order, with a repeat and two bad specs.
      const std::vector<txn::CrossRead> batch = {
          {"b", "row", "y"},
          {"a", "row", "x"},
          {"a", "row", wal::kWholeRowAttribute},
          {"c", "row", "x"},
          {"b", "row", "y"},
      };
      out->values = co_await txn.ReadMany(&batch);
      txn.Abort();
    }
  } run;
  run(&session, &probe);
  db.Run();

  ASSERT_EQ(probe.values.size(), 5u);
  ASSERT_TRUE(probe.values[0].ok()) << probe.values[0].status().ToString();
  EXPECT_EQ(*probe.values[0], "2");
  ASSERT_TRUE(probe.values[1].ok()) << probe.values[1].status().ToString();
  EXPECT_EQ(*probe.values[1], "1");
  EXPECT_EQ(probe.values[2].status().code(),
            Status::Code::kInvalidArgument);  // reserved attribute
  EXPECT_EQ(probe.values[3].status().code(),
            Status::Code::kInvalidArgument);  // 'c' not a participant
  ASSERT_TRUE(probe.values[4].ok()) << probe.values[4].status().ToString();
  EXPECT_EQ(*probe.values[4], "2");
}

TEST(CrossTxnTest, PrepareListsEachReadItemOnceInItemOrder) {
  // ReadMany's reads are answered in arrival order, out of item order and
  // with one spec repeated. The read set keeps each item once, and the
  // decided prepare lists the items in item order, so the record's bytes
  // do not depend on which read was answered first.
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "1"}, {"y", "2"}, {"z", "3"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"w", "4"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    TxnId id = 0;
    std::vector<Result<std::string>> values;
    CrossCommitResult commit;
  } probe;
  struct Run {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
      if (!txn.active()) co_return;
      out->id = txn.id();
      const std::vector<txn::CrossRead> batch = {
          {"a", "row", "z"}, {"b", "row", "w"}, {"a", "row", "x"},
          {"a", "row", "z"}, {"a", "row", "y"},
      };
      out->values = co_await txn.ReadMany(&batch);
      (void)txn.Write("b", "row", "w", "5");
      out->commit = co_await txn.Commit();
    }
  } run;
  run(&session, &probe);
  db.Run();

  ASSERT_EQ(probe.values.size(), 5u);
  for (const Result<std::string>& value : probe.values) {
    EXPECT_TRUE(value.ok()) << value.status().ToString();
  }
  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  ASSERT_EQ(probe.commit.prepare_positions.count("a"), 1u);
  Result<wal::LogEntry> entry =
      db.cluster()->service(0)->GroupLog("a")->GetEntry(
          probe.commit.prepare_positions.at("a"));
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  const wal::TxnRecord* prepare = entry->FindPrepare(probe.id);
  ASSERT_NE(prepare, nullptr);
  std::vector<std::string> items;
  for (const wal::ReadRecord& read : prepare->reads) {
    items.push_back(read.item.ToString());
  }
  EXPECT_EQ(items, (std::vector<std::string>{"row.x", "row.y", "row.z"}));
}

TEST(CrossTxnTest, RequiresPaxosCp) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ClientOptions basic;
  basic.protocol = txn::Protocol::kBasicPaxos;
  Session session = db.Session(0, basic);

  struct Probe {
    Status begin = Status::OK();
  } probe;
  struct {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      out->begin = txn.begin_status();
      EXPECT_FALSE(txn.active());
    }
  } run;
  run(&session, &probe);
  db.Run();
  EXPECT_EQ(probe.begin.code(), Status::Code::kInvalidArgument);
}

TEST(CrossTxnTest, ConflictingCrossTxnsSerializeOrAbort) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  // Two sessions race read-modify-write transactions over the same two
  // groups and items; serializability across groups must hold whatever
  // interleaving the simulator produces.
  struct Probe {
    CrossTxnResult r1, r2;
  } probe;
  Session s1 = db.Session(0);
  Session s2 = db.Session(1);

  auto body = [](CrossTxn* txn) -> sim::Coro<Status> {
    Result<std::string> x = co_await txn->Read("a", "row", "x");
    if (!x.ok()) co_return x.status();
    Result<std::string> y = co_await txn->Read("b", "row", "y");
    if (!y.ok()) co_return y.status();
    Status wx = txn->Write("a", "row", "x", std::to_string(std::stoi(*y) + 1));
    if (!wx.ok()) co_return wx;
    Status wy = txn->Write("b", "row", "y", std::to_string(std::stoi(*x) + 1));
    if (!wy.ok()) co_return wy;
    co_return Status::OK();
  };

  struct {
    sim::Task operator()(Session* s, txn::CrossTxnBody body,
                         CrossTxnResult* out) {
      const std::vector<std::string> ab = {"a", "b"};
      *out = co_await s->RunTransaction(ab, std::move(body));
    }
  } run;
  run(&s1, body, &probe.r1);
  run(&s2, body, &probe.r2);
  db.Run();

  // With retries both should eventually commit (no deadlock, no livelock
  // in this 2-txn race), and the combined history must be serializable.
  EXPECT_TRUE(probe.r1.committed()) << probe.r1.status.ToString();
  EXPECT_TRUE(probe.r2.committed()) << probe.r2.status.ToString();
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossTxnTest, MixedSingleAndCrossTrafficStaysSerializable) {
  Db db(TestConfig(77));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}, {"w", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  Session cross_session = db.Session(0);
  Session single_session = db.Session(1);

  struct Probe {
    CrossTxnResult cross;
    txn::TxnResult single;
  } probe;

  struct CrossRun {
    sim::Task operator()(Session* s, CrossTxnResult* out) {
      const std::vector<std::string> ab = {"a", "b"};
      *out = co_await s->RunTransaction(
          ab, [](CrossTxn* txn) -> sim::Coro<Status> {
            Result<std::string> x = co_await txn->Read("a", "row", "x");
            if (!x.ok()) co_return x.status();
            Status w = txn->Write("b", "row", "y", *x + "!");
            if (!w.ok()) co_return w;
            co_return Status::OK();
          });
    }
  } cross_run;
  struct SingleRun {
    sim::Task operator()(Session* s, txn::TxnResult* out) {
      *out = co_await s->RunTransaction(
          "a", [](txn::Txn* txn) -> sim::Coro<Status> {
            Result<std::string> w = co_await txn->Read("row", "w");
            if (!w.ok()) co_return w.status();
            Status ww = txn->Write("row", "w", *w + "1");
            if (!ww.ok()) co_return ww;
            Status wx = txn->Write("row", "x", "9");
            if (!wx.ok()) co_return wx;
            co_return Status::OK();
          });
    }
  } single_run;
  cross_run(&cross_session, &probe.cross);
  single_run(&single_session, &probe.single);
  db.Run();

  EXPECT_TRUE(probe.cross.committed()) << probe.cross.status.ToString();
  EXPECT_TRUE(probe.single.committed()) << probe.single.status.ToString();
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossTxnTest, DecideWalkClaimsRoundZeroFromThePositionLeader) {
  // A round-0 grant is unique only if every claim for a position goes to
  // that position's leader: the winner of the entry before it (DC 0 for
  // position 1). A coordinator at DC 1 wins the prepare positions, so DC 1
  // leads the positions its decide walks start at; a walk that asked DC 0
  // there could get a second round-0 grant for a position the real leader
  // already granted, and two values could be decided at one ballot.
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  struct Claim {
    DcId dc;
    std::string group;
    LogPos pos;
  };
  std::vector<Claim> claims;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    txn::TransactionService* service = db.cluster()->service(dc);
    db.cluster()->network()->RegisterEndpoint(
        dc, [service, &claims](DcId from, const txn::ServiceRequest* request) {
          if (const auto* claim =
                  std::get_if<txn::ClaimLeaderRequest>(request)) {
            claims.push_back({service->dc(), claim->group, claim->pos});
          }
          return service->Handle(from, request);
        });
  }

  Session session = db.Session(1);
  struct Probe {
    CrossCommitResult commit;
  } probe;
  struct CommitRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "1");
      (void)txn.Write("b", "row", "y", "1");
      out->commit = co_await txn.Commit();
    }
  } commit_run;
  commit_run(&session, &probe);
  db.Run();
  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();

  // Two prepares and two decides, each claiming its first position.
  ASSERT_EQ(claims.size(), 4u);
  for (const Claim& claim : claims) {
    DcId leader = 0;
    if (claim.pos > 1) {
      Result<wal::LogEntry> previous =
          db.cluster()->service(0)->GroupLog(claim.group)->GetEntry(
              claim.pos - 1);
      ASSERT_TRUE(previous.ok()) << claim.group << "[" << claim.pos - 1 << "]";
      leader = previous->winner_dc;
    }
    EXPECT_EQ(claim.dc, leader)
        << "claim for " << claim.group << "[" << claim.pos << "]";
  }
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

// ----------------------------------------------------- crash and recovery

/// Drives the shared recovery core for `id`, observed pending in `group`,
/// with `engine` as the protocol engine (any client, anywhere), and stores
/// the outcome in `*out`.
sim::Task RunRecovery(txn::TransactionClient* engine, std::string group,
                      TxnId id, txn::recovery::RecoveryResult* out) {
  *out = co_await txn::recovery::CrossRecovery::Run(engine, std::move(group),
                                                    id);
}

/// A recovery outcome that fails every status check until RunRecovery
/// has filled it in.
txn::recovery::RecoveryResult Unrecovered() {
  txn::recovery::RecoveryResult result;
  result.status = Status::Internal("unset");
  return result;
}

TEST(CrossRecoveryTest, CoordinatorCrashBetweenPrepareAndDecideIsRecovered) {
  Db db(TestConfig(41));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  // The crashing coordinator: walks away after both prepares land,
  // leaving prepared-but-undecided records in both logs.
  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(0, crashy);

  struct Probe {
    CrossCommitResult crash_commit;
    TxnId crashed_id = 0;
    Status held_read = Status::OK();
    LogPos held_read_pos = 99;
  } probe;

  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
      if (!txn.active()) co_return;
      out->crashed_id = txn.id();
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();

  ASSERT_TRUE(probe.crash_commit.unknown)
      << probe.crash_commit.status.ToString();
  ASSERT_EQ(probe.crash_commit.prepare_positions.size(), 2u);
  // Both groups hold a pending prepare; the read frontier is held below it.
  for (const char* g : {"a", "b"}) {
    EXPECT_FALSE(
        db.cluster()->service(0)->GroupLog(g)->PendingPrepares().empty())
        << g;
  }

  struct HeldProbe {
    LogPos read_pos = 99;
  } held;
  Session reader = db.Session(1);
  struct HeldRun {
    sim::Task operator()(Session* s, HeldProbe* out, LogPos* prep_pos) {
      txn::Txn txn = co_await s->Begin("a");
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      out->read_pos = txn.read_pos();
      (void)*prep_pos;
      txn.Abort();
    }
  } held_run;
  LogPos prep_a = probe.crash_commit.prepare_positions.at("a");
  held_run(&reader, &held, &prep_a);
  db.Run();
  EXPECT_LT(held.read_pos, prep_a);

  // The recovery core resolves the transaction. No decide exists, so it
  // forces abort in the commit group and propagates it.
  txn::recovery::RecoveryResult rec = Unrecovered();
  RunRecovery(db.cluster()->CreateClient(2, ClientOptions{}), "a",
              probe.crashed_id, &rec);
  db.Run();
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_TRUE(rec.decided);
  EXPECT_TRUE(rec.forced_abort);
  EXPECT_FALSE(rec.commit);

  // Pendings cleared everywhere that learned the decide; the crashed
  // writes never surface; the checker is green across both groups.
  EXPECT_TRUE(
      db.cluster()->service(0)->GroupLog("a")->PendingPrepares().empty());
  EXPECT_TRUE(
      db.cluster()->service(0)->GroupLog("b")->PendingPrepares().empty());

  struct AfterProbe {
    std::string x, y;
    Status status = Status::OK();
  } after;
  Session verify = db.Session(1);
  struct AfterRun {
    sim::Task operator()(Session* s, AfterProbe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
      if (!txn.active()) co_return;
      Result<std::string> x = co_await txn.Read("a", "row", "x");
      Result<std::string> y = co_await txn.Read("b", "row", "y");
      if (!x.ok() || !y.ok()) {
        out->status = x.ok() ? y.status() : x.status();
      } else {
        out->x = *x;
        out->y = *y;
      }
      txn.Abort();
    }
  } after_run;
  after_run(&verify, &after);
  db.Run();
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.x, "0");
  EXPECT_EQ(after.y, "0");

  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossRecoveryTest, ParallelPartialPrepareCrashIsRecovered) {
  // The partial-prepare window of the parallel fan-out (D9): the
  // coordinator crashes once one prepare has landed, with both prepare
  // legs in flight. On even seeds a single-group writer on "b", started
  // 10 ms ahead, makes the "b" leg lose its first position, so across the
  // seeds both shapes occur: (a) only the commit group "a" holds a prepare
  // and "b" has no trace of the txn on any replica — recovery then
  // propagates into "b" from its safe read position; (b) both prepares
  // landed. Either way recovery must force abort through the commit group
  // and release every pending prepare.
  bool saw_one_landed = false;
  bool saw_both_landed = false;
  for (const uint64_t seed : {41, 42, 43, 44, 45, 46}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Db db(TestConfig(seed));
    ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
    ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}, {"z", "0"}}).ok());

    ClientOptions crashy;
    crashy.crash_after_prepares = 1;
    Session doomed = db.Session(0, crashy);
    Session rival = db.Session(1);

    struct Probe {
      CrossCommitResult crash_commit;
      TxnId crashed_id = 0;
    } probe;
    struct CrashRun {
      sim::Task operator()(Session* s, Probe* out, sim::Simulator* sim) {
        co_await sim::SleepFor(sim, 10 * kMillisecond);
        const std::vector<std::string> ab = {"a", "b"};
        CrossTxn txn = co_await s->BeginCross(ab);
        EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
        if (!txn.active()) co_return;
        out->crashed_id = txn.id();
        (void)txn.Write("a", "row", "x", "half");
        (void)txn.Write("b", "row", "y", "half");
        out->crash_commit = co_await txn.Commit();
      }
    } crash_run;
    struct RivalRun {
      sim::Task operator()(Session* s) {
        txn::Txn txn = co_await s->Begin("b");
        if (!txn.active()) co_return;
        (void)txn.Write("row", "z", "rival");
        (void)co_await txn.Commit();
      }
    } rival_run;
    crash_run(&doomed, &probe, db.simulator());
    if (seed % 2 == 0) rival_run(&rival);
    db.Run();

    ASSERT_TRUE(probe.crash_commit.unknown)
        << probe.crash_commit.status.ToString();
    const auto& landed = probe.crash_commit.prepare_positions;
    ASSERT_GE(landed.size(), 1u);  // the gate trips only after a landing
    ASSERT_LE(landed.size(), 2u);

    // Which groups hold the prepare, on any replica.
    std::set<std::string> pending_in;
    for (const std::string group : {"a", "b"}) {
      for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
        for (const wal::PendingPrepare& p :
             db.cluster()->service(dc)->GroupLog(group)->PendingPrepares()) {
          if (p.txn == probe.crashed_id) pending_in.insert(group);
        }
      }
    }
    if (landed.size() == 1) {
      ASSERT_EQ(pending_in.size(), 1u);
      EXPECT_EQ(landed.count(*pending_in.begin()), 1u);
      if (landed.count("a") == 1) saw_one_landed = true;
    } else {
      EXPECT_EQ(pending_in.size(), 2u);
      saw_both_landed = true;
    }

    txn::recovery::RecoveryResult rec = Unrecovered();
    RunRecovery(db.cluster()->CreateClient(1, ClientOptions{}),
                *pending_in.begin(), probe.crashed_id, &rec);
    db.Run();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    EXPECT_TRUE(rec.decided);
    EXPECT_TRUE(rec.forced_abort);
    EXPECT_FALSE(rec.commit);

    // Every frontier is released and the forced abort kept the old values.
    for (const std::string group : {"a", "b"}) {
      for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
        EXPECT_TRUE(db.cluster()
                        ->service(dc)
                        ->GroupLog(group)
                        ->PendingPrepares()
                        .empty())
            << "group " << group << " dc " << dc;
      }
    }
    wal::WriteAheadLog* log_a = db.cluster()->service(0)->GroupLog("a");
    ASSERT_TRUE(log_a->ApplyThrough(log_a->SafeReadPos()).ok());
    EXPECT_EQ(log_a->ReadItem({"row", "x"}, log_a->SafeReadPos()).value,
              "0");
    core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
    EXPECT_TRUE(report.ok) << report.ToString();
  }
  EXPECT_TRUE(saw_one_landed) << "no seed left only the commit group prepared";
  EXPECT_TRUE(saw_both_landed) << "no seed landed both prepares";
}

TEST(CrossRecoveryTest, RecoveryAdoptsExistingCommitDecision) {
  Db db(TestConfig(43));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  // Crash after prepares AND after the commit decide landed in the commit
  // group but before propagation: crash_after_prepares can't express
  // that, so emulate by committing fully, then re-running recovery — it
  // must adopt the existing commit decision, not abort.
  Session session = db.Session(0);
  struct Probe {
    CrossCommitResult commit;
    TxnId id = 0;
  } probe;
  struct CommitRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      out->id = txn.id();
      (void)txn.Write("a", "row", "x", "committed");
      (void)txn.Write("b", "row", "y", "committed");
      out->commit = co_await txn.Commit();
    }
  } commit_run;
  commit_run(&session, &probe);
  db.Run();
  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();

  txn::recovery::RecoveryResult rec = Unrecovered();
  RunRecovery(db.cluster()->CreateClient(1, ClientOptions{}), "b", probe.id,
              &rec);
  db.Run();
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_TRUE(rec.decided);
  EXPECT_FALSE(rec.forced_abort);  // learned, not forced
  EXPECT_TRUE(rec.commit);

  // Still committed (recovery must not flip a decided transaction) and
  // the writes survive.
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
  wal::WriteAheadLog* log_a = db.cluster()->service(0)->GroupLog("a");
  ASSERT_TRUE(log_a->ApplyThrough(log_a->SafeReadPos()).ok());
  wal::ItemRead x = log_a->ReadItem({"row", "x"}, log_a->SafeReadPos());
  EXPECT_EQ(x.value, "committed");
}

// ------------------------------------ the next begin's decide waits (D16)

/// A coordinator at dc 0 commits a cross transaction over {a, b} and
/// issues a BeginCross as soon as Commit returns. Records what dc 0 (the
/// home, the begin-serving replica) holds of the decide in each group when
/// that begin returns, where it reads, when it returns, and how many waits
/// the session's begins gave up.
struct BarrierProbe {
  CrossCommitResult commit;
  TxnId id = 0;
  TimeMicros commit_started = 0;
  TimeMicros next_begin_returned = 0;
  int begin_giveups = 0;
  std::map<std::string, wal::CrossDecision> at_return;
  std::map<std::string, LogPos> next_read_pos;
  Status next_begin = Status::Internal("unset");
};

struct CommitThenBegin {
  sim::Task operator()(Db* db, Session* s, BarrierProbe* out) {
    const std::vector<std::string> ab = {"a", "b"};
    CrossTxn txn = co_await s->BeginCross(ab);
    EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
    if (!txn.active()) co_return;
    out->id = txn.id();
    (void)txn.Write("a", "row", "x", "1");
    (void)txn.Write("b", "row", "y", "1");
    sim::Simulator* sim = db->cluster()->simulator();
    out->commit_started = sim->Now();
    out->commit = co_await txn.Commit();
    CrossTxn next = co_await s->BeginCross(ab);
    out->next_begin_returned = sim->Now();
    out->begin_giveups = s->client()->begin_giveups();
    for (const std::string& g : ab) {
      out->at_return[g] =
          db->cluster()->service(0)->GroupLog(g)->DecisionFor(out->id);
    }
    out->next_begin = next.begin_status();
    for (const std::string& g : ab) out->next_read_pos[g] = next.read_pos(g);
    next.Abort();
  }
};

/// The session's read-your-effects promise: the home held every decide
/// when the next begin returned, and that begin read at or above each.
void ExpectDecidedAtHome(const BarrierProbe& probe) {
  ASSERT_TRUE(probe.next_begin.ok()) << probe.next_begin.ToString();
  for (const char* g : {"a", "b"}) {
    const wal::CrossDecision& decision = probe.at_return.at(g);
    EXPECT_TRUE(decision.known) << "dc 0 lacks the decide in " << g;
    EXPECT_GE(probe.next_read_pos.at(g), decision.pos) << g;
  }
}

/// Stands in for a request lost on its way: answers only after the
/// caller's 2 s RPC timeout fired, without serving the request.
sim::Coro<txn::ServiceResponse> LostRequest(sim::Simulator* sim) {
  co_await sim::SleepFor(sim, 3 * kSecond);
  co_return txn::ServiceResponse{};
}

TEST(CrossBarrierTest, CommitWaitsForHomeToApplyItsOwnDecides) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  Session session = db.Session(0);
  BarrierProbe probe;
  CommitThenBegin run;
  run(&db, &session, &probe);
  db.Run();

  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  EXPECT_EQ(probe.begin_giveups, 0);
  ExpectDecidedAtHome(probe);
}

TEST(CrossBarrierTest, CommitDeliversDecidesRecoveryLandedFirst) {
  // The coordinator's decide accept in "a" never reaches dc 1 or dc 2, and
  // a recovery engine at dc 2, started at that moment, decides the
  // transaction in both groups; none of recovery's applies reaches dc 0.
  // The coordinator's walks then learn each decide from a replica that
  // already holds it, so no apply of theirs is on its way to dc 0: the
  // decide legs must deliver both entries to dc 0 themselves before the
  // next begin goes out.
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  sim::Simulator* sim = db.cluster()->simulator();
  txn::TransactionClient* engine =
      db.cluster()->CreateClient(2, ClientOptions{});
  BarrierProbe probe;
  txn::recovery::RecoveryResult rec = Unrecovered();
  bool recovery_started = false;
  int coordinator_applies_at_home = 0;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    txn::TransactionService* service = db.cluster()->service(dc);
    db.cluster()->network()->RegisterEndpoint(
        dc, [&, service, dc](DcId from, const txn::ServiceRequest* request) {
          const auto holds_decide = [&probe](const wal::LogEntry& entry) {
            return probe.id != 0 && entry.FindDecide(probe.id) != nullptr;
          };
          if (const auto* accept = std::get_if<txn::AcceptRequest>(request);
              accept != nullptr && from == 0 && dc != 0 &&
              accept->group == "a" && holds_decide(accept->value)) {
            if (!recovery_started) {
              recovery_started = true;
              RunRecovery(engine, "a", probe.id, &rec);
            }
            return LostRequest(sim);
          }
          if (const auto* apply = std::get_if<txn::ApplyRequest>(request);
              apply != nullptr && dc == 0 && holds_decide(apply->value)) {
            if (from == 2) return LostRequest(sim);
            ++coordinator_applies_at_home;
          }
          return service->Handle(from, request);
        });
  }
  Session session = db.Session(0);
  CommitThenBegin run;
  run(&db, &session, &probe);
  db.Run();

  ASSERT_TRUE(recovery_started);
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_FALSE(probe.commit.unknown) << probe.commit.status.ToString();
  EXPECT_EQ(probe.commit.committed, rec.commit);
  EXPECT_EQ(probe.begin_giveups, 0);
  // One delivery per group, both sent by the coordinator's decide legs.
  EXPECT_EQ(coordinator_applies_at_home, 2);
  ExpectDecidedAtHome(probe);
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossBarrierTest, BarrierGiveUpIsCounted) {
  // Every apply of the coordinator's decides is lost: the decide is known,
  // so the transaction commits, but no replica acknowledges it in either
  // group, and the next begin counts both waits as given up.
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  sim::Simulator* sim = db.cluster()->simulator();
  BarrierProbe probe;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    txn::TransactionService* service = db.cluster()->service(dc);
    db.cluster()->network()->RegisterEndpoint(
        dc, [&, service](DcId from, const txn::ServiceRequest* request) {
          if (const auto* apply = std::get_if<txn::ApplyRequest>(request);
              apply != nullptr && probe.id != 0 &&
              apply->value.FindDecide(probe.id) != nullptr) {
            return LostRequest(sim);
          }
          return service->Handle(from, request);
        });
  }
  Session session = db.Session(0);
  CommitThenBegin run;
  run(&db, &session, &probe);
  db.Run();

  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  EXPECT_EQ(probe.begin_giveups, 2);
  EXPECT_FALSE(probe.at_return.at("a").known);
  EXPECT_FALSE(probe.at_return.at("b").known);
}

TEST(CrossBarrierTest, BarrierFailsOverPastAHomeThatDidNotAnswer) {
  // dc 0 never answers an apply of the coordinator's decide in time. Home
  // is the only replica asked to answer the walk's apply, so the decide
  // legs re-deliver the entry to the next replica, dc 1, once home's 2 s
  // timeout fired: the next begin returns about 2 s after the decide, with
  // no give-up. A fallback that tried home again would take about 4 s.
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  sim::Simulator* sim = db.cluster()->simulator();
  BarrierProbe probe;
  int redelivered_at_dc1 = 0;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    txn::TransactionService* service = db.cluster()->service(dc);
    db.cluster()->network()->RegisterEndpoint(
        dc, [&, service, dc](DcId from, const txn::ServiceRequest* request) {
          const auto* apply = std::get_if<txn::ApplyRequest>(request);
          if (apply != nullptr && probe.id != 0 &&
              apply->value.FindDecide(probe.id) != nullptr) {
            if (dc == 0) return LostRequest(sim);
            if (dc == 1 && apply->ballot.IsNull()) {
              ++redelivered_at_dc1;
            }
          }
          return service->Handle(from, request);
        });
  }
  Session session = db.Session(0);
  CommitThenBegin run;
  run(&db, &session, &probe);
  db.Run();

  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  EXPECT_EQ(probe.begin_giveups, 0);
  EXPECT_EQ(redelivered_at_dc1, 2);  // one per group
  const TimeMicros after_decide =
      probe.next_begin_returned -
      (probe.commit_started + probe.commit.decision_latency);
  EXPECT_GE(after_decide, 2 * kSecond);
  EXPECT_LT(after_decide, 3 * kSecond);
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

/// A coordinator at dc 0 commits a cross transaction over {a, b} (commit
/// group a) and, as soon as Commit returns, begins a single-group
/// transaction on b, the participant whose decide is proposed only after
/// the commit point. Records what dc 0 holds of b's decide at Commit's
/// return and at the begin's return, and where that begin reads.
struct SingleBeginProbe {
  CrossCommitResult commit;
  TxnId id = 0;
  wal::CrossDecision b_at_commit;
  wal::CrossDecision b_at_begin;
  LogPos begin_read_pos = 0;
  Status begin = Status::Internal("unset");
  int begin_giveups = -1;
};

struct CommitThenBeginOnB {
  sim::Task operator()(Db* db, Session* s, SingleBeginProbe* out) {
    const std::vector<std::string> ab = {"a", "b"};
    CrossTxn txn = co_await s->BeginCross(ab);
    EXPECT_TRUE(txn.active()) << txn.begin_status().ToString();
    if (!txn.active()) co_return;
    out->id = txn.id();
    (void)txn.Write("a", "row", "x", "1");
    (void)txn.Write("b", "row", "y", "1");
    const wal::WriteAheadLog* b_at_home =
        db->cluster()->service(0)->GroupLog("b");
    out->commit = co_await txn.Commit();
    out->b_at_commit = b_at_home->DecisionFor(out->id);
    txn::Txn next = co_await s->Begin("b");
    out->b_at_begin = b_at_home->DecisionFor(out->id);
    out->begin = next.begin_status();
    out->begin_read_pos = next.read_pos();
    out->begin_giveups = s->client()->begin_giveups();
    next.Abort();
  }
};

SingleBeginProbe RunCommitThenBeginOnB() {
  Db db(TestConfig());
  EXPECT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  EXPECT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  Session session = db.Session(0);
  SingleBeginProbe probe;
  CommitThenBeginOnB run;
  run(&db, &session, &probe);
  db.Run();
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
  return probe;
}

TEST(CrossBarrierTest, CommitReturnsAtTheCommitPoint) {
  // Commit returns as soon as the commit group's decide is known (D16): its
  // latency is the commit point's, while b's decide is still on its way
  // and not yet decided at home.
  const SingleBeginProbe probe = RunCommitThenBeginOnB();
  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  EXPECT_GT(probe.commit.decision_latency, 0);
  EXPECT_EQ(probe.commit.latency, probe.commit.decision_latency);
  EXPECT_FALSE(probe.b_at_commit.known);
}

TEST(CrossBarrierTest, SingleGroupBeginWaitsForTheParticipantsDecide) {
  // The single-group begin on b waits for b's detached decide leg: home has
  // applied b's decide when it returns, and it reads at or above the
  // decide, not below the prepare that was pending when Commit returned.
  const SingleBeginProbe probe = RunCommitThenBeginOnB();
  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();
  ASSERT_TRUE(probe.begin.ok()) << probe.begin.ToString();
  ASSERT_TRUE(probe.b_at_begin.known) << "dc 0 lacks b's decide";
  EXPECT_TRUE(probe.b_at_begin.commit);
  EXPECT_GE(probe.begin_read_pos, probe.b_at_begin.pos);
  EXPECT_EQ(probe.begin_giveups, 0);
}

// ---------------------------------------------------------- determinism

/// Order-independent digest of one group's decided log: fold every decided
/// entry's fingerprint position-by-position (FNV-style). Two runs with the
/// same seed must produce byte-identical logs, so the digests must match.
uint64_t LogDigest(const wal::WriteAheadLog* log) {
  uint64_t digest = 1469598103934665603ull;
  for (LogPos pos = 1; pos <= log->MaxDecided(); ++pos) {
    if (!log->HasEntry(pos)) continue;
    Result<wal::LogEntry> entry = log->GetEntry(pos);
    digest ^= pos;
    digest *= 1099511628211ull;
    digest ^= entry.ok() ? entry->Fingerprint() : 0;
    digest *= 1099511628211ull;
  }
  return digest;
}

struct DeterminismRun {
  workload::RunStats stats;
  std::vector<uint64_t> digests;  // per group, per datacenter
};

DeterminismRun RunShardedWorkload(uint64_t seed) {
  core::ClusterConfig config = TestConfig(911);
  core::Cluster cluster(config);

  workload::RunnerConfig runner;
  runner.workload.num_attributes = 40;
  runner.workload.num_groups = 3;
  runner.workload.cross_fraction = 0.35;
  runner.workload.groups_per_cross_txn = 3;
  runner.total_txns = 90;
  runner.num_threads = 3;
  runner.stagger = 200 * kMillisecond;
  runner.target_rate_tps = 1.0;
  runner.seed = seed;

  DeterminismRun out;
  out.stats = workload::RunExperiment(&cluster, runner);
  for (int i = 0; i < runner.workload.num_groups; ++i) {
    const std::string name =
        workload::Generator::GroupName(runner.workload, i);
    for (DcId dc = 0; dc < config.num_datacenters(); ++dc) {
      out.digests.push_back(LogDigest(cluster.service(dc)->GroupLog(name)));
    }
  }
  return out;
}

TEST(CrossDeterminismTest, ShardedWorkloadReplaysIdentically) {
  // The async fan-out (parallel begins, prepares, decide propagation,
  // batched reads, concurrent client threads) must stay deterministic:
  // every waiter resumes through the simulator's event queue, so a fixed
  // seed replays to the same commits, the same logs, and the same checker
  // verdict. This is what makes chaos seeds replayable.
  DeterminismRun first = RunShardedWorkload(20260807);
  DeterminismRun second = RunShardedWorkload(20260807);

  EXPECT_EQ(first.stats.attempted, second.stats.attempted);
  EXPECT_EQ(first.stats.committed, second.stats.committed);
  EXPECT_EQ(first.stats.read_only, second.stats.read_only);
  EXPECT_EQ(first.stats.aborted, second.stats.aborted);
  EXPECT_EQ(first.stats.failed, second.stats.failed);
  EXPECT_EQ(first.stats.cross_attempted, second.stats.cross_attempted);
  EXPECT_EQ(first.stats.cross_committed, second.stats.cross_committed);
  EXPECT_EQ(first.stats.cross_aborted, second.stats.cross_aborted);
  EXPECT_EQ(first.stats.cross_unknown, second.stats.cross_unknown);
  EXPECT_EQ(first.stats.messages_sent, second.stats.messages_sent);
  EXPECT_EQ(first.stats.virtual_duration, second.stats.virtual_duration);
  EXPECT_EQ(first.digests, second.digests);
  // Fault-free: every read-your-effects barrier got its acknowledgement.
  EXPECT_EQ(first.stats.barrier_giveups, 0);

  // The workload actually exercised the parallel cross path, and both
  // replicas of the run pass the full invariant check.
  EXPECT_GT(first.stats.cross_attempted, 0);
  EXPECT_GT(first.stats.cross_committed, 0);
  EXPECT_TRUE(first.stats.check.ok) << first.stats.check.ToString();
  EXPECT_TRUE(second.stats.check.ok) << second.stats.check.ToString();
}

// ------------------------------------------------------- idempotence (D10)

/// Digests of every (group, dc) log — the before/after fingerprint for
/// "this delivery was a no-op" assertions.
std::vector<uint64_t> AllLogDigests(core::Cluster* cluster,
                                    const std::vector<std::string>& groups) {
  std::vector<uint64_t> digests;
  for (const std::string& group : groups) {
    for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
      digests.push_back(LogDigest(cluster->service(dc)->GroupLog(group)));
    }
  }
  return digests;
}

TEST(CrossIdempotenceTest, RedeliveredApplyBroadcastsAreNoOps) {
  // Re-deliver the apply broadcast of EVERY decided entry — which includes
  // the cross prepare entries and the decide entry — to every replica: a
  // network that duplicates messages (D10) does exactly this. Logs, side
  // tables, and the checker verdict must be byte-for-byte unchanged.
  Db db(TestConfig(53));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  Session session = db.Session(0);
  struct Probe {
    CrossCommitResult commit;
  } probe;
  struct CommitRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "once");
      (void)txn.Write("b", "row", "y", "once");
      out->commit = co_await txn.Commit();
    }
  } commit_run;
  commit_run(&session, &probe);
  db.Run();
  ASSERT_TRUE(probe.commit.committed) << probe.commit.status.ToString();

  const std::vector<std::string> groups = {"a", "b"};
  const std::vector<uint64_t> before = AllLogDigests(db.cluster(), groups);
  std::vector<size_t> pending_before;
  for (const std::string& group : groups) {
    for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
      pending_before.push_back(
          db.cluster()->service(dc)->GroupLog(group)->PendingPrepares().size());
    }
  }

  // Re-deliver every entry (prepares, the decide, plain writes) from dc1.
  int redelivered = 0;
  for (const std::string& group : groups) {
    wal::WriteAheadLog* log = db.cluster()->service(1)->GroupLog(group);
    for (LogPos pos = 1; pos <= log->MaxDecided(); ++pos) {
      if (!log->HasEntry(pos)) continue;
      Result<wal::LogEntry> entry = log->GetEntry(pos);
      ASSERT_TRUE(entry.ok());
      for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
        db.cluster()->network()->Call(
            1, dc,
            txn::ServiceRequest(
                txn::ApplyRequest{group, pos, paxos::Ballot(), *entry}));
        ++redelivered;
      }
    }
  }
  ASSERT_GT(redelivered, 0);
  db.Run();

  EXPECT_EQ(AllLogDigests(db.cluster(), groups), before);
  std::vector<size_t> pending_after;
  for (const std::string& group : groups) {
    for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
      pending_after.push_back(
          db.cluster()->service(dc)->GroupLog(group)->PendingPrepares().size());
    }
  }
  EXPECT_EQ(pending_after, pending_before);
  core::CheckReport report = db.Check(groups);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossIdempotenceTest, DuplicateRecoveryInvocationsConverge) {
  // Three recovery clients attack the same crashed transaction
  // concurrently, then a fourth re-runs after they finish (the daemon, a
  // quiesce client, and a duplicated request can all collide like this):
  // every invocation must succeed, agree on the outcome, and leave the
  // logs exactly as a single invocation would.
  Db db(TestConfig(41));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(0, crashy);
  struct Probe {
    CrossCommitResult crash_commit;
    TxnId crashed_id = 0;
  } probe;
  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      out->crashed_id = txn.id();
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();
  ASSERT_TRUE(probe.crash_commit.unknown);

  txn::recovery::RecoveryResult first = Unrecovered();
  txn::recovery::RecoveryResult second = Unrecovered();
  txn::recovery::RecoveryResult third = Unrecovered();
  RunRecovery(db.cluster()->CreateClient(0, ClientOptions{}), "a",
              probe.crashed_id, &first);
  RunRecovery(db.cluster()->CreateClient(1, ClientOptions{}), "a",
              probe.crashed_id, &second);
  RunRecovery(db.cluster()->CreateClient(2, ClientOptions{}), "a",
              probe.crashed_id, &third);
  db.Run();
  for (const txn::recovery::RecoveryResult* r : {&first, &second, &third}) {
    EXPECT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_TRUE(r->decided);
    EXPECT_FALSE(r->commit);  // all agree on the forced abort
  }

  const std::vector<std::string> groups = {"a", "b"};
  const std::vector<uint64_t> settled = AllLogDigests(db.cluster(), groups);

  // The late duplicate: recovery of an already-recovered transaction must
  // adopt the existing decision and change nothing.
  txn::recovery::RecoveryResult late = Unrecovered();
  RunRecovery(db.cluster()->CreateClient(1, ClientOptions{}), "a",
              probe.crashed_id, &late);
  db.Run();
  EXPECT_TRUE(late.status.ok()) << late.status.ToString();
  EXPECT_TRUE(late.decided);
  EXPECT_FALSE(late.forced_abort);  // adopted, not forced again
  EXPECT_FALSE(late.commit);
  EXPECT_EQ(AllLogDigests(db.cluster(), groups), settled);

  for (const std::string& group : groups) {
    for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
      EXPECT_TRUE(db.cluster()
                      ->service(dc)
                      ->GroupLog(group)
                      ->PendingPrepares()
                      .empty())
          << "group " << group << " dc " << dc;
    }
  }
  // The forced abort stuck: the crashed writes never surface.
  wal::WriteAheadLog* log_a = db.cluster()->service(0)->GroupLog("a");
  ASSERT_TRUE(log_a->ApplyThrough(log_a->SafeReadPos()).ok());
  EXPECT_EQ(log_a->ReadItem({"row", "x"}, log_a->SafeReadPos()).value, "0");
  core::CheckReport report = db.Check(groups);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(CrossIdempotenceTest, DuplicatingNetworkKeepsWorkloadSerializable) {
  // End-to-end: a network that duplicates a quarter of all requests and
  // holds some back must leave the sharded workload serializable and
  // deterministic (two runs with the same seed produce identical logs).
  auto run_once = [](uint64_t seed) {
    core::Cluster cluster(TestConfig(911));
    cluster.network()->set_duplicate_probability(0.25);
    cluster.network()->set_reorder_probability(0.25);
    cluster.network()->set_reorder_extra_max(50 * kMillisecond);

    workload::RunnerConfig runner;
    runner.workload.num_attributes = 40;
    runner.workload.num_groups = 2;
    runner.workload.cross_fraction = 0.35;
    runner.total_txns = 60;
    runner.num_threads = 3;
    runner.stagger = 200 * kMillisecond;
    runner.target_rate_tps = 1.0;
    runner.seed = seed;

    DeterminismRun out;
    out.stats = workload::RunExperiment(&cluster, runner);
    EXPECT_GT(cluster.network()->messages_duplicated(), 0u);
    EXPECT_GT(cluster.network()->messages_reordered(), 0u);
    for (int i = 0; i < runner.workload.num_groups; ++i) {
      const std::string name =
          workload::Generator::GroupName(runner.workload, i);
      for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
        out.digests.push_back(LogDigest(cluster.service(dc)->GroupLog(name)));
      }
    }
    return out;
  };
  DeterminismRun first = run_once(8120);
  DeterminismRun second = run_once(8120);
  EXPECT_TRUE(first.stats.check.ok) << first.stats.check.ToString();
  EXPECT_GT(first.stats.committed, 0);
  EXPECT_GT(first.stats.cross_committed, 0);
  EXPECT_EQ(first.stats.attempted, second.stats.attempted);
  EXPECT_EQ(first.stats.committed, second.stats.committed);
  EXPECT_EQ(first.stats.messages_sent, second.stats.messages_sent);
  EXPECT_EQ(first.stats.virtual_duration, second.stats.virtual_duration);
  EXPECT_EQ(first.digests, second.digests);
}

// ------------------------------------- service-side recovery daemon (D10)

TEST(RecoveryDaemonTest, DaemonResolvesCrashedCoordinatorWithoutClients) {
  Db db(TestConfig(61));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  txn::RecoveryDaemonOptions daemon;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->service(dc)->StartRecoveryDaemon(daemon);
  }

  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(0, crashy);
  struct Probe {
    CrossCommitResult crash_commit;
  } probe;
  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();  // drains the crash AND the daemon's recovery
  ASSERT_TRUE(probe.crash_commit.unknown);

  // No client ever ran recovery, yet no replica holds a pending prepare.
  uint64_t started = 0, decided = 0, forced = 0;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    txn::TransactionService* service = db.cluster()->service(dc);
    started += service->recoveries_started();
    decided += service->recoveries_decided();
    forced += service->recoveries_forced_abort();
    for (const char* g : {"a", "b"}) {
      EXPECT_TRUE(service->GroupLog(g)->PendingPrepares().empty())
          << "dc " << dc << " group " << g;
    }
    EXPECT_GT(service->MaxSafeReadPosPin(db.simulator()->Now()), 0);
  }
  EXPECT_GE(started, 1u);
  EXPECT_GE(decided, 1u);
  EXPECT_GE(forced, 1u);  // no decide existed: only force-abort finishes it

  // The forced abort preserved the old values and the history checks out.
  wal::WriteAheadLog* log_a = db.cluster()->service(0)->GroupLog("a");
  ASSERT_TRUE(log_a->ApplyThrough(log_a->SafeReadPos()).ok());
  EXPECT_EQ(log_a->ReadItem({"row", "x"}, log_a->SafeReadPos()).value, "0");
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(RecoveryDaemonTest, ArbiterDrivesWatchersStayQuiet) {
  // With every datacenter live, only the deterministic arbiter (lowest
  // DC) drives recovery; the watchers' deferral backoff outlasts the
  // arbiter's fix, so they never fire a duplicate drive.
  Db db(TestConfig(61));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->service(dc)->StartRecoveryDaemon({});
  }

  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(0, crashy);
  struct Probe {
    CrossCommitResult crash_commit;
  } probe;
  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();
  ASSERT_TRUE(probe.crash_commit.unknown);

  EXPECT_GE(db.cluster()->service(0)->recoveries_started(), 1u);
  EXPECT_EQ(db.cluster()->service(1)->recoveries_started(), 0u);
  EXPECT_EQ(db.cluster()->service(2)->recoveries_started(), 0u);
}

TEST(RecoveryDaemonTest, ArbitrationMovesWhenLowestDcIsDown) {
  // The arbiter role is "lowest LIVE datacenter": with dc0 down, dc1 must
  // recognize itself as arbiter and drive (majority dc1+dc2 suffices).
  Db db(TestConfig(67));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  db.cluster()->network()->SetDatacenterDown(0, true);
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->service(dc)->StartRecoveryDaemon({});
  }

  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(1, crashy);
  struct Probe {
    CrossCommitResult crash_commit;
  } probe;
  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();
  ASSERT_TRUE(probe.crash_commit.unknown);

  EXPECT_EQ(db.cluster()->service(0)->recoveries_started(), 0u);
  EXPECT_GE(db.cluster()->service(1)->recoveries_started(), 1u);
  for (DcId dc : {1, 2}) {
    for (const char* g : {"a", "b"}) {
      EXPECT_TRUE(
          db.cluster()->service(dc)->GroupLog(g)->PendingPrepares().empty())
          << "dc " << dc << " group " << g;
    }
  }
}

TEST(RecoveryDaemonTest, StopCancelsAdoptedTimers) {
  Db db(TestConfig(41));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(0, crashy);
  struct Probe {
    CrossCommitResult crash_commit;
  } probe;
  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();
  ASSERT_TRUE(probe.crash_commit.unknown);

  // Start adopts the existing pending prepares and arms timers; Stop's
  // generation bump turns every one of them into a no-op.
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->service(dc)->StartRecoveryDaemon({});
    EXPECT_TRUE(db.cluster()->service(dc)->recovery_daemon_running());
    db.cluster()->service(dc)->StopRecoveryDaemon();
    EXPECT_FALSE(db.cluster()->service(dc)->recovery_daemon_running());
  }
  db.Run();
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    EXPECT_EQ(db.cluster()->service(dc)->recoveries_started(), 0u);
  }
  EXPECT_FALSE(
      db.cluster()->service(0)->GroupLog("a")->PendingPrepares().empty());
}

TEST(RecoveryDaemonTest, DaemonSurvivesServiceRestart) {
  // A mid-run service restart must not lose the daemon: the replacement
  // re-discovers pending prepares from the durable WAL side tables and
  // keeps healing.
  Db db(TestConfig(71));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());

  ClientOptions crashy;
  crashy.crash_after_prepares = 2;
  Session doomed = db.Session(0, crashy);
  struct Probe {
    CrossCommitResult crash_commit;
  } probe;
  struct CrashRun {
    sim::Task operator()(Session* s, Probe* out) {
      const std::vector<std::string> ab = {"a", "b"};
      CrossTxn txn = co_await s->BeginCross(ab);
      EXPECT_TRUE(txn.active());
      if (!txn.active()) co_return;
      (void)txn.Write("a", "row", "x", "crashed");
      (void)txn.Write("b", "row", "y", "crashed");
      out->crash_commit = co_await txn.Commit();
    }
  } crash_run;
  crash_run(&doomed, &probe);
  db.Run();
  ASSERT_TRUE(probe.crash_commit.unknown);

  // Daemon started only now (pendings already durable), then the arbiter's
  // process is immediately restarted: the replacement must adopt and heal.
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->service(dc)->StartRecoveryDaemon({});
  }
  db.cluster()->RestartService(0);
  EXPECT_TRUE(db.cluster()->service(0)->recovery_daemon_running());
  db.Run();

  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    for (const char* g : {"a", "b"}) {
      EXPECT_TRUE(
          db.cluster()->service(dc)->GroupLog(g)->PendingPrepares().empty())
          << "dc " << dc << " group " << g;
    }
  }
  EXPECT_GE(db.cluster()->service(0)->recoveries_started(), 1u);
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(RecoveryDaemonTest, DaemonLearnsAHoleHidingAPendingPrepare) {
  // A cross prepare decided at a[1] (accepted by 2 of 3 acceptors) whose
  // apply reached no replica, below a data entry every replica applied at
  // a[2]: no WAL side table shows the prepare, so only the daemon's hole
  // timer can bring it into view, and then recover it.
  Db db(TestConfig(73));
  ASSERT_TRUE(db.Load("a", "row", {{"x", "0"}}).ok());
  ASSERT_TRUE(db.Load("b", "row", {{"y", "0"}}).ok());
  const TxnId id = MakeTxnId(0, 1);
  wal::TxnRecord p;
  p.id = id;
  p.kind = wal::RecordKind::kPrepare;
  p.cross_ts = 5;
  p.participants = {"a", "b"};
  p.writes.push_back({{"row", "x"}, "prepared"});
  wal::LogEntry prep;
  prep.txns.push_back(p);
  prep.winner_dc = 0;
  wal::TxnRecord u;
  u.id = MakeTxnId(1, 1);
  u.writes.push_back({{"row", "x"}, "data"});
  wal::LogEntry data;
  data.txns.push_back(u);
  data.winner_dc = 1;
  const paxos::Ballot ballot{1, 0};
  for (DcId dc : {0, 1}) {
    paxos::Acceptor* acceptor = db.cluster()->service(dc)->GroupAcceptor("a");
    ASSERT_TRUE(acceptor->OnPrepare(1, ballot).promised);
    ASSERT_TRUE(acceptor->OnAccept(1, ballot, prep).accepted);
  }
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    ASSERT_TRUE(db.cluster()
                    ->service(dc)
                    ->GroupAcceptor("a")
                    ->OnApply(2, paxos::Ballot{1, 1}, data)
                    .ok());
  }
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->service(dc)->StartRecoveryDaemon({});
  }
  db.Run();

  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    wal::WriteAheadLog* log_a = db.cluster()->service(dc)->GroupLog("a");
    EXPECT_TRUE(log_a->HasEntry(1)) << "dc " << dc;
    EXPECT_TRUE(log_a->DecisionFor(id).known) << "dc " << dc;
    for (const char* g : {"a", "b"}) {
      EXPECT_TRUE(
          db.cluster()->service(dc)->GroupLog(g)->PendingPrepares().empty())
          << "dc " << dc << " group " << g;
    }
  }
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_TRUE(report.ok) << report.ToString();
}

// ------------------------------------------------ post-run quiesce (D10)

/// Sharded workload whose every cross coordinator crashes once one prepare
/// has landed, with the recovery daemon running during the workload iff
/// `recovery_timer` > 0.
workload::RunStats RunCrashingShardedWorkload(core::Cluster* cluster,
                                              TimeMicros recovery_timer) {
  workload::RunnerConfig runner;
  runner.workload.num_attributes = 40;
  runner.workload.num_groups = 3;
  runner.workload.cross_fraction = 0.35;
  runner.workload.groups_per_cross_txn = 2;
  runner.total_txns = 60;
  runner.num_threads = 3;
  runner.stagger = 200 * kMillisecond;
  runner.seed = 5;
  runner.client.crash_after_prepares = 1;
  runner.recovery_timer = recovery_timer;
  return workload::RunExperiment(cluster, runner);
}

TEST(CrossQuiesceTest, QuiesceHealsWhatTheRunLeftPending) {
  // Daemon off during the run: the crashed coordinators' prepares are
  // still pending when it ends, and the quiesce's daemon pass heals them.
  core::Cluster cluster(TestConfig(77));
  const workload::RunStats stats = RunCrashingShardedWorkload(&cluster, 0);
  EXPECT_GT(stats.cross_unknown, 0);
  EXPECT_GT(stats.quiesce_pending, 0);
  EXPECT_EQ(stats.recoveries_abandoned, 0u);
  workload::WorkloadConfig sharded;
  sharded.num_groups = 3;
  for (int g = 0; g < sharded.num_groups; ++g) {
    const std::string name = workload::Generator::GroupName(sharded, g);
    for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
      EXPECT_TRUE(cluster.service(dc)->GroupLog(name)->PendingPrepares().empty())
          << name << " dc " << dc;
    }
  }
  EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
}

TEST(CrossQuiesceTest, DaemonDuringTheRunLeavesTheQuiesceNothing) {
  core::Cluster cluster(TestConfig(77));
  const workload::RunStats stats =
      RunCrashingShardedWorkload(&cluster, 1 * kSecond);
  EXPECT_GT(stats.cross_unknown, 0);
  EXPECT_GT(stats.recoveries_decided, 0u);
  EXPECT_EQ(stats.quiesce_pending, 0);
  EXPECT_EQ(stats.recoveries_abandoned, 0u);
  EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
}

// ------------------------------------------------------- checker coverage

TEST(CrossCheckerTest, DetectsAtomicityViolation) {
  // Hand-build a broken history: T committed canonically in its commit
  // group but its prepare is missing from participant 'b'.
  Db db(TestConfig());
  wal::WriteAheadLog* log_a =
      db.cluster()->service(0)->GroupLog("a");
  const TxnId id = MakeTxnId(0, 1);
  wal::TxnRecord p;
  p.id = id;
  p.kind = wal::RecordKind::kPrepare;
  p.cross_ts = 5;
  p.participants = {"a", "b"};
  p.writes.push_back({{"row", "x"}, "1"});
  wal::LogEntry prep;
  prep.txns.push_back(p);
  prep.winner_dc = 0;
  wal::TxnRecord d;
  d.id = id;
  d.kind = wal::RecordKind::kDecide;
  d.commit_decision = true;
  wal::LogEntry dec;
  dec.txns.push_back(d);
  dec.winner_dc = 0;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    ASSERT_TRUE(
        db.cluster()->service(dc)->GroupLog("a")->SetEntry(1, prep).ok());
    ASSERT_TRUE(
        db.cluster()->service(dc)->GroupLog("a")->SetEntry(2, dec).ok());
    // Give group b a non-empty log so the group exists.
    (void)db.cluster()->service(dc)->GroupLog("b");
  }
  (void)log_a;
  core::CheckReport report = db.Check(std::vector<std::string>{"a", "b"});
  EXPECT_FALSE(report.ok);
}

TEST(CrossCheckerTest, DetectsCommitOrderViolation) {
  // Two committed cross prepares in decreasing (cross_ts, id) order within
  // one group must be flagged even though each is individually fine.
  Db db(TestConfig());
  const TxnId t1 = MakeTxnId(0, 1);  // older id...
  const TxnId t2 = MakeTxnId(0, 2);
  auto prep = [](TxnId id, uint64_t ts) {
    wal::TxnRecord p;
    p.id = id;
    p.kind = wal::RecordKind::kPrepare;
    p.cross_ts = ts;
    p.participants = {"a"};
    return p;
  };
  auto dec = [](TxnId id) {
    wal::TxnRecord d;
    d.id = id;
    d.kind = wal::RecordKind::kDecide;
    d.commit_decision = true;
    return d;
  };
  wal::LogEntry e1, e2, e3, e4;
  e1.txns.push_back(prep(t2, /*ts=*/20));  // younger FIRST: order violation
  e1.winner_dc = 0;
  e2.txns.push_back(prep(t1, /*ts=*/10));
  e2.winner_dc = 0;
  e3.txns.push_back(dec(t1));
  e3.winner_dc = 0;
  e4.txns.push_back(dec(t2));
  e4.winner_dc = 0;
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    wal::WriteAheadLog* log = db.cluster()->service(dc)->GroupLog("a");
    ASSERT_TRUE(log->SetEntry(1, e1).ok());
    ASSERT_TRUE(log->SetEntry(2, e2).ok());
    ASSERT_TRUE(log->SetEntry(3, e3).ok());
    ASSERT_TRUE(log->SetEntry(4, e4).ok());
  }
  core::CheckReport report = db.Check(std::vector<std::string>{"a"});
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const std::string& v : report.violations) {
    if (v.find("commit order") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.ToString();
}

}  // namespace
}  // namespace paxoscp
