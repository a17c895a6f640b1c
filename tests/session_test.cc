// Tests for the Session / Txn handle API (txn/txn.h): RAII handle
// semantics (abort-on-destruction releases the per-group slot, moved-from
// handles are inert), batched ReadRow / WriteRow, the RunTransaction retry
// combinator (attempt and deadline bounds under injected conflicts), and
// the TxnOutcome taxonomy — including kUnknownOutcome surfacing from a
// crashed-client fault plan.
#include <gtest/gtest.h>

#include "core/db.h"
#include "fault/fault_plan.h"
#include "sim/coro.h"
#include "txn/client.h"
#include "txn/txn.h"

namespace paxoscp {
namespace {

using txn::ClientOptions;
using txn::RetryPolicy;
using txn::Session;
using txn::Txn;
using txn::TxnOutcome;
using txn::TxnResult;

core::ClusterConfig TestConfig(uint64_t seed = 23) {
  core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
  config.seed = seed;
  return config;
}

sim::Task Drive(Session* session, std::string group, txn::TxnBody body,
                TxnResult* out, RetryPolicy retry = {}) {
  *out = co_await session->RunTransaction(std::move(group), std::move(body),
                                          retry);
}

// ------------------------------------------------------- handle semantics

TEST(TxnHandleTest, AbortOnDestructionReleasesGroupSlot) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    bool slot_taken_inside = false;
    bool slot_free_after = false;
    Status rebegin = Status::Internal("unset");
    LogPos decided = 99;
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      {
        Txn txn = co_await s->Begin("g");
        EXPECT_TRUE(txn.active());
        out->slot_taken_inside = s->client()->HoldsSlot("g");
        (void)txn.Write("r", "n", "discarded");
        // Handle dropped here without Commit: implicit abort.
      }
      out->slot_free_after = !s->client()->HoldsSlot("g");
      // The slot is free again: a new transaction can begin...
      Txn again = co_await s->Begin("g");
      out->rebegin = again.begin_status();
      (void)co_await again.Commit();  // read-only
    }
  } run;
  run(&session, &probe);
  db.Run();

  EXPECT_TRUE(probe.slot_taken_inside);
  EXPECT_TRUE(probe.slot_free_after);
  EXPECT_TRUE(probe.rebegin.ok()) << probe.rebegin.ToString();
  // ...and the aborted write never reached any log.
  EXPECT_EQ(db.cluster()->service(0)->GroupLog("g")->MaxDecided(), 0u);
}

TEST(TxnHandleTest, MovedFromHandleIsInert) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    bool moved_to_active = false;
    bool moved_from_active = true;
    Status inert_write = Status::OK();
    Status inert_read;
    txn::CommitResult inert_commit;
    txn::CommitResult real_commit;
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      Txn a = co_await s->Begin("g");
      Txn b = std::move(a);
      out->moved_to_active = b.active();
      out->moved_from_active = a.active();
      // Every operation on the moved-from handle fails gracefully.
      out->inert_write = a.Write("r", "n", "x");
      Result<std::string> read = co_await a.Read("r", "n");
      out->inert_read = read.status();
      out->inert_commit = co_await a.Commit();
      a.Abort();  // no-op, must not release b's slot
      EXPECT_TRUE(s->client()->HoldsSlot("g"));
      // The moved-to handle still works end to end.
      (void)b.Write("r", "n", "1");
      out->real_commit = co_await b.Commit();
    }
  } run;
  run(&session, &probe);
  db.Run();

  EXPECT_TRUE(probe.moved_to_active);
  EXPECT_FALSE(probe.moved_from_active);
  EXPECT_EQ(probe.inert_write.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(probe.inert_read.code(), Status::Code::kFailedPrecondition);
  EXPECT_FALSE(probe.inert_commit.committed);
  EXPECT_TRUE(probe.real_commit.committed)
      << probe.real_commit.status.ToString();
}

TEST(TxnHandleTest, MoveAssignmentAbortsTheOverwrittenTxn) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g1", "r", {{"n", "0"}}).ok());
  ASSERT_TRUE(db.Load("g2", "r", {{"n", "0"}}).ok());
  Session session = db.Session(0);

  struct {
    sim::Task operator()(Session* s, bool* g1_released) {
      Txn t1 = co_await s->Begin("g1");
      (void)t1.Write("r", "n", "dropped");
      Txn t2 = co_await s->Begin("g2");
      t1 = std::move(t2);  // aborts the g1 transaction, adopts g2's
      *g1_released = !s->client()->HoldsSlot("g1") &&
                     s->client()->HoldsSlot("g2");
      (void)t1.Write("r", "n", "kept");
      (void)co_await t1.Commit();
    }
  } run;
  bool g1_released = false;
  run(&session, &g1_released);
  db.Run();

  EXPECT_TRUE(g1_released);
  EXPECT_EQ(db.cluster()->service(0)->GroupLog("g1")->MaxDecided(), 0u);
  EXPECT_EQ(db.cluster()->service(0)->GroupLog("g2")->MaxDecided(), 1u);
}

// -------------------------------------------------- batched row accessors

TEST(TxnHandleTest, ReadRowMergesSnapshotAndBufferedWrites) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}, {"b", "B0"}}).ok());
  Session session = db.Session(0);

  struct Probe {
    Result<kvstore::AttributeMap> row = Status::Internal("unset");
    size_t read_set_size = 0;
    txn::CommitResult commit;
  } probe;

  struct {
    sim::Task operator()(Session* s, Probe* out) {
      Txn txn = co_await s->Begin("g");
      // Buffer one overwrite and one brand-new attribute, then read the
      // whole row in one RPC.
      EXPECT_TRUE(txn.WriteRow("r", {{"b", "B1"}, {"c", "C1"}}).ok());
      out->row = co_await txn.ReadRow("r");
      out->read_set_size = txn.read_set_size();
      out->commit = co_await txn.Commit();
    }
  } run;
  run(&session, &probe);
  db.Run();

  ASSERT_TRUE(probe.row.ok()) << probe.row.status().ToString();
  EXPECT_EQ(probe.row->size(), 3u);
  EXPECT_EQ(probe.row->at("a"), "A0");  // snapshot
  EXPECT_EQ(probe.row->at("b"), "B1");  // buffered overwrite (A1)
  EXPECT_EQ(probe.row->at("c"), "C1");  // buffered new attribute
  // Read set: the snapshot-served attribute "a" plus the whole-row
  // predicate read ("b" and "c" were served from the write buffer,
  // property A1, and never enter the read set).
  EXPECT_EQ(probe.read_set_size, 2u);
  EXPECT_TRUE(probe.commit.committed);
  EXPECT_TRUE(db.Check("g").ok);
}

TEST(TxnHandleTest, ReadRowObservesCommittedWritesFromOtherDc) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}}).ok());
  Session writer = db.Session(0);

  struct {
    sim::Task operator()(Session* s, bool* committed) {
      Txn txn = co_await s->Begin("g");
      (void)txn.WriteRow("r", {{"a", "A1"}, {"b", "B1"}});
      txn::CommitResult commit = co_await txn.Commit();
      *committed = commit.committed;
    }
  } write;
  bool committed = false;
  write(&writer, &committed);
  db.Run();
  ASSERT_TRUE(committed);

  Session reader = db.Session(2);
  struct {
    sim::Task operator()(Session* s,
                         Result<kvstore::AttributeMap>* out) {
      Txn txn = co_await s->Begin("g");
      *out = co_await txn.ReadRow("r");
      (void)co_await txn.Commit();
    }
  } read;
  Result<kvstore::AttributeMap> row = Status::Internal("unset");
  read(&reader, &row);
  db.Run();

  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->at("a"), "A1");
  EXPECT_EQ(row->at("b"), "B1");
}

TEST(TxnHandleTest, ReservedWholeRowAttributeIsRejected) {
  // "*" (wal::kWholeRowAttribute) marks whole-row predicate reads in the
  // read set; user reads/writes must not be able to smuggle it in.
  Db db(TestConfig(45));
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}}).ok());
  Session session = db.Session(0);
  struct {
    sim::Task operator()(Session* s, std::vector<Status>* out) {
      Txn txn = co_await s->Begin("g");
      out->push_back(txn.Write("r", "*", "v"));
      out->push_back(txn.WriteRow("r", {{"ok", "v"}, {"*", "v"}}));
      out->push_back((co_await txn.Read("r", "*")).status());
      txn.Abort();
    }
  } run;
  std::vector<Status> results;
  run(&session, &results);
  db.Run();
  ASSERT_EQ(results.size(), 3u);
  for (const Status& s : results) {
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  }
  // Initial loading must not smuggle it in either.
  EXPECT_EQ(db.Load("g", "r2", {{"*", "x"}}).code(),
            Status::Code::kInvalidArgument);
}

TEST(TxnHandleTest, ReadRowAbsenceConflictsWithConcurrentCreation) {
  // Phantom protection: T1 reads the whole row and observes attribute "b"
  // as absent; a rival then commits a transaction *creating* "b"; T1
  // writes based on the observed absence. T1's whole-row predicate read
  // must conflict with the rival's creation — the commit aborts instead
  // of admitting a non-serializable history.
  Db db(TestConfig(43));
  ASSERT_TRUE(db.Load("g", "r", {{"a", "A0"}}).ok());
  Session victim = db.Session(0);
  Session rival = db.Session(1);

  struct Probe {
    bool saw_b_absent = false;
    bool rival_committed = false;
    txn::CommitResult commit;
  } probe;

  struct {
    sim::Task operator()(Session* victim, Session* rival, Probe* out) {
      Txn txn = co_await victim->Begin("g");
      Result<kvstore::AttributeMap> row = co_await txn.ReadRow("r");
      out->saw_b_absent = row.ok() && row->count("b") == 0;
      // Rival creates the attribute the victim observed as absent.
      Txn other = co_await rival->Begin("g");
      (void)other.Write("r", "b", "created");
      out->rival_committed = (co_await other.Commit()).committed;
      // Victim acts on the absence and tries to commit.
      (void)txn.Write("r", "c", "derived-from-b-absent");
      out->commit = co_await txn.Commit();
    }
  } run;
  run(&victim, &rival, &probe);
  db.Run();

  EXPECT_TRUE(probe.saw_b_absent);
  EXPECT_TRUE(probe.rival_committed);
  EXPECT_FALSE(probe.commit.committed);
  EXPECT_TRUE(probe.commit.status.IsAborted())
      << probe.commit.status.ToString();
  EXPECT_TRUE(db.Check("g").ok);
}

// -------------------------------------------------- RunTransaction basics

TEST(RunTransactionTest, CommitsSimpleTransaction) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "41"}}).ok());
  Session session = db.Session(0);

  TxnResult result;
  Drive(&session, "g",
        [](Txn* txn) -> sim::Coro<Status> {
          Result<std::string> n = co_await txn->Read("r", "n");
          if (!n.ok()) co_return n.status();
          co_return txn->Write("r", "n", std::to_string(std::stoi(*n) + 1));
        },
        &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kCommitted)
      << OutcomeName(result.outcome);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.committed());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(result.commit.committed);
}

TEST(RunTransactionTest, ReadOnlyBodyReportsReadOnlyOutcome) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "7"}}).ok());
  Session session = db.Session(0);
  TxnResult result;
  Drive(&session, "g",
        [](Txn* txn) -> sim::Coro<Status> {
          co_return (co_await txn->Read("r", "n")).status();
        },
        &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kReadOnly);
  EXPECT_TRUE(result.committed());
  EXPECT_EQ(db.cluster()->service(0)->GroupLog("g")->MaxDecided(), 0u);
}

TEST(RunTransactionTest, RetriesConcurrencyAborts) {
  // Two counter increments race under basic Paxos (no promotion): one
  // aborts, and the retry loop re-executes it from a fresh snapshot so
  // both increments land.
  Db db(TestConfig(29));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  ClientOptions options;
  options.protocol = txn::Protocol::kBasicPaxos;
  Session s1 = db.Session(0, options);
  Session s2 = db.Session(1, options);

  txn::TxnBody increment = [](Txn* txn) -> sim::Coro<Status> {
    Result<std::string> n = co_await txn->Read("r", "n");
    if (!n.ok()) co_return n.status();
    co_return txn->Write("r", "n", std::to_string(std::stoi(*n) + 1));
  };
  TxnResult r1, r2;
  Drive(&s1, "g", increment, &r1);
  Drive(&s2, "g", increment, &r2);
  db.Run();

  EXPECT_TRUE(r1.committed()) << r1.status.ToString();
  EXPECT_TRUE(r2.committed()) << r2.status.ToString();
  EXPECT_GE(r1.attempts + r2.attempts, 3);  // at least one retried

  // The counter reflects both increments (no lost update).
  TxnResult check;
  std::string final_value;
  Drive(&s1, "g",
        [&final_value](Txn* txn) -> sim::Coro<Status> {
          Result<std::string> n = co_await txn->Read("r", "n");
          if (n.ok()) final_value = *n;
          co_return n.status();
        },
        &check);
  db.Run();
  EXPECT_EQ(final_value, "2");
}

TEST(RunTransactionTest, BodyErrorAbortsWithoutRetry) {
  Db db(TestConfig());
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  Session session = db.Session(0);
  TxnResult result;
  Drive(&session, "g",
        [](Txn*) -> sim::Coro<Status> {
          co_return Status::InvalidArgument("application rejected");
        },
        &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kUnavailable);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(db.cluster()->service(0)->GroupLog("g")->MaxDecided(), 0u);
  // The failed attempt released the slot (no leak).
  EXPECT_FALSE(session.client()->HoldsSlot("g"));
}

// ----------------------------------------- retry bounds under conflicts

/// A body that conflicts deterministically on every attempt: it snapshot-
/// reads "n", then — before its own commit — commits a write of "n"
/// through `saboteur`, so the victim's commit position is always taken by
/// a transaction whose write set intersects the victim's read set.
txn::TxnBody AlwaysConflictingBody(Session* saboteur, int* sabotages) {
  return [saboteur, sabotages](Txn* txn) -> sim::Coro<Status> {
    Result<std::string> n = co_await txn->Read("r", "n");
    if (!n.ok()) co_return n.status();
    Txn rival = co_await saboteur->Begin("g");
    if (!rival.active()) co_return rival.begin_status();
    (void)rival.Write("r", "n", std::to_string(++*sabotages));
    txn::CommitResult commit = co_await rival.Commit();
    if (!commit.committed) co_return Status::Internal("sabotage failed");
    co_return txn->Write("r", "n", "victim");
  };
}

TEST(RunTransactionTest, RespectsMaxAttemptsUnderInjectedConflicts) {
  Db db(TestConfig(31));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  Session victim = db.Session(0);
  Session saboteur = db.Session(1);

  int sabotages = 0;
  RetryPolicy retry;
  retry.max_attempts = 3;
  TxnResult result;
  Drive(&victim, "g", AlwaysConflictingBody(&saboteur, &sabotages), &result,
        retry);
  db.Run();

  EXPECT_EQ(result.outcome, TxnOutcome::kConflict)
      << OutcomeName(result.outcome) << " " << result.status.ToString();
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(sabotages, 3);  // every attempt ran the body afresh
  EXPECT_TRUE(result.status.IsAborted());
  EXPECT_TRUE(db.Check("g").ok);
}

TEST(RunTransactionTest, RespectsDeadlineUnderInjectedConflicts) {
  Db db(TestConfig(33));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  Session victim = db.Session(0);
  Session saboteur = db.Session(1);

  int sabotages = 0;
  RetryPolicy retry;
  retry.max_attempts = 1000;  // the deadline must bind first
  retry.deadline = 2 * kSecond;
  const TimeMicros start = db.simulator()->Now();
  TxnResult result;
  Drive(&victim, "g", AlwaysConflictingBody(&saboteur, &sabotages), &result,
        retry);
  db.Run();
  const TimeMicros elapsed = db.simulator()->Now() - start;

  EXPECT_EQ(result.outcome, TxnOutcome::kConflict);
  EXPECT_GE(result.attempts, 1);
  EXPECT_LT(result.attempts, 1000);
  // No attempt starts after the deadline: total time is bounded by the
  // deadline plus one attempt's duration (an attempt may straddle it; one
  // attempt here is a begin + read + sabotage txn + commit, ~2-3 s).
  EXPECT_LE(elapsed, retry.deadline + 3 * kSecond);
}

// ----------------------------------------------- unknown-outcome surfacing

TEST(RunTransactionTest, UnknownOutcomeFromCrashedClientFaultPlan) {
  // A fault plan takes down both non-home datacenters just before the
  // commit protocol runs; with a tight round cap the client walks away
  // mid-commit — the paper's crashed/impatient client. The outcome is
  // genuinely unknown (acceptors may have decided it), so the combinator
  // must report kUnknownOutcome and must NOT retry.
  Db db(TestConfig(35));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());

  fault::FaultPlan plan;
  plan.events.push_back(
      {100 * kMillisecond, fault::FaultKind::kDatacenterDown, 1, kNoDc, 0});
  plan.events.push_back(
      {100 * kMillisecond, fault::FaultKind::kDatacenterDown, 2, kNoDc, 0});
  db.cluster()->ApplyFaultPlan(plan);

  ClientOptions options;
  options.max_rounds_per_position = 2;  // crash-impatient client
  Session session = db.Session(0, options);

  int body_runs = 0;
  RetryPolicy retry;
  retry.max_attempts = 5;
  TxnResult result;
  struct {
    sim::Task operator()(Db* db, Session* s, int* body_runs,
                         RetryPolicy retry, TxnResult* out) {
      // Wait for the outage, then run a write-only transaction.
      co_await sim::SleepFor(db->simulator(), 200 * kMillisecond);
      *out = co_await s->RunTransaction(
          "g",
          [body_runs](Txn* txn) -> sim::Coro<Status> {
            ++*body_runs;
            co_return txn->Write("r", "n", "1");
          },
          retry);
    }
  } run;
  run(&db, &session, &body_runs, retry, &result);
  db.Run();

  EXPECT_EQ(result.outcome, TxnOutcome::kUnknownOutcome)
      << OutcomeName(result.outcome) << " " << result.status.ToString();
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  // An unknown outcome is never retried: retrying could commit twice.
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(body_runs, 1);
}

TEST(RunTransactionTest, BeginFailureIsUnavailableNotUnknown) {
  // With every datacenter down, begin itself fails: nothing was proposed,
  // so the fate is known (not committed) — kUnavailable, no retry.
  Db db(TestConfig(37));
  ASSERT_TRUE(db.Load("g", "r", {{"n", "0"}}).ok());
  for (DcId dc = 0; dc < db.num_datacenters(); ++dc) {
    db.cluster()->SetDatacenterDown(dc, true);
  }
  Session session = db.Session(0);
  TxnResult result;
  Drive(&session, "g",
        [](Txn* txn) -> sim::Coro<Status> {
          co_return txn->Write("r", "n", "1");
        },
        &result);
  db.Run();
  EXPECT_EQ(result.outcome, TxnOutcome::kUnavailable);
  // Begin fails over through every datacenter; the terminal status is the
  // last failure (a per-message timeout or unavailability).
  EXPECT_TRUE(result.status.IsUnavailable() || result.status.IsTimedOut())
      << result.status.ToString();
  EXPECT_EQ(result.attempts, 1);
}

}  // namespace
}  // namespace paxoscp
