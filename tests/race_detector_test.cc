// Fixture suite for the schedule-order race detector (design note D12).
//
// Two halves:
//  * Conflict detection — known-racy fixtures must be flagged with the
//    right cell name and creation-site provenance; race-free fixtures
//    (happens-before via parent-spawn and promise-completion edges,
//    distinct times, read-read sharing, suppressions) must come back
//    clean. A real sharded workload runs under the detector and must be
//    race-free under the documented suppressions.
//  * Tie-shuffle — the seeded same-time permutation must be deterministic
//    per seed, identity at seed 0, time-respecting, horizon-bounded, and
//    switchable mid-run.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "kvstore/store.h"
#include "net/network.h"
#include "sim/coro.h"
#include "sim/race_detector.h"
#include "sim/simulator.h"
#include "wal/log.h"
#include "workload/runner.h"

namespace paxoscp::sim {
namespace {

using race::AccessKind;

void RecordWrite(const char* cell) {
  if (race::Active()) race::Record(AccessKind::kWrite, {cell});
}

void RecordRead(const char* cell) {
  if (race::Active()) race::Record(AccessKind::kRead, {cell});
}

// --- conflict detection ----------------------------------------------------

TEST(RaceDetectorTest, WriteWriteSameTimeFlagged) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(10, [] { RecordWrite("x"); }, "writer-a");
  sim.ScheduleAt(10, [] { RecordWrite("x"); }, "writer-b");
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u) << "write-write tie must be flagged";
  const RaceDetector::Report& r = det.reports()[0];
  EXPECT_EQ(r.cell, "x");
  EXPECT_EQ(r.time, 10);
  EXPECT_EQ(r.tag_first, "writer-a");
  EXPECT_EQ(r.tag_second, "writer-b");
  EXPECT_EQ(r.mask_first, RaceDetector::kWriteBit);
  EXPECT_EQ(r.mask_second, RaceDetector::kWriteBit);
  EXPECT_LT(r.seq_first, r.seq_second);
  EXPECT_NE(r.Describe().find("writer-a"), std::string::npos);
}

TEST(RaceDetectorTest, ReadWriteSameTimeFlagged) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(5, [] { RecordRead("y"); }, "reader");
  sim.ScheduleAt(5, [] { RecordWrite("y"); }, "writer");
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u);
  EXPECT_EQ(det.reports()[0].mask_first, RaceDetector::kReadBit);
  EXPECT_EQ(det.reports()[0].mask_second, RaceDetector::kWriteBit);
}

TEST(RaceDetectorTest, ReadReadSameTimeClean) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(5, [] { RecordRead("y"); });
  sim.ScheduleAt(5, [] { RecordRead("y"); });
  sim.Run();
  det.Finalize();
  EXPECT_TRUE(det.reports().empty());
}

TEST(RaceDetectorTest, DifferentTimesClean) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(5, [] { RecordWrite("z"); });
  sim.ScheduleAt(6, [] { RecordWrite("z"); });
  sim.Run();
  det.Finalize();
  EXPECT_TRUE(det.reports().empty()) << "time-ordered events never conflict";
}

TEST(RaceDetectorTest, DistinctCellsClean) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(5, [] { RecordWrite("a"); });
  sim.ScheduleAt(5, [] { RecordWrite("b"); });
  sim.Run();
  det.Finalize();
  EXPECT_TRUE(det.reports().empty());
}

TEST(RaceDetectorTest, ParentChildEdgeClean) {
  // An event spawned during another's execution can never run before it,
  // so parent and child writing the same cell at the same timestamp is
  // ordered, not racy.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(10, [&sim] {
    RecordWrite("pc");
    sim.ScheduleAfter(0, [] { RecordWrite("pc"); }, "child");
  }, "parent");
  sim.Run();
  det.Finalize();
  EXPECT_TRUE(det.reports().empty()) << (det.reports().empty()
                                             ? ""
                                             : det.reports()[0].Describe());
}

TEST(RaceDetectorTest, TransitiveAncestorClean) {
  // Grandparent -> parent -> child: the closure must order grandparent
  // against child even though no direct edge links them.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(10, [&sim] {
    RecordWrite("gc");
    sim.ScheduleAfter(0, [&sim] {
      sim.ScheduleAfter(0, [] { RecordWrite("gc"); }, "grandchild");
    }, "middle");
  }, "grandparent");
  sim.Run();
  det.Finalize();
  EXPECT_TRUE(det.reports().empty()) << (det.reports().empty()
                                             ? ""
                                             : det.reports()[0].Describe());
}

TEST(RaceDetectorTest, SiblingsOfCommonParentStillFlagged) {
  // Two children of the same parent have no order between EACH OTHER.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(10, [&sim] {
    sim.ScheduleAfter(0, [] { RecordWrite("sib"); }, "child-a");
    sim.ScheduleAfter(0, [] { RecordWrite("sib"); }, "child-b");
  }, "parent");
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u);
  EXPECT_EQ(det.reports()[0].tag_first, "child-a");
  EXPECT_EQ(det.reports()[0].tag_second, "child-b");
}

Task WriteThenAwait(Future<int> f) {
  RecordWrite("promise-cell");
  (void)co_await std::move(f);
}

TEST(RaceDetectorTest, PromiseCompletionEdgeClean) {
  // Event A starts a coroutine that writes the cell and suspends on a
  // future; sibling event B (no parent/child relation to A) completes the
  // promise, and the scheduled resume runs at the same timestamp. The
  // suspend-event -> resume-event edge contributed by the coroutine layer
  // is what orders A against the resume; without it this fixture would be
  // flagged as A-vs-resume.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  Promise<int> promise(&sim);
  sim.ScheduleAt(10, [&sim, &promise] {
    (void)sim;
    WriteThenAwait(promise.GetFuture());
  }, "suspender");
  sim.ScheduleAt(10, [&promise] {
    promise.Set(1);
  }, "completer");
  sim.Run();
  det.Finalize();
  EXPECT_TRUE(det.reports().empty()) << (det.reports().empty()
                                             ? ""
                                             : det.reports()[0].Describe());
}

Task AwaitThenWrite(Future<int> f) {
  (void)co_await std::move(f);
  RecordWrite("resume-cell");
}

TEST(RaceDetectorTest, ResumeVsUnrelatedSiblingFlagged) {
  // The resumed continuation is ordered after its suspender and its
  // completer — but NOT against an unrelated third event at the same time.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  Promise<int> promise(&sim);
  sim.ScheduleAt(10, [&promise] {
    AwaitThenWrite(promise.GetFuture());
  }, "suspender");
  sim.ScheduleAt(10, [&promise] { promise.Set(1); }, "completer");
  sim.ScheduleAt(10, [] { RecordWrite("resume-cell"); }, "bystander");
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u);
  EXPECT_EQ(det.reports()[0].tag_first, "bystander");
  EXPECT_EQ(det.reports()[0].tag_second, "future/resume");
}

TEST(RaceDetectorTest, SuppressionFiltersByPrefix) {
  Simulator sim;
  RaceDetector det;
  det.SuppressCellPrefix("noisy/");
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(3, [] {
    RecordWrite("noisy/counter");
    RecordWrite("quiet/state");
  });
  sim.ScheduleAt(3, [] {
    RecordWrite("noisy/counter");
    RecordWrite("quiet/state");
  });
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u);
  EXPECT_EQ(det.reports()[0].cell, "quiet/state");
}

TEST(RaceDetectorTest, DuplicateProvenancePairsDeduped) {
  // One report per (cell, tag, tag) provenance pair, not one per dynamic
  // occurrence: 8 racy pairs with identical provenance yield one report.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  for (int t = 1; t <= 8; ++t) {
    sim.ScheduleAt(t, [] { RecordWrite("dup"); }, "left");
    sim.ScheduleAt(t, [] { RecordWrite("dup"); }, "right");
  }
  sim.Run();
  det.Finalize();
  EXPECT_EQ(det.reports().size(), 1u);
}

TEST(RaceDetectorTest, UntaggedEventsReportSeqOnly) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  sim.ScheduleAt(2, [] { RecordWrite("u"); });
  sim.ScheduleAt(2, [] { RecordWrite("u"); });
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u);
  EXPECT_FALSE(det.reports()[0].Describe().empty());
}

TEST(RaceDetectorTest, DetachedHooksInert) {
  // Without a detector attached, Active() is false inside events and the
  // hook sites never construct cell names.
  Simulator sim;
  bool saw_active = false;
  sim.ScheduleAt(1, [&saw_active] { saw_active = race::Active(); });
  sim.Run();
  EXPECT_FALSE(saw_active);
}

TEST(RaceDetectorTest, KvStoreCellNamesCarryInstanceAndKey) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  kvstore::MultiVersionStore store;
  sim.ScheduleAt(4, [&store] {
    (void)store.Write("k", {{"a", "1"}});
  }, "writer-a");
  sim.ScheduleAt(4, [&store] {
    (void)store.Write("k", {{"a", "2"}});
  }, "writer-b");
  sim.Run();
  det.Finalize();
  ASSERT_EQ(det.reports().size(), 1u);
  const std::string expect =
      "kv/" + std::to_string(store.instance_id()) + "/k";
  EXPECT_EQ(det.reports()[0].cell, expect);
}

TEST(RaceDetectorTest, WalConflictIsReportedOnceOnItsStoreRow) {
  // The WAL is a view over store rows and records nothing of its own: a
  // same-time write and read of one log position surface once, on the
  // store row that holds the entry.
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  kvstore::MultiVersionStore store;
  wal::WriteAheadLog log(&store, "g");
  wal::LogEntry entry;
  entry.txns.emplace_back();
  sim.ScheduleAt(4, [&log, &entry] {
    ASSERT_TRUE(log.SetEntry(1, entry).ok());
  }, "set-entry");
  sim.ScheduleAt(4, [&log] { (void)log.HasEntry(1); }, "has-entry");
  sim.Run();
  det.Finalize();
  std::string all;
  for (const RaceDetector::Report& rep : det.reports()) {
    all += rep.Describe() + "\n";
  }
  ASSERT_EQ(det.reports().size(), 1u) << all;
  const RaceDetector::Report& r = det.reports()[0];
  EXPECT_EQ(r.cell, "kv/" + std::to_string(store.instance_id()) +
                        "/!log/g/000000000001");
  EXPECT_EQ(r.mask_first, RaceDetector::kReadBit | RaceDetector::kWriteBit);
  EXPECT_EQ(r.mask_second, RaceDetector::kReadBit);
}

/// Reports on `net/rng...` cells when two unrelated events at t = 5 each
/// send one call, the first on `a` and the second on `b` (null: the shared
/// stream), over a network with jitter and loss on.
std::vector<RaceDetector::Report> SameTimeDrawReports(net::DelayStream* a,
                                                      net::DelayStream* b) {
  Simulator sim;
  RaceDetector det;
  sim.AttachRaceDetector(&det);
  net::NetworkOptions options;
  options.latency_jitter = 0.1;
  options.loss_probability = 0.01;
  using StringNetwork = net::Network<std::string, std::string>;
  StringNetwork network(
      &sim, {{1000, 9000, 9000}, {9000, 1000, 9000}, {9000, 9000, 1000}},
      options);
  for (DcId dc = 0; dc < 3; ++dc) {
    network.RegisterEndpoint(
        dc, [](DcId, const std::string* request) -> Coro<std::string> {
          co_return *request;
        });
  }
  sim.ScheduleAt(5, [&network, a] { network.Call(0, 1, "a", a); },
                 "send-a");
  sim.ScheduleAt(5, [&network, b] { network.Call(0, 2, "b", b); },
                 "send-b");
  sim.Run();
  det.Finalize();
  std::vector<RaceDetector::Report> on_rng;
  for (const RaceDetector::Report& r : det.reports()) {
    if (r.cell.rfind("net/rng", 0) == 0) on_rng.push_back(r);
  }
  return on_rng;
}

TEST(RaceDetectorTest, SameTimeDrawsConflictOnlyOnASharedStream) {
  // Two same-microsecond sends on the network's shared stream draw their
  // loss and jitter in tie order: one conflict on net/rng. On two leg
  // streams (sibling legs of one cross commit) the draws are independent
  // and nothing is reported; on one leg stream they conflict on its cell.
  net::DelayStream leg_a(11);
  net::DelayStream leg_b(12);

  const std::vector<RaceDetector::Report> shared =
      SameTimeDrawReports(nullptr, nullptr);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0].cell, "net/rng");
  EXPECT_EQ(shared[0].tag_first, "send-a");
  EXPECT_EQ(shared[0].tag_second, "send-b");

  EXPECT_TRUE(SameTimeDrawReports(&leg_a, &leg_b).empty());

  const std::vector<RaceDetector::Report> one_leg =
      SameTimeDrawReports(&leg_a, &leg_a);
  ASSERT_EQ(one_leg.size(), 1u);
  EXPECT_EQ(one_leg[0].cell, "net/rng/11");
}

// --- real workload under the detector --------------------------------------

/// Runs the fixed-seed sharded (cross-group, 2PC) workload with a detector
/// attached and returns the reports. Jitter and loss stay at the cluster
/// defaults — the detector orders draws via the net/rng cells, so this is
/// where genuinely unordered same-time schedule pairs surface.
std::vector<RaceDetector::Report> RunShardedUnderDetector(
    const std::vector<std::string>& suppressions) {
  core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
  config.seed = 4242;
  core::Cluster cluster(config);
  RaceDetector det;
  for (const std::string& p : suppressions) det.SuppressCellPrefix(p);
  cluster.simulator()->AttachRaceDetector(&det);

  workload::RunnerConfig runner;
  runner.workload.num_attributes = 10;
  runner.workload.num_groups = 2;
  runner.workload.cross_fraction = 0.3;
  runner.workload.groups_per_cross_txn = 2;
  runner.total_txns = 16;
  runner.num_threads = 2;
  runner.stagger = 200 * kMillisecond;
  runner.seed = 99;
  const workload::RunStats stats = workload::RunExperiment(&cluster, runner);
  EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
  det.Finalize();
  return det.reports();
}

TEST(RaceDetectorWorkloadTest, ShardedWorkloadRaceFreeUnderSuppressions) {
  // The documented suppression set (design note D12):
  //  * net/rng, net/fault-rng — the shared draw streams: same-time draw
  //    order shifts delays/faults but every (seed, config) run is still a
  //    pure function of the schedule; shuffle-sweep configs silence these
  //    by construction (jitter = loss = 0) and the jittery slices document
  //    them as the expected divergence source.
  std::vector<RaceDetector::Report> reports =
      RunShardedUnderDetector({"net/rng", "net/fault-rng"});
  std::string all;
  for (const RaceDetector::Report& r : reports) all += r.Describe() + "\n";
  EXPECT_TRUE(reports.empty()) << reports.size() << " race report(s):\n"
                               << all;
}

// --- tie-shuffle -----------------------------------------------------------

std::vector<int> RunTies(uint64_t shuffle_seed, int n, TimeMicros at = 50,
                         TimeMicros horizon = Simulator::kMaxTimeMicros) {
  Simulator sim;
  if (shuffle_seed != 0) sim.SetTieShuffle(shuffle_seed, horizon);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    sim.ScheduleAt(at, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  return order;
}

TEST(TieShuffleTest, SeedZeroIsFifo) {
  const std::vector<int> order = RunTies(0, 12);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[i], i);
}

TEST(TieShuffleTest, ShuffleIsDeterministicPerSeed) {
  EXPECT_EQ(RunTies(7, 16), RunTies(7, 16));
  EXPECT_EQ(RunTies(1234567, 16), RunTies(1234567, 16));
}

TEST(TieShuffleTest, SomeSeedPermutesTies) {
  // At least one of a handful of seeds must produce a non-FIFO order over
  // 16 ties (all-identity across all seeds would mean the key is dead).
  bool permuted = false;
  for (uint64_t seed = 1; seed <= 5 && !permuted; ++seed) {
    const std::vector<int> order = RunTies(seed, 16);
    for (int i = 0; i < 16; ++i) {
      if (order[i] != i) permuted = true;
    }
  }
  EXPECT_TRUE(permuted);
}

TEST(TieShuffleTest, DistinctSeedsGiveDistinctPermutations) {
  bool differ = false;
  const std::vector<int> base = RunTies(1, 16);
  for (uint64_t seed = 2; seed <= 6 && !differ; ++seed) {
    if (RunTies(seed, 16) != base) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(TieShuffleTest, TimeOrderAlwaysRespected) {
  Simulator sim;
  sim.SetTieShuffle(99);
  std::vector<int> order;
  sim.ScheduleAt(30, [&order] { order.push_back(3); });
  sim.ScheduleAt(10, [&order] { order.push_back(1); });
  sim.ScheduleAt(20, [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TieShuffleTest, PermutationVariesByTimestamp) {
  // The per-time permutation must differ across timestamps for the same
  // seed (the time is mixed into the key, so ties at t=50 and ties at
  // t=60 draw independent permutations). Find a seed where they differ.
  bool differ = false;
  for (uint64_t seed = 1; seed <= 8 && !differ; ++seed) {
    if (RunTies(seed, 12, 50) != RunTies(seed, 12, 60)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(TieShuffleTest, HorizonBoundsShuffling) {
  // Ties at times >= horizon stay FIFO — the lever the divergence
  // minimizer uses to bisect for the first diverging timestamp.
  Simulator sim;
  sim.SetTieShuffle(7, /*horizon=*/100);
  std::vector<int> before, after;
  for (int i = 0; i < 12; ++i) {
    sim.ScheduleAt(150, [&after, i] { after.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 12; ++i) EXPECT_EQ(after[i], i);
}

TEST(TieShuffleTest, MidRunEnableReheapifies) {
  // Turning shuffling on from inside an event re-sorts already-queued
  // ties: with an identical schedule structure (same seqs), the mid-run
  // switch yields the same order as an always-on shuffle.
  std::vector<int> reference;
  {
    Simulator sim;
    sim.SetTieShuffle(7);
    sim.ScheduleAt(1, [] {});  // seq placeholder matching the switch event
    for (int i = 0; i < 10; ++i) {
      sim.ScheduleAt(50, [&reference, i] { reference.push_back(i); });
    }
    sim.Run();
  }
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1, [&sim] { sim.SetTieShuffle(7); });
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_NE(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(order, reference);
}

TEST(TieShuffleTest, ShuffleSeedAccessorReflectsState) {
  Simulator sim;
  EXPECT_EQ(sim.tie_shuffle_seed(), 0u);
  sim.SetTieShuffle(41);
  EXPECT_EQ(sim.tie_shuffle_seed(), 41u);
}

}  // namespace
}  // namespace paxoscp::sim
