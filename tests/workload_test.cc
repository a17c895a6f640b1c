// Tests for the workload generator and the experiment runner.
#include <gtest/gtest.h>

#include <set>

#include "fault/fault_plan.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace paxoscp::workload {
namespace {

TEST(GeneratorTest, DeterministicFromSeed) {
  WorkloadConfig config;
  Generator a(config, 5), b(config, 5);
  for (int i = 0; i < 20; ++i) {
    auto ops_a = a.NextTxnOps();
    auto ops_b = b.NextTxnOps();
    ASSERT_EQ(ops_a.size(), ops_b.size());
    for (size_t j = 0; j < ops_a.size(); ++j) {
      EXPECT_EQ(ops_a[j].is_read, ops_b[j].is_read);
      EXPECT_EQ(ops_a[j].attribute, ops_b[j].attribute);
      EXPECT_EQ(ops_a[j].value, ops_b[j].value);
    }
  }
}

TEST(GeneratorTest, SingleGroupPlanIsTheOpsDraw) {
  WorkloadConfig config;
  Generator planner(config, 6), drawer(config, 6);
  for (int i = 0; i < 20; ++i) {
    const TxnPlan plan = planner.NextTxnPlan();
    EXPECT_FALSE(plan.cross);
    EXPECT_EQ(plan.groups, std::vector<int>{0});
    const std::vector<Op> ops = drawer.NextTxnOps();
    ASSERT_EQ(plan.ops.size(), ops.size());
    for (size_t j = 0; j < ops.size(); ++j) {
      EXPECT_EQ(plan.ops[j].is_read, ops[j].is_read);
      EXPECT_EQ(plan.ops[j].attribute, ops[j].attribute);
      EXPECT_EQ(plan.ops[j].value, ops[j].value);
      EXPECT_EQ(plan.ops[j].group, 0);
    }
  }
}

TEST(GeneratorTest, OpsPerTxnRespected) {
  WorkloadConfig config;
  config.ops_per_txn = 7;
  Generator generator(config, 1);
  EXPECT_EQ(generator.NextTxnOps().size(), 7u);
}

TEST(GeneratorTest, ReadFractionApproximatelyHolds) {
  WorkloadConfig config;
  config.ops_per_txn = 10;
  config.read_fraction = 0.5;
  Generator generator(config, 2);
  int reads = 0, total = 0;
  for (int i = 0; i < 1000; ++i) {
    for (const Op& op : generator.NextTxnOps()) {
      reads += op.is_read ? 1 : 0;
      ++total;
    }
  }
  EXPECT_NEAR(double(reads) / total, 0.5, 0.03);
}

TEST(GeneratorTest, AttributesStayInRange) {
  WorkloadConfig config;
  config.num_attributes = 20;
  Generator generator(config, 3);
  std::set<std::string> valid;
  for (int i = 0; i < 20; ++i) valid.insert(Generator::AttributeName(i));
  for (int i = 0; i < 200; ++i) {
    for (const Op& op : generator.NextTxnOps()) {
      EXPECT_TRUE(valid.count(op.attribute)) << op.attribute;
    }
  }
}

TEST(GeneratorTest, WritesCarryValuesReadsDoNot) {
  Generator generator(WorkloadConfig{}, 4);
  for (int i = 0; i < 50; ++i) {
    for (const Op& op : generator.NextTxnOps()) {
      if (op.is_read) {
        EXPECT_TRUE(op.value.empty());
      } else {
        EXPECT_EQ(op.value.size(), 16u);
      }
    }
  }
}

TEST(GeneratorTest, InitialRowCoversAllAttributes) {
  WorkloadConfig config;
  config.num_attributes = 33;
  Generator generator(config, 5);
  auto row = generator.InitialRow();
  EXPECT_EQ(row.size(), 33u);
  EXPECT_TRUE(row.count("a0"));
  EXPECT_TRUE(row.count("a32"));
}

// ------------------------------------------------------------------ runner

RunnerConfig SmallRun(txn::Protocol protocol) {
  RunnerConfig config;
  config.total_txns = 40;
  config.num_threads = 4;
  config.stagger = 100 * kMillisecond;
  config.target_rate_tps = 4;
  config.workload.num_attributes = 50;
  config.client.protocol = protocol;
  config.seed = 77;
  return config;
}

TEST(RunnerTest, CompletesAndChecksInvariants) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  RunStats stats = RunExperiment(cluster, SmallRun(txn::Protocol::kPaxosCP));
  EXPECT_TRUE(stats.all_threads_finished);
  EXPECT_EQ(stats.attempted, 40);
  EXPECT_EQ(stats.attempted,
            stats.committed + stats.read_only + stats.aborted + stats.failed);
  EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
  EXPECT_EQ(stats.outcomes.size(), 40u);
  EXPECT_GT(stats.messages_sent, 0u);
}

TEST(RunnerTest, CommitRateDefinitionsAgree) {
  // Regression for the old inconsistency where RunStats::CommitRate()
  // excluded read-only commits while WindowCounts::CommitRate() included
  // them: both now share one definition, (committed + read_only) /
  // attempted, and the windowed counts must reaggregate to the whole-run
  // numbers.
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  RunnerConfig config = SmallRun(txn::Protocol::kPaxosCP);
  config.availability_window = 2 * kSecond;
  RunStats stats = RunExperiment(cluster, config);

  WindowCounts total;
  for (const WindowCounts& w : stats.windows) {
    total.attempted += w.attempted;
    total.committed += w.committed;
    total.read_only += w.read_only;
    total.aborted += w.aborted;
    total.unavailable += w.unavailable;
  }
  EXPECT_EQ(total.attempted, stats.attempted);
  EXPECT_EQ(total.committed, stats.committed);
  EXPECT_EQ(total.read_only, stats.read_only);
  EXPECT_EQ(total.aborted, stats.aborted);
  EXPECT_EQ(total.unavailable, stats.failed);
  EXPECT_DOUBLE_EQ(total.CommitRate(), stats.CommitRate());
  // The read/write-only variant differs whenever read-only commits exist.
  EXPECT_LE(stats.ReadWriteCommitRate(), 1.0);
}

/// Every tally of `stats` against the run totals: each attempt lands in
/// exactly one outcome bucket of the run, of its window, of its datacenter
/// and (when committed) of its promotion round and latency histograms.
void ExpectOneTally(const RunStats& stats) {
  EXPECT_EQ(stats.attempted,
            stats.committed + stats.read_only + stats.aborted + stats.failed);
  EXPECT_EQ(stats.cross_attempted,
            stats.cross_committed + stats.cross_aborted + stats.cross_unknown +
                stats.cross_unavailable);

  WindowCounts total;
  for (const WindowCounts& w : stats.windows) {
    EXPECT_EQ(w.attempted,
              w.committed + w.read_only + w.aborted + w.unavailable);
    total.attempted += w.attempted;
    total.committed += w.committed;
    total.read_only += w.read_only;
    total.aborted += w.aborted;
    total.unavailable += w.unavailable;
  }
  EXPECT_EQ(total.attempted, stats.attempted);
  EXPECT_EQ(total.committed, stats.committed);
  EXPECT_EQ(total.read_only, stats.read_only);
  EXPECT_EQ(total.aborted, stats.aborted);
  EXPECT_EQ(total.unavailable, stats.failed);

  int attempted_by_dc = 0, committed_by_dc = 0, by_round = 0;
  for (const auto& [dc, n] : stats.attempted_by_dc) attempted_by_dc += n;
  for (const auto& [dc, n] : stats.committed_by_dc) committed_by_dc += n;
  for (int n : stats.commits_by_round) by_round += n;
  EXPECT_EQ(attempted_by_dc, stats.attempted);
  EXPECT_EQ(committed_by_dc, stats.committed);
  EXPECT_EQ(by_round, stats.committed);

  EXPECT_EQ(stats.latency_committed.count(),
            static_cast<uint64_t>(stats.committed));
  EXPECT_EQ(stats.latency_cross.count(),
            static_cast<uint64_t>(stats.cross_committed));
  EXPECT_EQ(stats.latency_cross_decision.count(),
            static_cast<uint64_t>(stats.cross_committed));
  EXPECT_EQ(stats.latency_single_multi.count(),
            static_cast<uint64_t>(stats.committed - stats.cross_committed));
  EXPECT_EQ(stats.latency_aborted.count(),
            static_cast<uint64_t>(stats.aborted));
}

TEST(RunnerTest, ShardedRunCountsEveryAttemptOnce) {
  // A contended 3-group run, 40% cross-group, one client thread per
  // datacenter, with dc2 down longer than a begin's failover takes (its
  // client's begins fail); then the same run with coordinators that crash
  // after their first prepare (unknown outcomes).
  RunnerConfig config = SmallRun(txn::Protocol::kPaxosCP);
  config.total_txns = 60;
  config.num_threads = 3;
  config.thread_dcs = {0, 1, 2};
  config.workload.num_attributes = 8;
  config.workload.num_groups = 3;
  config.workload.cross_fraction = 0.4;
  config.workload.groups_per_cross_txn = 2;
  config.availability_window = 2 * kSecond;

  RunStats runs[2];
  for (int crash = 0; crash < 2; ++crash) {
    core::ClusterConfig cluster_config = *core::ClusterConfig::FromCode("VVV");
    cluster_config.seed = 13;
    core::Cluster cluster(cluster_config);
    fault::FaultPlan plan;
    plan.events.push_back(
        {2 * kSecond, fault::FaultKind::kDatacenterDown, 2, kNoDc, 0});
    plan.events.push_back(
        {20 * kSecond, fault::FaultKind::kDatacenterUp, 2, kNoDc, 0});
    cluster.ApplyFaultPlan(plan);
    config.client.crash_after_prepares = crash == 0 ? -1 : 1;
    runs[crash] = RunExperiment(&cluster, config);
    const RunStats& stats = runs[crash];
    EXPECT_TRUE(stats.all_threads_finished);
    EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
    EXPECT_EQ(stats.attempted, 60);
    ExpectOneTally(stats);
  }
  // Every bucket the identities above add up is exercised.
  auto some = [&runs](int RunStats::*field) {
    return runs[0].*field > 0 || runs[1].*field > 0;
  };
  EXPECT_TRUE(some(&RunStats::committed));
  EXPECT_TRUE(some(&RunStats::aborted));
  EXPECT_TRUE(some(&RunStats::failed));
  EXPECT_TRUE(some(&RunStats::cross_committed));
  EXPECT_TRUE(some(&RunStats::cross_unavailable));
  EXPECT_TRUE(some(&RunStats::cross_unknown));
}

TEST(RunnerTest, DeterministicAcrossRuns) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  RunStats a = RunExperiment(cluster, SmallRun(txn::Protocol::kPaxosCP));
  RunStats b = RunExperiment(cluster, SmallRun(txn::Protocol::kPaxosCP));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.commits_by_round, b.commits_by_round);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.virtual_duration, b.virtual_duration);
}

TEST(RunnerTest, SeedChangesOutcome) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  RunnerConfig config = SmallRun(txn::Protocol::kPaxosCP);
  RunStats a = RunExperiment(cluster, config);
  config.seed = 78;
  RunStats b = RunExperiment(cluster, config);
  // Different workloads: virtual durations virtually never coincide.
  EXPECT_NE(a.virtual_duration, b.virtual_duration);
}

TEST(RunnerTest, CpCommitsAtLeastAsManyAsBasic) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  RunStats basic =
      RunExperiment(cluster, SmallRun(txn::Protocol::kBasicPaxos));
  RunStats cp = RunExperiment(cluster, SmallRun(txn::Protocol::kPaxosCP));
  EXPECT_TRUE(basic.check.ok);
  EXPECT_TRUE(cp.check.ok);
  EXPECT_GE(cp.committed, basic.committed);
  // Basic Paxos never promotes.
  EXPECT_EQ(basic.max_promotions, 0);
}

TEST(RunnerTest, MaxPromotionsAreKeptForCommitsAndAbortsApart) {
  // A contended Paxos-CP run: max_promotions is the highest promotion round
  // a commit landed in, and max_promotions_aborted the most promotions an
  // attempt made before a conflict aborted it (paper §6: none beyond
  // seven). Basic Paxos never promotes, whatever the outcome.
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  RunnerConfig config = SmallRun(txn::Protocol::kPaxosCP);
  config.total_txns = 80;
  config.workload.num_attributes = 8;
  const RunStats cp = RunExperiment(cluster, config);
  EXPECT_TRUE(cp.check.ok) << cp.check.ToString();
  EXPECT_GT(cp.aborted, 0);
  EXPECT_EQ(cp.max_promotions,
            static_cast<int>(cp.commits_by_round.size()) - 1);
  EXPECT_EQ(cp.max_promotions, 2);
  EXPECT_EQ(cp.max_promotions_aborted, 1);

  config.client.protocol = txn::Protocol::kBasicPaxos;
  const RunStats basic = RunExperiment(cluster, config);
  EXPECT_GT(basic.aborted, 0);
  EXPECT_EQ(basic.max_promotions, 0);
  EXPECT_EQ(basic.max_promotions_aborted, 0);
}

TEST(RunnerTest, PerThreadHomesRouteClients) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VOC");
  cluster.seed = 19;
  RunnerConfig config = SmallRun(txn::Protocol::kPaxosCP);
  config.num_threads = 3;
  config.thread_dcs = {0, 1, 2};
  RunStats stats = RunExperiment(cluster, config);
  EXPECT_TRUE(stats.all_threads_finished);
  EXPECT_EQ(stats.attempted_by_dc.size(), 3u);
  for (auto& [dc, attempted] : stats.attempted_by_dc) {
    EXPECT_GT(attempted, 0) << "dc " << dc;
  }
}

TEST(RunnerTest, SurvivesMessageLoss) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode("VVV");
  cluster.seed = 13;
  cluster.loss_probability = 0.05;
  RunStats stats = RunExperiment(cluster, SmallRun(txn::Protocol::kPaxosCP));
  EXPECT_TRUE(stats.all_threads_finished);
  EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
  EXPECT_GT(stats.committed, 0);
}

}  // namespace
}  // namespace paxoscp::workload
