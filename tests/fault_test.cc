// Unit tests for the fault-injection subsystem (src/fault/): plan
// normalization, the random generator's envelope guarantees (matched
// heal events, concurrency cap, heal gaps, determinism), the injector's
// timing, and Transaction Service restarts through the cluster.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/checker.h"
#include "core/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "net/network.h"
#include "sim/coro.h"
#include "txn/txn.h"
#include "workload/runner.h"

namespace paxoscp::fault {
namespace {

PlanEnvelope SmallEnvelope(int dcs = 3) {
  PlanEnvelope envelope;
  envelope.num_datacenters = dcs;
  envelope.first_fault = 1 * kSecond;
  envelope.horizon = 10 * kSecond;
  envelope.min_episodes = 2;
  envelope.max_episodes = 4;
  return envelope;
}

TEST(FaultPlanTest, NormalizeSortsByTimeStably) {
  FaultPlan plan;
  plan.events.push_back({5 * kSecond, FaultKind::kDatacenterUp, 1, kNoDc, 0});
  plan.events.push_back({1 * kSecond, FaultKind::kDatacenterDown, 1, kNoDc, 0});
  plan.events.push_back({1 * kSecond, FaultKind::kLossBurst, kNoDc, kNoDc, .2});
  plan.Normalize();
  EXPECT_EQ(plan.events[0].kind, FaultKind::kDatacenterDown);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kLossBurst);  // stable at t=1s
  EXPECT_EQ(plan.events[2].kind, FaultKind::kDatacenterUp);
}

TEST(FaultPlanTest, ToStringIsOneReplayableLinePerEvent) {
  FaultPlan plan;
  plan.events.push_back({1500 * kMillisecond, FaultKind::kLinkOneWayDown,
                         0, 2, 0});
  plan.events.push_back({2 * kSecond, FaultKind::kLossBurst, kNoDc, kNoDc,
                         0.25});
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("t=1.500s oneway_down 0->2"), std::string::npos) << s;
  EXPECT_NE(s.find("t=2.000s loss_burst p=0.250"), std::string::npos) << s;
}

TEST(RandomPlanGeneratorTest, SameSeedSamePlanDifferentSeedDiverges) {
  RandomPlanGenerator a(SmallEnvelope(), 123), b(SmallEnvelope(), 123);
  RandomPlanGenerator c(SmallEnvelope(), 124);
  const FaultPlan pa = a.Generate(), pb = b.Generate(), pc = c.Generate();
  EXPECT_EQ(pa.ToString(), pb.ToString());
  // Consecutive draws from one generator also replay identically.
  EXPECT_EQ(a.Generate().ToString(), b.Generate().ToString());
  EXPECT_NE(pa.ToString(), pc.ToString());
}

/// Replays a plan's events, checking envelope guarantees hold throughout.
void ValidateAgainstEnvelope(const FaultPlan& plan,
                             const PlanEnvelope& envelope) {
  std::set<DcId> down_dcs;
  std::map<std::pair<DcId, DcId>, int> cut_links;  // directed
  bool loss_active = false;
  bool duplicate_active = false;
  bool reorder_active = false;
  int max_concurrent = 0;
  TimeMicros previous = 0;
  for (const FaultEvent& e : plan.events) {
    ASSERT_GE(e.at, previous) << "events out of order";
    previous = e.at;
    ASSERT_GE(e.at, envelope.first_fault);
    ASSERT_LE(e.at, envelope.first_fault + envelope.horizon +
                        envelope.max_duration);
    switch (e.kind) {
      case FaultKind::kDatacenterDown:
        ASSERT_TRUE(down_dcs.insert(e.a).second) << "double down on " << e.a;
        break;
      case FaultKind::kDatacenterUp:
        ASSERT_EQ(down_dcs.erase(e.a), 1u) << "up without down on " << e.a;
        break;
      case FaultKind::kLinkDown:
        ++cut_links[{e.a, e.b}];
        ++cut_links[{e.b, e.a}];
        break;
      case FaultKind::kLinkUp: {
        const int forward = cut_links[{e.a, e.b}]--;
        const int backward = cut_links[{e.b, e.a}]--;
        ASSERT_GT(forward, 0);
        ASSERT_GT(backward, 0);
        break;
      }
      case FaultKind::kLinkOneWayDown:
        ++cut_links[{e.a, e.b}];
        break;
      case FaultKind::kLinkOneWayUp: {
        const int forward = cut_links[{e.a, e.b}]--;
        ASSERT_GT(forward, 0);
        break;
      }
      case FaultKind::kLossBurst:
        ASSERT_FALSE(loss_active) << "overlapping loss bursts";
        ASSERT_GE(e.loss, envelope.min_loss_burst);
        ASSERT_LE(e.loss, envelope.max_loss_burst);
        loss_active = true;
        break;
      case FaultKind::kLossRestore:
        ASSERT_TRUE(loss_active);
        loss_active = false;
        break;
      case FaultKind::kDuplicateBurst:
        ASSERT_FALSE(duplicate_active) << "overlapping duplicate bursts";
        ASSERT_GE(e.loss, envelope.min_duplicate_burst);
        ASSERT_LE(e.loss, envelope.max_duplicate_burst);
        duplicate_active = true;
        break;
      case FaultKind::kDuplicateRestore:
        ASSERT_TRUE(duplicate_active);
        duplicate_active = false;
        break;
      case FaultKind::kReorderBurst:
        ASSERT_FALSE(reorder_active) << "overlapping reorder bursts";
        ASSERT_GE(e.loss, envelope.min_reorder_burst);
        ASSERT_LE(e.loss, envelope.max_reorder_burst);
        ASSERT_GT(e.extra, 0);
        ASSERT_LE(e.extra, envelope.max_reorder_extra);
        reorder_active = true;
        break;
      case FaultKind::kReorderRestore:
        ASSERT_TRUE(reorder_active);
        reorder_active = false;
        break;
      case FaultKind::kServiceRestart:
        break;
    }
    if (e.a != kNoDc) {
      ASSERT_GE(e.a, 0);
      ASSERT_LT(e.a, envelope.num_datacenters);
    }
    if (e.b != kNoDc) {
      ASSERT_GE(e.b, 0);
      ASSERT_LT(e.b, envelope.num_datacenters);
    }
    max_concurrent =
        std::max(max_concurrent, static_cast<int>(down_dcs.size()));
  }
  // Every fault healed within the plan.
  EXPECT_TRUE(down_dcs.empty());
  EXPECT_FALSE(loss_active);
  EXPECT_FALSE(duplicate_active);
  EXPECT_FALSE(reorder_active);
  for (const auto& [link, count] : cut_links) EXPECT_EQ(count, 0);
  EXPECT_LE(max_concurrent, envelope.max_concurrent_dc_outages);
}

TEST(RandomPlanGeneratorTest, PlansRespectTheEnvelope) {
  for (int dcs : {2, 3, 5}) {
    RandomPlanGenerator generator(SmallEnvelope(dcs), 7);
    for (int i = 0; i < 200; ++i) {
      const FaultPlan plan = generator.Generate();
      ValidateAgainstEnvelope(plan, generator.envelope());
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "offending plan (dcs=" << dcs << ", draw " << i
                      << "):\n" << plan.ToString();
        return;
      }
    }
  }
}

TEST(RandomPlanGeneratorTest, HealGapSeparatesEpisodesOnOneResource) {
  PlanEnvelope envelope = SmallEnvelope();
  // Force every episode onto the same resource so the gap must bind.
  envelope.allow_link_cut = envelope.allow_oneway_cut = false;
  envelope.allow_bisection = envelope.allow_loss_burst = false;
  envelope.allow_service_restart = false;
  envelope.num_datacenters = 1;  // single dc => single outage resource
  envelope.min_episodes = envelope.max_episodes = 4;
  RandomPlanGenerator generator(envelope, 3);
  for (int i = 0; i < 100; ++i) {
    const FaultPlan plan = generator.Generate();
    TimeMicros last_up = -1;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kDatacenterDown && last_up >= 0) {
        EXPECT_GE(e.at - last_up, envelope.min_heal_gap) << plan.ToString();
      }
      if (e.kind == FaultKind::kDatacenterUp) last_up = e.at;
    }
  }
}

TEST(RandomPlanGeneratorTest, AllShapesDisabledYieldsEmptyPlan) {
  PlanEnvelope envelope = SmallEnvelope();
  envelope.allow_dc_outage = envelope.allow_link_cut = false;
  envelope.allow_oneway_cut = envelope.allow_bisection = false;
  envelope.allow_loss_burst = envelope.allow_service_restart = false;
  RandomPlanGenerator generator(envelope, 1);
  EXPECT_TRUE(generator.Generate().events.empty());
}

// ---- Adversarial delivery faults (D10) -----------------------------------

TEST(FaultPlanTest, DeliveryFaultEventsPrintReplayableLines) {
  FaultPlan plan;
  plan.events.push_back(
      {1 * kSecond, FaultKind::kDuplicateBurst, kNoDc, kNoDc, 0.25});
  plan.events.push_back({2 * kSecond, FaultKind::kReorderBurst, kNoDc, kNoDc,
                         0.125, 500 * kMillisecond});
  plan.events.push_back(
      {3 * kSecond, FaultKind::kDuplicateRestore, kNoDc, kNoDc, 0});
  plan.events.push_back(
      {4 * kSecond, FaultKind::kReorderRestore, kNoDc, kNoDc, 0});
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("t=1.000s duplicate_burst p=0.250"), std::string::npos) << s;
  EXPECT_NE(s.find("t=2.000s reorder_burst p=0.125 extra=0.500s"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("t=3.000s duplicate_restore"), std::string::npos) << s;
  EXPECT_NE(s.find("t=4.000s reorder_restore"), std::string::npos) << s;
}

TEST(RandomPlanGeneratorTest, DeliveryFaultShapesRespectTheEnvelope) {
  PlanEnvelope envelope = SmallEnvelope();
  envelope.allow_duplicate_burst = true;
  envelope.allow_reorder_burst = true;
  RandomPlanGenerator generator(envelope, 17);
  bool saw_duplicate = false, saw_reorder = false;
  for (int i = 0; i < 300; ++i) {
    const FaultPlan plan = generator.Generate();
    ValidateAgainstEnvelope(plan, generator.envelope());
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "offending plan (draw " << i << "):\n"
                    << plan.ToString();
      return;
    }
    for (const FaultEvent& e : plan.events) {
      saw_duplicate |= e.kind == FaultKind::kDuplicateBurst;
      saw_reorder |= e.kind == FaultKind::kReorderBurst;
    }
  }
  EXPECT_TRUE(saw_duplicate) << "sweep never drew a duplicate burst";
  EXPECT_TRUE(saw_reorder) << "sweep never drew a reorder burst";
}

TEST(RandomPlanGeneratorTest, DeliveryFaultShapesAreOffByDefault) {
  // Historical (seed, envelope) pairs must replay to the exact same plans:
  // the new shapes are appended after the originals and gated behind allow
  // flags that default to false, so a default envelope never draws them.
  RandomPlanGenerator generator(SmallEnvelope(), 99);
  for (int i = 0; i < 200; ++i) {
    for (const FaultEvent& e : generator.Generate().events) {
      EXPECT_NE(e.kind, FaultKind::kDuplicateBurst);
      EXPECT_NE(e.kind, FaultKind::kReorderBurst);
    }
  }
}

TEST(FaultInjectorTest, DeliveryFaultBurstsApplyAndRestoreBaselines) {
  sim::Simulator sim;
  std::vector<std::vector<TimeMicros>> rtt(2,
                                           std::vector<TimeMicros>(2, 1000));
  net::NetworkOptions options;
  options.duplicate_probability = 0.01;  // non-zero baselines must return
  options.reorder_probability = 0.02;
  options.reorder_extra_max = 40 * kMillisecond;
  net::NetworkBase network(&sim, rtt, options);

  FaultPlan plan;
  plan.events.push_back(
      {1 * kSecond, FaultKind::kDuplicateBurst, kNoDc, kNoDc, 0.5});
  plan.events.push_back({2 * kSecond, FaultKind::kReorderBurst, kNoDc, kNoDc,
                         0.25, 300 * kMillisecond});
  plan.events.push_back(
      {3 * kSecond, FaultKind::kDuplicateRestore, kNoDc, kNoDc, 0});
  plan.events.push_back(
      {4 * kSecond, FaultKind::kReorderRestore, kNoDc, kNoDc, 0});

  FaultInjector injector(&network);
  injector.Arm(plan);

  auto probe = [&](TimeMicros at, std::function<void()> check) {
    sim.ScheduleAt(at + kMillisecond, std::move(check));
  };
  probe(1 * kSecond, [&] { EXPECT_EQ(network.duplicate_probability(), 0.5); });
  probe(2 * kSecond, [&] {
    EXPECT_EQ(network.reorder_probability(), 0.25);
    EXPECT_EQ(network.reorder_extra_max(), 300 * kMillisecond);
  });
  probe(3 * kSecond,
        [&] { EXPECT_EQ(network.duplicate_probability(), 0.01); });
  probe(4 * kSecond, [&] {
    EXPECT_EQ(network.reorder_probability(), 0.02);
    EXPECT_EQ(network.reorder_extra_max(), 40 * kMillisecond);
  });
  sim.Run();
  EXPECT_EQ(injector.events_applied(), 4);
}

TEST(FaultInjectorTest, AppliesEventsAtScheduledTimes) {
  sim::Simulator sim;
  std::vector<std::vector<TimeMicros>> rtt(3,
                                           std::vector<TimeMicros>(3, 1000));
  net::NetworkOptions options;
  options.loss_probability = 0.01;
  net::NetworkBase network(&sim, rtt, options);

  FaultPlan plan;
  plan.events.push_back({1 * kSecond, FaultKind::kDatacenterDown, 1, kNoDc, 0});
  plan.events.push_back({2 * kSecond, FaultKind::kLossBurst, kNoDc, kNoDc, .5});
  plan.events.push_back({3 * kSecond, FaultKind::kDatacenterUp, 1, kNoDc, 0});
  plan.events.push_back({4 * kSecond, FaultKind::kLossRestore, kNoDc, kNoDc, 0});
  plan.events.push_back({5 * kSecond, FaultKind::kLinkOneWayDown, 0, 2, 0});
  plan.events.push_back({6 * kSecond, FaultKind::kLinkOneWayUp, 0, 2, 0});

  FaultInjector injector(&network);
  injector.Arm(plan);

  auto probe = [&](TimeMicros at, std::function<void()> check) {
    sim.ScheduleAt(at + kMillisecond, std::move(check));
  };
  probe(1 * kSecond, [&] { EXPECT_TRUE(network.IsDatacenterDown(1)); });
  probe(2 * kSecond, [&] { EXPECT_EQ(network.loss_probability(), 0.5); });
  probe(3 * kSecond, [&] { EXPECT_FALSE(network.IsDatacenterDown(1)); });
  probe(4 * kSecond, [&] { EXPECT_EQ(network.loss_probability(), 0.01); });
  probe(5 * kSecond, [&] {
    EXPECT_TRUE(network.IsLinkDown(0, 2));
    EXPECT_FALSE(network.IsLinkDown(2, 0));  // asymmetric
  });
  probe(6 * kSecond, [&] { EXPECT_FALSE(network.IsLinkDown(0, 2)); });
  sim.Run();
  EXPECT_EQ(injector.events_applied(), 6);
}

sim::Task CommitOne(txn::Session* session, int value, bool* committed) {
  txn::Txn txn = co_await session->Begin("g");
  if (!txn.active()) co_return;
  (void)txn.Write("r", "a", std::to_string(value));
  txn::CommitResult result = co_await txn.Commit();
  *committed = result.committed;
}

TEST(ServiceRestartTest, RestartRecoversDurableStateFromTheStore) {
  core::Cluster cluster(*core::ClusterConfig::FromCode("VVV"));
  ASSERT_TRUE(cluster.LoadInitialRow("g", "r", {{"a", "0"}}).ok());
  txn::Session session = cluster.CreateSession(0);

  bool first = false;
  CommitOne(&session, 1, &first);
  cluster.RunToCompletion();
  ASSERT_TRUE(first);
  const LogPos decided_before =
      cluster.service(0)->GroupLog("g")->MaxDecided();
  ASSERT_GT(decided_before, 0u);

  // Restart every service: the replacements must see the same logs (all
  // durable state lives in the store; services are stateless).
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    txn::TransactionService* before = cluster.service(dc);
    cluster.RestartService(dc);
    EXPECT_NE(cluster.service(dc), before);
  }
  EXPECT_EQ(cluster.service(0)->GroupLog("g")->MaxDecided(), decided_before);

  // And the cluster keeps committing through the restarted services.
  bool second = false;
  CommitOne(&session, 2, &second);
  cluster.RunToCompletion();
  EXPECT_TRUE(second);

  core::Checker checker(&cluster);
  EXPECT_TRUE(checker.CheckAllCross({"g"}, {}).ok);
}

TEST(ServiceRestartTest, MidRunRestartViaFaultPlanKeepsInvariants) {
  core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
  config.seed = 5;
  core::Cluster cluster(config);

  FaultPlan plan;
  for (DcId dc = 0; dc < 3; ++dc) {
    plan.events.push_back({(2 + dc) * kSecond, FaultKind::kServiceRestart,
                           dc, kNoDc, 0});
  }
  FaultInjector* injector = cluster.ApplyFaultPlan(plan);

  workload::RunnerConfig runner;
  runner.total_txns = 20;
  runner.num_threads = 2;
  runner.target_rate_tps = 2.0;
  runner.seed = 9;
  workload::RunStats stats = workload::RunExperiment(&cluster, runner);
  EXPECT_EQ(injector->events_applied(), 3);
  EXPECT_TRUE(stats.all_threads_finished);
  EXPECT_GT(stats.committed, 0);
  EXPECT_TRUE(stats.check.ok) << stats.check.ToString();
}

}  // namespace
}  // namespace paxoscp::fault
