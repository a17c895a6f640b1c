// Chaos / model-checking harness: sweeps many seeded random fault plans
// (datacenter outages, link partitions incl. one-way cuts and bisections,
// loss bursts, service restarts) over real workload runs, and requires the
// full invariant checker (R1, L1-L3, MVSG acyclicity) to pass on every
// explored schedule. Serializability must survive every fault schedule the
// envelope can draw; availability may legitimately dip (that is what the
// unknown/unavailable accounting is for).
//
// Every run is a pure function of its seed: the seed derives the cluster
// shape, the cluster seed, the fault plan, the protocol, and the workload
// seed, so any failure replays bit-identically.
//
// Environment knobs (set by ctest; see CMakeLists.txt):
//   PAXOSCP_CHAOS_SEEDS      number of (seed, plan) runs     (default 25)
//   PAXOSCP_CHAOS_SEED_BASE  first seed of the sweep         (default 1000)
//   PAXOSCP_CHAOS_REPLAY     replay exactly this seed, verbosely
//   PAXOSCP_CHAOS_GOLDEN     file of the sweeps' expected summary lines
//                            (tests/golden/<registration>.txt)
//
// Each sweep's summary line must equal its line in the golden file, so a
// change that moves any total shows as a diff. A change meant to move them
// rewrites the lines with PAXOSCP_CHAOS_GOLDEN_UPDATE=1 (for both
// registrations: PAXOSCP_CHAOS_GOLDEN_UPDATE=1 ctest -R '^chaos_test') and
// says why in CHANGES.md.
//
// On any violation the harness writes chaos_failure_seed<seed>.txt (seed,
// cluster, protocol, fault plan, checker report) into the working directory
// — CI uploads these as artifacts — and the failure message names the
// replay command.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "workload/runner.h"

namespace paxoscp {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Prints a sweep's summary line and compares it with the line of the same
/// sweep (the text up to the first ':') in the PAXOSCP_CHAOS_GOLDEN file,
/// or writes it there under PAXOSCP_CHAOS_GOLDEN_UPDATE=1. Nothing is
/// compared when no golden is named (a direct run) or one seed is replayed.
__attribute__((format(printf, 2, 3))) void ReportSweep(bool replay,
                                                       const char* format,
                                                       ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  const std::string line = buffer;
  std::printf("%s\n", line.c_str());
  const char* path = std::getenv("PAXOSCP_CHAOS_GOLDEN");
  if (replay || path == nullptr || *path == '\0') return;
  const std::string sweep = line.substr(0, line.find(':') + 1);
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  auto it = std::find_if(lines.begin(), lines.end(), [&](const auto& l) {
    return l.compare(0, sweep.size(), sweep) == 0;
  });
  if (EnvOr("PAXOSCP_CHAOS_GOLDEN_UPDATE", 0) != 0) {
    if (it == lines.end()) {
      lines.push_back(line);
    } else {
      *it = line;
    }
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& l : lines) out << l << "\n";
    return;
  }
  if (it == lines.end() || *it != line) {
    ADD_FAILURE() << "sweep totals differ from " << path << ":\n-"
                  << (it == lines.end() ? "(no line for this sweep)" : *it)
                  << "\n+" << line << "\nif the change is meant to move "
                  << "them: PAXOSCP_CHAOS_GOLDEN_UPDATE=1 ctest -R "
                  << "'^chaos_test'";
  }
}

struct ChaosResult {
  uint64_t seed = 0;
  std::string cluster_code;
  txn::Protocol protocol = txn::Protocol::kPaxosCP;
  fault::FaultPlan plan;
  workload::RunStats stats;
  int unknown_in_log = 0;   // client never learned; txn decided anyway
  int unknown_absent = 0;   // client never learned; txn never decided
  /// Pending prepares left on ANY replica of ANY group after the run and
  /// its quiesce finished. The daemon slice additionally requires
  /// stats.quiesce_pending == 0: nothing was left for the quiesce to heal.
  int pending_after = 0;

  bool ok() const { return stats.check.ok && stats.all_threads_finished; }

  std::string Describe() const {
    std::string out = "seed=" + std::to_string(seed) + " cluster=" +
                      cluster_code + " protocol=" +
                      txn::ProtocolName(protocol) + "\nfault plan:\n" +
                      (plan.events.empty() ? std::string("  (none)\n")
                                           : plan.ToString()) +
                      "checker: " + stats.check.ToString() + "\n";
    return out;
  }
};

/// One chaos run, a pure function of (seed, envelope shaping,
/// max_rounds_per_position). The default round cap means clients outlast
/// every fault episode; a small cap models impatient/crashing clients that
/// give up mid-commit with an unknown outcome.
///
/// `cross` switches the run to a sharded keyspace (2-3 entity groups,
/// >= 25% cross-group transactions committed via 2PC over the per-group
/// logs, D8) with seeded coordinator crashes between prepare and decide —
/// the post-run quiesce's recovery daemon pass must resolve every
/// prepared-but-undecided transaction and the extended checker must prove
/// atomicity + one-copy serializability across the union of the groups.
///
/// `daemon` (implies cross-style workloads) runs the service-side recovery
/// daemon (D10) on every replica during the run itself, so it must heal
/// every pending prepare before the quiesce looks; the fault envelope adds
/// duplicate-delivery and reorder bursts, and coordinator crashes are
/// drawn more aggressively. All daemon-mode draws happen AFTER the
/// original draw sequence, so historical (seed, mode) runs still replay
/// bit-identically.
ChaosResult RunChaos(uint64_t seed, const fault::PlanEnvelope* shape = nullptr,
                     int max_rounds_per_position = 32, bool cross = false,
                     bool daemon = false) {
  Rng rng(seed ^ 0xc4a05f0dULL);
  ChaosResult result;
  result.seed = seed;

  static const char* kCodes[] = {"VVV", "VVVO", "VVVOC"};
  result.cluster_code = kCodes[rng.Uniform(3)];
  core::ClusterConfig config =
      *core::ClusterConfig::FromCode(result.cluster_code);
  config.seed = rng.Next();
  core::Cluster cluster(config);

  fault::PlanEnvelope envelope;
  if (shape != nullptr) envelope = *shape;
  envelope.num_datacenters = config.num_datacenters();
  if (daemon) {
    envelope.allow_duplicate_burst = true;
    envelope.allow_reorder_burst = true;
  }
  fault::RandomPlanGenerator generator(envelope, rng.Next());
  result.plan = generator.Generate();
  cluster.ApplyFaultPlan(result.plan);

  result.protocol = (!cross && seed % 2 == 0) ? txn::Protocol::kBasicPaxos
                                              : txn::Protocol::kPaxosCP;
  workload::RunnerConfig runner;
  runner.workload.num_attributes = 40;
  runner.total_txns = 24;
  runner.num_threads = 3;
  runner.stagger = 200 * kMillisecond;
  runner.target_rate_tps = 1.0;
  runner.client.protocol = result.protocol;
  runner.client.max_rounds_per_position = max_rounds_per_position;
  runner.seed = rng.Next();
  runner.availability_window = 2 * kSecond;  // exercise window accounting
  if (cross) {
    runner.workload.num_groups = 2 + static_cast<int>(rng.Uniform(2));
    runner.workload.cross_fraction = 0.25 + rng.NextDouble() * 0.25;
    runner.workload.groups_per_cross_txn = 2;
    // A third of the cross runs use a crashing coordinator: it abandons
    // the transaction between prepare and decide (after 1 or 2 prepares
    // landed), leaving the 2PC window for recovery to close — under
    // whatever outages/partitions the fault plan throws at it. The parallel
    // fan-out (D9) lands those crashes in partial-parallel-prepare windows
    // (every leg in flight when the gate trips).
    if (rng.Uniform(3) == 0) {
      runner.client.crash_after_prepares = 1 + static_cast<int>(rng.Uniform(2));
    }
  }
  if (daemon) {
    runner.recovery_timer = 1 * kSecond;
    // More crashing coordinators than the plain cross slice (the daemon is
    // what's under test); drawn after all original draws so the plain
    // slices' sequences are untouched.
    if (runner.client.crash_after_prepares < 0 && rng.Uniform(2) == 0) {
      runner.client.crash_after_prepares = 1 + static_cast<int>(rng.Uniform(2));
    }
  }
  result.stats = workload::RunExperiment(&cluster, runner);
  // Count pending prepares surviving on any replica of any group.
  for (int g = 0; g < std::max(runner.workload.num_groups, 1); ++g) {
    const std::string name = workload::Generator::GroupName(runner.workload, g);
    for (DcId dc = 0; dc < config.num_datacenters(); ++dc) {
      result.pending_after += static_cast<int>(
          cluster.service(dc)->GroupLog(name)->PendingPrepares().size());
    }
  }

  // Classify unknown outcomes (txn::TxnOutcome::kUnknownOutcome — clients
  // that crashed/timed out mid-commit, recorded by the runner via
  // ClassifyCommit): the checker accepts either fate; the sweep
  // additionally proves both fates are actually reached. This is also why
  // Session::RunTransaction never retries kUnknownOutcome — the
  // in-log fate below would become a double commit.
  core::Checker checker(&cluster);
  std::set<TxnId> in_log;
  const int num_groups = std::max(runner.workload.num_groups, 1);
  for (int g = 0; g < num_groups; ++g) {
    std::map<LogPos, wal::LogEntry> global_log;
    (void)checker.CheckReplication(
        workload::Generator::GroupName(runner.workload, g), &global_log);
    for (const auto& [pos, entry] : global_log) {
      for (const wal::TxnRecord& t : entry.txns) in_log.insert(t.id);
    }
  }
  for (const core::ClientOutcome& outcome : result.stats.outcomes) {
    if (!outcome.unknown) continue;
    if (in_log.count(outcome.id) > 0) {
      ++result.unknown_in_log;
    } else {
      ++result.unknown_absent;
    }
  }
  // PAXOSCP_CHAOS_DUMP=1 with PAXOSCP_CHAOS_REPLAY dumps every group's
  // global log records and the cross outcomes — the raw material for
  // diagnosing a checker violation (this is how the prepare-vs-decide
  // id confusion fixed in ContainsRecord was found).
  if (std::getenv("PAXOSCP_CHAOS_DUMP") != nullptr) {
    for (int g = 0; g < num_groups; ++g) {
      const std::string name =
          workload::Generator::GroupName(runner.workload, g);
      std::map<LogPos, wal::LogEntry> global_log;
      (void)checker.CheckReplication(name, &global_log);
      std::printf("-- group %s --\n", name.c_str());
      for (const auto& [pos, entry] : global_log) {
        for (const wal::TxnRecord& t : entry.txns) {
          std::printf("  pos=%llu kind=%d id=%s commit=%d origin=%d\n",
                      static_cast<unsigned long long>(pos),
                      static_cast<int>(t.kind), TxnIdToString(t.id).c_str(),
                      t.commit_decision ? 1 : 0, static_cast<int>(t.origin_dc));
        }
      }
    }
    for (const core::ClientOutcome& o : result.stats.outcomes) {
      if (o.groups.empty()) continue;
      std::printf("outcome id=%s committed=%d unknown=%d groups=%zu\n",
                  TxnIdToString(o.id).c_str(), o.committed ? 1 : 0,
                  o.unknown ? 1 : 0, o.groups.size());
    }
  }
  return result;
}

void WriteFailureArtifact(const ChaosResult& result) {
  const std::string path =
      "chaos_failure_seed" + std::to_string(result.seed) + ".txt";
  std::ofstream f(path);
  f << result.Describe();
  f << "replay: PAXOSCP_CHAOS_REPLAY=" << result.seed << " ./chaos_test\n";
  std::printf("wrote %s\n", path.c_str());
}

TEST(ChaosSweepTest, RandomFaultPlansPreserveSerializability) {
  const uint64_t replay = EnvOr("PAXOSCP_CHAOS_REPLAY", 0);
  const uint64_t base = EnvOr("PAXOSCP_CHAOS_SEED_BASE", 1000);
  const uint64_t count = replay != 0 ? 1 : EnvOr("PAXOSCP_CHAOS_SEEDS", 25);

  int total_committed = 0, total_unavailable = 0, plans_with_faults = 0;
  int unknown_in_log = 0, unknown_absent = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t seed = replay != 0 ? replay : base + i;
    const ChaosResult result = RunChaos(seed);
    if (replay != 0) std::printf("%s", result.Describe().c_str());
    if (!result.ok()) {
      WriteFailureArtifact(result);
      ADD_FAILURE() << "chaos run violated invariants\n"
                    << result.Describe()
                    << "replay with: PAXOSCP_CHAOS_REPLAY=" << seed
                    << " ./chaos_test";
      continue;
    }
    total_committed += result.stats.committed + result.stats.read_only;
    total_unavailable += result.stats.failed;
    if (!result.plan.events.empty()) ++plans_with_faults;
    unknown_in_log += result.unknown_in_log;
    unknown_absent += result.unknown_absent;
  }
  // The sweep must actually exercise faults and still make progress.
  EXPECT_GT(plans_with_faults, 0);
  EXPECT_GT(total_committed, 0);
  ReportSweep(
      replay != 0,
      "chaos sweep: %llu runs (seeds %llu..%llu), %d with faults, "
      "%d commits, %d unavailable, unknown outcomes: %d in log / %d absent",
      static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(replay != 0 ? replay : base),
      static_cast<unsigned long long>(replay != 0 ? replay
                                                  : base + count - 1),
      plans_with_faults, total_committed, total_unavailable, unknown_in_log,
      unknown_absent);
}

TEST(ChaosSweepTest, AnySeedReplaysBitIdentically) {
  const uint64_t seed = EnvOr("PAXOSCP_CHAOS_SEED_BASE", 1000) + 3;
  const ChaosResult first = RunChaos(seed);
  const ChaosResult second = RunChaos(seed);
  EXPECT_EQ(first.plan.ToString(), second.plan.ToString());
  EXPECT_EQ(first.cluster_code, second.cluster_code);
  EXPECT_EQ(first.stats.attempted, second.stats.attempted);
  EXPECT_EQ(first.stats.committed, second.stats.committed);
  EXPECT_EQ(first.stats.aborted, second.stats.aborted);
  EXPECT_EQ(first.stats.failed, second.stats.failed);
  EXPECT_EQ(first.stats.messages_sent, second.stats.messages_sent);
  EXPECT_EQ(first.stats.virtual_duration, second.stats.virtual_duration);
  EXPECT_EQ(first.unknown_in_log, second.unknown_in_log);
  EXPECT_EQ(first.unknown_absent, second.unknown_absent);
}

// Cross-group chaos (D8): sharded keyspaces with >= 25% cross-group
// transactions, 2PC over the per-group Paxos-CP logs, under the same
// seeded fault plans — datacenter outages and partitions landing anywhere
// in the 2PC window (including between a participant's prepare and the
// decide) — plus seeded coordinator crashes that abandon the transaction
// mid-2PC. The post-run quiesce's recovery daemon pass resolves every
// prepared-but-undecided transaction, and the extended checker must prove cross-group
// atomicity and global one-copy serializability on every seed.
TEST(ChaosSweepTest, CrossGroupPlansPreserveGlobalSerializability) {
  const uint64_t replay = EnvOr("PAXOSCP_CHAOS_REPLAY", 0);
  const uint64_t base = EnvOr("PAXOSCP_CHAOS_SEED_BASE", 1000) + 500000;
  const uint64_t count =
      replay != 0 ? 1 : EnvOr("PAXOSCP_CHAOS_CROSS_SEEDS", 15);

  int cross_committed = 0, cross_unknown = 0, plans_with_faults = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t seed = replay != 0 ? replay : base + i;
    const ChaosResult result =
        RunChaos(seed, nullptr, /*max_rounds=*/32, /*cross=*/true);
    if (replay != 0) std::printf("%s", result.Describe().c_str());
    if (!result.ok()) {
      WriteFailureArtifact(result);
      ADD_FAILURE() << "cross-group chaos run violated invariants\n"
                    << result.Describe()
                    << "replay with: PAXOSCP_CHAOS_REPLAY=" << seed
                    << " ./chaos_test";
      continue;
    }
    cross_committed += result.stats.cross_committed;
    cross_unknown += result.stats.cross_unknown;
    if (!result.plan.events.empty()) ++plans_with_faults;
  }
  // The sweep must exercise faults, commit cross-group transactions, and
  // actually hit the coordinator-crash window (unknown cross outcomes).
  // Aggregate shape assertions only make sense over a sweep — a
  // single-seed replay (PAXOSCP_CHAOS_REPLAY) checks invariants only.
  if (replay == 0) {
    EXPECT_GT(plans_with_faults, 0);
    EXPECT_GT(cross_committed, 0);
    EXPECT_GT(cross_unknown, 0)
        << "no coordinator crash between prepare and decide was exercised";
  }
  ReportSweep(
      replay != 0,
      "cross chaos sweep: %llu runs, %d with faults, %d cross commits, "
      "%d coordinator crashes recovered",
      static_cast<unsigned long long>(count), plans_with_faults,
      cross_committed, cross_unknown);
}

// Self-healing slice (D10): the service-side recovery daemon runs during
// the workload and must resolve every crashed coordinator's pending
// prepare by itself — under fault plans that also duplicate and reorder
// deliveries. Every seed must leave the quiesce nothing to heal (zero
// pending prepares on every replica of every group when the run ends), a
// green extended checker, and (being a pure function of the seed) a
// bit-identical replay. Give-ups at the daemon's attempt cap are summed
// into the summary line: one replica can abandon a transaction that
// another replica's daemon still resolves. So are the waits that begins
// gave up: home's answer to their session's last single-group commit
// failed (D15), or no replica acknowledged a cross commit's decide, which
// faults can cause and the daemon then cleans up (D16).
TEST(ChaosSweepTest, DaemonAloneHealsPendingPrepares) {
  const uint64_t replay = EnvOr("PAXOSCP_CHAOS_REPLAY", 0);
  const uint64_t base = EnvOr("PAXOSCP_CHAOS_SEED_BASE", 1000) + 900000;
  const uint64_t count =
      replay != 0 ? 1 : EnvOr("PAXOSCP_CHAOS_RECOVERY_SEEDS", 10);

  uint64_t recoveries_decided = 0, recoveries_forced = 0;
  uint64_t recoveries_abandoned = 0;
  int barrier_giveups = 0;
  int cross_committed = 0, plans_with_faults = 0, delivery_fault_plans = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t seed = replay != 0 ? replay : base + i;
    const ChaosResult result = RunChaos(seed, nullptr, /*max_rounds=*/32,
                                        /*cross=*/true, /*daemon=*/true);
    if (replay != 0) std::printf("%s", result.Describe().c_str());
    recoveries_abandoned += result.stats.recoveries_abandoned;
    barrier_giveups += result.stats.barrier_giveups;
    if (!result.ok() || result.stats.quiesce_pending != 0 ||
        result.pending_after != 0) {
      WriteFailureArtifact(result);
      ADD_FAILURE() << "daemon chaos run violated invariants ("
                    << result.stats.quiesce_pending
                    << " pending prepares left for the quiesce, "
                    << result.pending_after << " survived it)\n"
                    << result.Describe()
                    << "replay with: PAXOSCP_CHAOS_REPLAY=" << seed
                    << " ./chaos_test";
      continue;
    }
    recoveries_decided += result.stats.recoveries_decided;
    recoveries_forced += result.stats.recoveries_forced_abort;
    cross_committed += result.stats.cross_committed;
    if (!result.plan.events.empty()) ++plans_with_faults;
    for (const fault::FaultEvent& e : result.plan.events) {
      if (e.kind == fault::FaultKind::kDuplicateBurst ||
          e.kind == fault::FaultKind::kReorderBurst) {
        ++delivery_fault_plans;
        break;
      }
    }
  }
  if (replay == 0) {
    EXPECT_GT(plans_with_faults, 0);
    EXPECT_GT(delivery_fault_plans, 0)
        << "no plan drew a duplicate/reorder burst";
    EXPECT_GT(cross_committed, 0);
    EXPECT_GT(recoveries_decided, 0u)
        << "the daemon never actually recovered a transaction";

    // Replay determinism with the daemon + delivery faults in play: the
    // recovery timers are hash-derived and the fault randomness lives on
    // its own stream, so one seed run twice is bit-identical.
    const ChaosResult first = RunChaos(base, nullptr, 32, true, true);
    const ChaosResult second = RunChaos(base, nullptr, 32, true, true);
    EXPECT_EQ(first.plan.ToString(), second.plan.ToString());
    EXPECT_EQ(first.stats.attempted, second.stats.attempted);
    EXPECT_EQ(first.stats.committed, second.stats.committed);
    EXPECT_EQ(first.stats.messages_sent, second.stats.messages_sent);
    EXPECT_EQ(first.stats.virtual_duration, second.stats.virtual_duration);
    EXPECT_EQ(first.stats.recoveries_started, second.stats.recoveries_started);
    EXPECT_EQ(first.stats.recoveries_decided, second.stats.recoveries_decided);
    EXPECT_EQ(first.stats.max_safe_read_pin, second.stats.max_safe_read_pin);
    EXPECT_EQ(first.pending_after, second.pending_after);
    EXPECT_EQ(first.stats.quiesce_pending, second.stats.quiesce_pending);
  }
  ReportSweep(
      replay != 0,
      "daemon chaos sweep: %llu runs, %d with faults (%d with delivery "
      "faults), %d cross commits, %llu recoveries decided (%llu forced "
      "aborts), %llu abandoned, %d barrier give-ups (all at begins)",
      static_cast<unsigned long long>(count), plans_with_faults,
      delivery_fault_plans, cross_committed,
      static_cast<unsigned long long>(recoveries_decided),
      static_cast<unsigned long long>(recoveries_forced),
      static_cast<unsigned long long>(recoveries_abandoned), barrier_giveups);
}

// Daemon seeds on which two values were once decided for one log position.
// A coordinator's decide walk asked DC 0 for the round-0 grant of a
// position whose leader was another datacenter; that leader had already
// granted round 0 to a proposer at DC 0, so both sent ballot {0, 0} and a
// majority accepted each value (the acceptor treats an equal ballot as a
// revote). Every replica then rejected the second value it was told to
// apply, which the checker reports as R1.
TEST(ChaosSweepTest, DecideWalksNeverTakeASecondRoundZeroGrant) {
  for (uint64_t seed : {907122u, 907683u}) {
    const ChaosResult result = RunChaos(seed, nullptr, /*max_rounds=*/32,
                                        /*cross=*/true, /*daemon=*/true);
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_EQ(result.stats.quiesce_pending, 0) << "seed " << seed;
    EXPECT_EQ(result.pending_after, 0) << "seed " << seed;
  }
}

// Daemon seeds on which a pending prepare sat in a log hole: every replica
// missed one decided position below its MaxDecided, the position a
// promoted proposer skipped without applying (entity_group#0[18] in
// 908325; entity_group#0[11] and entity_group#1[10] in 905135). The
// recovery timers only see prepares in entries a replica holds, so the
// prepare stayed pending until the quiesce learned the hole. The daemon's
// hole timers now learn it during the run.
TEST(ChaosSweepTest, DaemonLearnsHolesHidingPendingPrepares) {
  for (uint64_t seed : {905135u, 908325u}) {
    const ChaosResult result = RunChaos(seed, nullptr, /*max_rounds=*/32,
                                        /*cross=*/true, /*daemon=*/true);
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_EQ(result.stats.quiesce_pending, 0) << "seed " << seed;
    EXPECT_EQ(result.pending_after, 0) << "seed " << seed;
  }
}

// Daemon seeds on which a service restart left the live instance a pin
// that the retired instance had closed (907760: dc 1 restarts at 8.90 s;
// 910544: dc 2 at 7.19 s). The retired instance finished an in-flight
// apply that landed the prepare's decide, so only its own pin table heard
// of it, and the live instance's timer chain retried the resolved prepare
// until it gave up at the attempt cap. A firing timer now syncs the pins
// with the WAL before it reads them.
TEST(ChaosSweepTest, RestartLeavesNoPinTheRetiredServiceClosed) {
  for (uint64_t seed : {907760u, 910544u}) {
    const ChaosResult result = RunChaos(seed, nullptr, /*max_rounds=*/32,
                                        /*cross=*/true, /*daemon=*/true);
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_EQ(result.stats.recoveries_abandoned, 0u) << "seed " << seed;
  }
}

// A crashed/timed-out client's transaction may legitimately land in the log
// (the cohort decided it, the client just never heard) or vanish. Under a
// hostile envelope — long response-eating loss bursts and outages — the
// sweep must reach BOTH fates, or the checker's unknown path is untested.
TEST(ChaosSweepTest, UnknownOutcomesReachBothFates) {
  fault::PlanEnvelope hostile;
  hostile.first_fault = 500 * kMillisecond;
  hostile.horizon = 10 * kSecond;
  hostile.min_episodes = 3;
  hostile.max_episodes = 6;
  hostile.min_duration = 2 * kSecond;
  hostile.max_duration = 6 * kSecond;
  hostile.min_heal_gap = 200 * kMillisecond;
  hostile.min_loss_burst = 0.6;
  hostile.max_loss_burst = 0.95;

  int in_log = 0, absent = 0;
  uint64_t seeds_used = 0;
  for (uint64_t seed = 50000; seed < 50080; ++seed) {
    ++seeds_used;
    // Round cap 2: a client that cannot finish within two prepare rounds
    // walks away not knowing its fate — the acceptors may have decided it.
    const ChaosResult result = RunChaos(seed, &hostile, /*max_rounds=*/2);
    ASSERT_TRUE(result.ok()) << result.Describe();
    in_log += result.unknown_in_log;
    absent += result.unknown_absent;
    if (in_log > 0 && absent > 0) break;  // both fates reached
  }
  EXPECT_GT(in_log, 0) << "no unknown-but-decided transaction in "
                       << seeds_used << " hostile runs";
  EXPECT_GT(absent, 0) << "no unknown-and-undecided transaction in "
                       << seeds_used << " hostile runs";
}

}  // namespace
}  // namespace paxoscp
