// Tie-shuffle exploration sweep (design note D12, mode 2).
//
// The simulator's FIFO tie-break among same-time events is deterministic
// but arbitrary: nothing in the model says event A "really" precedes
// event B when both fire at the same microsecond. This sweep replays the
// fixed-seed sharded workload, the two chaos slices (cross-group 2PC,
// daemon-heals-alone) and fig_crossgroup's 100 %-cross cell over eight
// workload seeds under N seeded same-time permutations and requires
// RUN-LEVEL INVARIANCE: identical outcome stats, identical per-(group, dc)
// decided-log digests, identical checker verdicts.
//
// The sweep configs are rng-quiet by construction (latency_jitter = 0,
// loss_probability = 0, no loss/duplicate/reorder bursts): no same-time
// event pair ever draws from a shared rng stream, so a permutation can
// change the outcome only through a schedule-order race. The crossgroup
// cell keeps the bench's jitter: every transaction there is cross-group,
// and each cross leg draws from its own stream. Two kinds of race exist:
// determinism LEAKS (state that should not depend on arrival order but
// does — e.g. the read-set recorded in response-arrival order, found by
// this sweep; the read set is now a map in item order) and genuine Paxos
// position CONTENTION (two in-flight transactions racing for one log slot
// — the winner legitimately depends on delivery order; only safety is
// guaranteed). The invariance tests run chaos seeds pinned contention-
// free, where any divergence is a leak; the safety test sweeps wider
// seeds where contention can land on a tie and asserts the checker
// verdict instead. RngQuietSlicesHaveNoRngCellConflicts pins the
// quietness itself.
//
// On divergence the harness minimizes via the shuffle horizon (ties at
// t >= horizon stay FIFO, so a binary search over the horizon isolates the
// first diverging timestamp), writes race_divergence_seed<seed>.txt for CI
// artifact upload, and fails with the replay recipe.
//
// Environment knobs (set by ctest; see CMakeLists.txt):
//   PAXOSCP_SHUFFLE_SEEDS      shuffle seeds per slice      (default 8)
//   PAXOSCP_SHUFFLE_SEED_BASE  first shuffle seed           (default 1)
//   PAXOSCP_SHUFFLE_CHAOS_SEEDS  chaos seeds per chaos slice (default 3)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "fault/fault_plan.h"
#include "sim/race_detector.h"
#include "sim/simulator.h"
#include "wal/log.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace paxoscp {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Order-independent digest of one group's decided log (the cross_test.cc
/// determinism pattern): fold decided entries' fingerprints by position.
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

/// Everything a run must keep invariant under a same-time permutation.
struct RunFingerprint {
  int attempted = 0;
  int committed = 0;
  int aborted = 0;
  int failed = 0;
  int cross_committed = 0;
  int cross_aborted = 0;
  int cross_unknown = 0;
  int quiesce_pending = 0;
  bool checker_ok = false;
  bool all_threads_finished = false;
  std::vector<uint64_t> log_digests;  // per (group, dc)

  bool operator==(const RunFingerprint& o) const {
    return attempted == o.attempted && committed == o.committed &&
           aborted == o.aborted && failed == o.failed &&
           cross_committed == o.cross_committed &&
           cross_aborted == o.cross_aborted &&
           cross_unknown == o.cross_unknown &&
           quiesce_pending == o.quiesce_pending && checker_ok == o.checker_ok &&
           all_threads_finished == o.all_threads_finished &&
           log_digests == o.log_digests;
  }
  bool operator!=(const RunFingerprint& o) const { return !(*this == o); }

  std::string Describe() const {
    std::string out = "attempted=" + std::to_string(attempted) +
                      " committed=" + std::to_string(committed) +
                      " aborted=" + std::to_string(aborted) +
                      " failed=" + std::to_string(failed) +
                      " cross=" + std::to_string(cross_committed) + "/" +
                      std::to_string(cross_aborted) + "/" +
                      std::to_string(cross_unknown) +
                      " quiesce_pending=" + std::to_string(quiesce_pending) +
                      " checker_ok=" + std::to_string(checker_ok ? 1 : 0) +
                      " digests=";
    for (uint64_t d : log_digests) out += std::to_string(d) + ",";
    return out;
  }
};

/// Per-position dump of every group's decided log at dc 0 (what the
/// digests summarize), for the divergence artifact: diffing the baseline
/// and shuffled dumps names the first diverging position.
std::string DumpLogs(core::Cluster* cluster, int num_groups,
                     const workload::WorkloadConfig& wconfig) {
  std::string out;
  for (int g = 0; g < num_groups; ++g) {
    const std::string name = workload::Generator::GroupName(wconfig, g);
    const wal::WriteAheadLog* log = cluster->service(0)->GroupLog(name);
    out += "group " + name + " decided=" + std::to_string(log->MaxDecided()) +
           "\n";
    for (LogPos pos = 1; pos <= log->MaxDecided(); ++pos) {
      if (!log->HasEntry(pos)) continue;
      Result<wal::LogEntry> entry = log->GetEntry(pos);
      out += "  pos=" + std::to_string(pos) + " fp=" +
             std::to_string(entry.ok() ? entry->Fingerprint() : 0);
      if (entry.ok()) {
        for (const wal::TxnRecord& t : entry->txns) {
          out += " txn=" + TxnIdToString(t.id) +
                 (t.commit_decision ? "+c" : "-c") +
                 " k=" + std::to_string(static_cast<int>(t.kind)) +
                 " rp=" + std::to_string(t.read_pos) +
                 " xts=" + std::to_string(t.cross_ts);
          for (const wal::ReadRecord& r : t.reads) {
            out += " r(" + r.item.row + "." + r.item.attribute + "@" +
                   TxnIdToString(r.observed_writer) + "/" +
                   std::to_string(r.observed_pos) + ")";
          }
          for (const wal::WriteRecord& w : t.writes) {
            out += " w(" + w.item.row + "." + w.item.attribute + "=" +
                   w.value.substr(0, 8) + ")";
          }
        }
      }
      out += "\n";
    }
  }
  return out;
}

RunFingerprint Fingerprint(core::Cluster* cluster,
                           const workload::RunStats& stats, int num_groups,
                           const workload::WorkloadConfig& wconfig) {
  RunFingerprint fp;
  fp.attempted = stats.attempted;
  fp.committed = stats.committed;
  fp.aborted = stats.aborted;
  fp.failed = stats.failed;
  fp.cross_committed = stats.cross_committed;
  fp.cross_aborted = stats.cross_aborted;
  fp.cross_unknown = stats.cross_unknown;
  fp.quiesce_pending = stats.quiesce_pending;
  fp.checker_ok = stats.check.ok;
  fp.all_threads_finished = stats.all_threads_finished;
  for (int g = 0; g < num_groups; ++g) {
    const std::string name = workload::Generator::GroupName(wconfig, g);
    for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
      fp.log_digests.push_back(
          LogDigest(cluster->service(dc)->GroupLog(name)));
    }
  }
  return fp;
}

enum class Slice { kSharded, kChaosCross, kChaosDaemon, kCrossCell };

const char* SliceName(Slice s) {
  switch (s) {
    case Slice::kSharded: return "sharded";
    case Slice::kChaosCross: return "chaos-cross";
    case Slice::kChaosDaemon: return "chaos-daemon";
    case Slice::kCrossCell: return "crossgroup-cell";
  }
  return "?";
}

/// One run of a slice under a same-time permutation. Every slice but the
/// crossgroup cell is rng-quiet; the cell's `chaos_seed` is its workload
/// seed. A pure function of (slice, chaos_seed, shuffle_seed, horizon):
/// shuffle_seed 0 is the FIFO baseline; `horizon` bounds shuffling to ties
/// at t < horizon (the minimizer's lever). `detector`, when non-null, is
/// attached for the quietness proof.
RunFingerprint RunSlice(Slice slice, uint64_t chaos_seed,
                        uint64_t shuffle_seed,
                        TimeMicros horizon = sim::Simulator::kMaxTimeMicros,
                        sim::RaceDetector* detector = nullptr,
                        std::string* log_dump = nullptr) {
  Rng rng(chaos_seed ^ 0x5eedf00dULL);

  const bool cell = slice == Slice::kCrossCell;
  static const char* kCodes[] = {"VVV", "VVVO"};
  core::ClusterConfig config = *core::ClusterConfig::FromCode(
      slice == Slice::kSharded || cell ? "VVV" : kCodes[rng.Uniform(2)]);
  config.seed = slice == Slice::kSharded ? 4242 : cell ? 11 : rng.Next();
  if (!cell) {
    // Rng-quiet: no per-message draws, so no same-time event pair shares a
    // stream and the schedule alone determines the outcome.
    config.latency_jitter = 0;
    config.loss_probability = 0;
  }
  core::Cluster cluster(config);
  if (shuffle_seed != 0) {
    cluster.simulator()->SetTieShuffle(shuffle_seed, horizon);
  }
  // PAXOSCP_SHUFFLE_TRACE_TIME=<us> dumps the full time-group at that
  // timestamp (minimize first, then trace the reported tick).
  sim::RaceDetector trace_detector;
  if (const uint64_t trace = EnvOr("PAXOSCP_SHUFFLE_TRACE_TIME", 0);
      trace != 0 && detector == nullptr) {
    trace_detector.TraceTime(static_cast<TimeMicros>(trace));
    detector = &trace_detector;
  }
  if (detector != nullptr) {
    cluster.simulator()->AttachRaceDetector(detector);
  }

  workload::RunnerConfig runner;
  runner.workload.num_attributes = 10;
  runner.workload.num_groups = 2;
  runner.workload.cross_fraction = 0.3;
  runner.workload.groups_per_cross_txn = 2;
  runner.total_txns = 16;
  runner.num_threads = 2;
  runner.stagger = 200 * kMillisecond;
  runner.seed = slice == Slice::kSharded ? 99 : cell ? chaos_seed : rng.Next();

  if (cell) {
    // fig_crossgroup's 100 %-cross cell: the bench's paper workload, its
    // cluster (VVV, seed 11, default jitter) and its overrides.
    runner.workload.num_attributes = 60;
    runner.workload.num_groups = 3;
    runner.workload.cross_fraction = 1.0;
    runner.total_txns = 240;
    runner.num_threads = 4;
    runner.stagger = 250 * kMillisecond;
  } else if (slice != Slice::kSharded) {
    // Chaos slice: seeded fault plan, quiet shapes only (outages,
    // partitions, restarts — no loss/duplicate/reorder bursts, which
    // would reintroduce per-message draws).
    fault::PlanEnvelope envelope;
    envelope.num_datacenters = config.num_datacenters();
    envelope.allow_loss_burst = false;
    fault::RandomPlanGenerator generator(envelope, rng.Next());
    cluster.ApplyFaultPlan(generator.Generate());
    runner.workload.num_groups = 2 + static_cast<int>(rng.Uniform(2));
    runner.client.max_rounds_per_position = 32;
    if (rng.Uniform(3) == 0) {
      runner.client.crash_after_prepares = 1 + static_cast<int>(rng.Uniform(2));
    }
    runner.availability_window = 2 * kSecond;
  }
  if (slice == Slice::kChaosDaemon) {
    runner.recovery_timer = 1 * kSecond;
    if (runner.client.crash_after_prepares < 0 && rng.Uniform(2) == 0) {
      runner.client.crash_after_prepares = 1 + static_cast<int>(rng.Uniform(2));
    }
  }

  const workload::RunStats stats = workload::RunExperiment(&cluster, runner);
  if (detector != nullptr) detector->Finalize();
  if (log_dump != nullptr) {
    *log_dump = DumpLogs(&cluster, runner.workload.num_groups,
                         runner.workload);
  }
  return Fingerprint(&cluster, stats, runner.workload.num_groups,
                     runner.workload);
}

/// Binary-searches the shuffle horizon for the first diverging timestamp:
/// run(seed, horizon = h) diverges from FIFO iff the first diverging tie
/// is at t < h, so the smallest diverging horizon brackets it.
TimeMicros MinimizeDivergence(Slice slice, uint64_t chaos_seed,
                              uint64_t shuffle_seed,
                              const RunFingerprint& baseline) {
  TimeMicros lo = 0;                    // invariant: horizon lo never diverges
  TimeMicros hi = 60 * kSecond;         // whole-run horizon: known to diverge
  while (hi - lo > 1) {
    const TimeMicros mid = lo + (hi - lo) / 2;
    if (RunSlice(slice, chaos_seed, shuffle_seed, mid) != baseline) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;  // first diverging tie timestamp (hi = lo + 1 diverges)
}

void WriteDivergenceArtifact(Slice slice, uint64_t chaos_seed,
                             uint64_t shuffle_seed, TimeMicros first_time,
                             const RunFingerprint& baseline,
                             const RunFingerprint& shuffled) {
  // Re-run both sides with log dumps so the artifact names the diverging
  // positions, not just the digests.
  std::string baseline_dump;
  std::string shuffled_dump;
  (void)RunSlice(slice, chaos_seed, 0, sim::Simulator::kMaxTimeMicros,
                 nullptr, &baseline_dump);
  (void)RunSlice(slice, chaos_seed, shuffle_seed,
                 sim::Simulator::kMaxTimeMicros, nullptr, &shuffled_dump);
  const std::string path = "race_divergence_seed" +
                           std::to_string(shuffle_seed) + ".txt";
  std::ofstream f(path);
  f << "slice=" << SliceName(slice) << " chaos_seed=" << chaos_seed
    << " shuffle_seed=" << shuffle_seed << "\n"
    << "first diverging tie timestamp (us): " << first_time << "\n"
    << "baseline: " << baseline.Describe() << "\n"
    << "shuffled: " << shuffled.Describe() << "\n"
    << "baseline logs:\n" << baseline_dump
    << "shuffled logs:\n" << shuffled_dump
    << "replay: PAXOSCP_SHUFFLE_SEED_BASE=" << shuffle_seed
    << " PAXOSCP_SHUFFLE_SEEDS=1"
    << " PAXOSCP_SHUFFLE_TRACE_TIME=" << first_time
    << " ./race_shuffle_test\n";
  std::printf("wrote %s\n", path.c_str());
}

void SweepSlice(Slice slice, uint64_t chaos_seed) {
  const uint64_t base = EnvOr("PAXOSCP_SHUFFLE_SEED_BASE", 1);
  const uint64_t count = EnvOr("PAXOSCP_SHUFFLE_SEEDS", 8);
  const RunFingerprint baseline = RunSlice(slice, chaos_seed, 0);
  EXPECT_TRUE(baseline.all_threads_finished);
  EXPECT_TRUE(baseline.checker_ok);
  if (slice == Slice::kChaosDaemon) {
    // The daemon alone healed every pending prepare during the run: the
    // post-run quiesce found nothing left to recover.
    EXPECT_EQ(baseline.quiesce_pending, 0) << "chaos_seed=" << chaos_seed;
  }
  for (uint64_t seed = base; seed < base + count; ++seed) {
    const RunFingerprint shuffled = RunSlice(slice, chaos_seed, seed);
    if (shuffled != baseline) {
      const TimeMicros first =
          MinimizeDivergence(slice, chaos_seed, seed, baseline);
      WriteDivergenceArtifact(slice, chaos_seed, seed, first, baseline,
                              shuffled);
      FAIL() << SliceName(slice) << " chaos_seed=" << chaos_seed
             << " diverges under shuffle seed " << seed
             << " (first diverging tie at t=" << first << "us)\n"
             << "baseline: " << baseline.Describe() << "\n"
             << "shuffled: " << shuffled.Describe();
    }
  }
}

TEST(RaceShuffleTest, ShardedWorkloadShuffleInvariant) {
  SweepSlice(Slice::kSharded, 0);
}

TEST(RaceShuffleTest, ChaosCrossSliceShuffleInvariant) {
  const uint64_t chaos_seeds = EnvOr("PAXOSCP_SHUFFLE_CHAOS_SEEDS", 3);
  for (uint64_t cs = 0; cs < chaos_seeds; ++cs) {
    SweepSlice(Slice::kChaosCross, 7000 + cs);
  }
}

TEST(RaceShuffleTest, ChaosDaemonSliceShuffleInvariant) {
  const uint64_t chaos_seeds = EnvOr("PAXOSCP_SHUFFLE_CHAOS_SEEDS", 3);
  for (uint64_t cs = 0; cs < chaos_seeds; ++cs) {
    SweepSlice(Slice::kChaosDaemon, 8000 + cs);
  }
}

TEST(RaceShuffleTest, CrossGroupCellShuffleInvariantAcrossWorkloadSeeds) {
  // In fig_crossgroup's 100 %-cross cell the cluster seed moves no log
  // entry (only the run's virtual end time), so the bench's own shuffle
  // check on one cluster seed explores one history. The workload seed
  // does move the history, so the cell is swept over workload seeds.
  for (uint64_t workload_seed = 1; workload_seed <= 8; ++workload_seed) {
    SweepSlice(Slice::kCrossCell, workload_seed);
  }
}

TEST(RaceShuffleTest, ShufflePreservesSafetyOnWiderChaosSeeds) {
  // Beyond the pinned invariance seeds, run-level invariance is NOT a
  // theorem: with zero jitter, two messages fanned out to the same
  // destination always arrive at the same tick, and when two in-flight
  // transactions contend for the same log position, which prepare lands
  // first decides the winner (chaos seed 7005 under shuffle seed 100 is
  // a minimized example — same attempts, different commit set, both logs
  // self-consistent). That nondeterminism is the protocol's own, so the
  // wide sweep asserts what Paxos actually guarantees under arbitrary
  // same-time delivery order: every run completes, the checker holds,
  // and the attempt count is unchanged.
  const uint64_t chaos_seeds = EnvOr("PAXOSCP_SHUFFLE_SAFETY_CHAOS_SEEDS", 3);
  const uint64_t shuffle_seeds = EnvOr("PAXOSCP_SHUFFLE_SAFETY_SEEDS", 2);
  for (Slice slice : {Slice::kChaosCross, Slice::kChaosDaemon}) {
    const uint64_t chaos_base = slice == Slice::kChaosCross ? 7003 : 8003;
    for (uint64_t cs = 0; cs < chaos_seeds; ++cs) {
      const RunFingerprint baseline = RunSlice(slice, chaos_base + cs, 0);
      for (uint64_t seed = 100; seed < 100 + shuffle_seeds; ++seed) {
        const RunFingerprint shuffled = RunSlice(slice, chaos_base + cs, seed);
        EXPECT_TRUE(shuffled.all_threads_finished)
            << SliceName(slice) << " chaos_seed=" << chaos_base + cs
            << " shuffle_seed=" << seed;
        EXPECT_TRUE(shuffled.checker_ok)
            << SliceName(slice) << " chaos_seed=" << chaos_base + cs
            << " shuffle_seed=" << seed << "\n" << shuffled.Describe();
        EXPECT_EQ(shuffled.attempted, baseline.attempted)
            << SliceName(slice) << " chaos_seed=" << chaos_base + cs
            << " shuffle_seed=" << seed;
      }
    }
  }
}

// Same-time conflicts that cannot affect run outcomes, pinned here so any
// NEW conflict family fails the test below:
//  * "/!paxos/" — acceptor per-position state. Every mutation is a
//    CheckAndWrite CAS inside a retry loop (Algorithm 1's keepTrying), so
//    any interleaving is safe: ballots max-merge and the decide refresh
//    is idempotent. Which proposal WINS a contended slot still depends
//    on arrival order — that is the protocol's own designed-for message
//    race, not schedule-order leakage, and the pinned invariance seeds
//    above are chosen where no contention lands on a tie.
//  * apply path vs versioned reads — the store's "d/" rows merge-write at
//    timestamp = log position (a merge at-or-below an existing timestamp
//    is a skipped no-op), the "!applied/" watermark advances monotonically,
//    and readers are pinned to a fixed read_pos, so same-tick apply/read
//    order cannot change what any reader observes.
// The invariance tests above run these exact slices under shuffled ties
// and confirm end-to-end outcomes really are unchanged.
bool BenignUnderShuffle(const std::string& cell) {
  auto has = [&cell](const char* sub) {
    return cell.find(sub) != std::string::npos;
  };
  if (has("/!paxos/")) return true;    // acceptor CAS state
  if (has("/!applied/")) return true;  // apply watermark
  if (has("/d/")) return true;         // MVCC rows
  return false;
}

TEST(RaceShuffleTest, RngQuietSlicesHaveNoRngCellConflicts) {
  // The invariance argument rests on the sweep configs never letting two
  // same-time events share an rng stream. Prove it: the detector with NO
  // suppressions (rng cells armed) must report no rng-cell conflict on any
  // slice — and nothing outside the benign families documented above.
  for (Slice slice :
       {Slice::kSharded, Slice::kChaosCross, Slice::kChaosDaemon}) {
    sim::RaceDetector det;
    const RunFingerprint fp =
        RunSlice(slice, slice == Slice::kSharded ? 0 : 7001, 0,
                 sim::Simulator::kMaxTimeMicros, &det);
    EXPECT_TRUE(fp.checker_ok);
    for (const sim::RaceDetector::Report& r : det.reports()) {
      EXPECT_EQ(r.cell.find("rng"), std::string::npos)
          << SliceName(slice) << ": rng stream shared across a tie:\n"
          << r.Describe();
      EXPECT_TRUE(BenignUnderShuffle(r.cell))
          << SliceName(slice) << ": conflict outside the known-benign "
          << "families (see BenignUnderShuffle):\n" << r.Describe();
    }
  }
}

}  // namespace
}  // namespace paxoscp
