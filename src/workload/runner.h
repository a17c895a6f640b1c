// Experiment runner: drives N concurrent client "threads" (simulation
// tasks) through a transactional YCSB workload against a cluster, exactly
// as the paper's evaluation does — staggered starts, a per-thread target
// transaction rate, 500 transactions per experiment — and gathers the
// metrics every figure reports (commits by promotion round, latency by
// round, combinations). Every attempt, single- or cross-group, is counted
// once when it ends, by one Record call that is the only writer of the
// RunStats tallies, so the run, window, per-datacenter and per-round
// counts always add up. Every run ends with a quiesce (the decided tail is
// learned, pending prepares are recovered) and the full invariant checker:
// the serializability check is part of every experiment in this repo, so
// it has no off switch.
#pragma once

#include <map>
#include <vector>

#include "common/histogram.h"
#include "core/checker.h"
#include "core/cluster.h"
#include "txn/transaction.h"
#include "workload/generator.h"

namespace paxoscp::workload {

struct RunnerConfig {
  WorkloadConfig workload;
  txn::ClientOptions client;
  /// Total transactions across all threads (paper: 500 per experiment).
  int total_txns = 500;
  /// Concurrent client threads (paper: 4, staggered).
  int num_threads = 4;
  TimeMicros stagger = 250 * kMillisecond;
  /// Per-thread target rate (paper: one transaction per second). Arrivals
  /// are open-loop: a late transaction starts immediately but the schedule
  /// does not drift.
  double target_rate_tps = 1.0;
  /// Per-thread home datacenters, assigned round-robin (Figure 8 runs one
  /// YCSB instance per datacenter). Empty: every thread runs in DC 0.
  std::vector<DcId> thread_dcs;
  uint64_t seed = 7;
  /// When > 0, bucket per-transaction outcomes into fixed windows of this
  /// width (virtual time since the run started, keyed by each transaction's
  /// start time) so availability-over-time is observable — the accounting
  /// behind bench/fig_availability and the chaos harness.
  TimeMicros availability_window = 0;
  /// When > 0, every replica runs the service-side recovery daemon (D10)
  /// during the workload with this base timer (jitter and backoff are the
  /// daemon's constants). 0 leaves the daemon off during the run; the
  /// post-run quiesce starts it either way when prepares are left pending.
  TimeMicros recovery_timer = 0;
};

/// Outcome counts for one availability window ([i*w, (i+1)*w) since run
/// start). attempted = committed + read_only + aborted + unavailable holds
/// for every window: an attempt is counted only once it has ended.
struct WindowCounts {
  int attempted = 0;
  int committed = 0;    // read/write commits
  int read_only = 0;    // read-only commits (no log entry)
  int aborted = 0;      // lost to a conflicting transaction
  int unavailable = 0;  // protocol could not complete (outage / no quorum)

  /// Fraction of attempted transactions that committed, read-only commits
  /// included (a commit is a commit). This is the repo-wide definition —
  /// RunStats::CommitRate() uses the same one.
  double CommitRate() const {
    return attempted == 0
               ? 0
               : static_cast<double>(committed + read_only) / attempted;
  }
};

struct RunStats {
  int attempted = 0;
  int committed = 0;       // read/write commits (excludes read-only)
  int read_only = 0;
  int aborted = 0;
  int failed = 0;          // protocol could not complete (no quorum)
  bool all_threads_finished = false;

  /// commits_by_round[r] = transactions that committed after r promotions
  /// (r = 0 is the first attempt; basic Paxos only ever populates r = 0).
  std::vector<int> commits_by_round;
  std::vector<Histogram> latency_by_round;  // committed txns, microseconds
  Histogram latency_committed;              // all rounds
  Histogram latency_aborted;
  /// The most promotions a committed attempt made, and the most an
  /// attempt aborted by a conflict made (paper §6: "no transaction was able
  /// to execute more than seven promotions before aborting").
  int max_promotions = 0;
  int max_promotions_aborted = 0;
  int fast_path_commits = 0;

  /// From the post-run log inspection.
  int combined_entries = 0;
  int combined_txns = 0;

  /// Cross-group transactions (D8; populated when workload.num_groups > 1
  /// and cross_fraction > 0). Cross txns are also counted in the overall
  /// attempted/committed/aborted/failed tallies.
  int cross_attempted = 0;
  int cross_committed = 0;
  int cross_aborted = 0;     // conflict aborts, incl. commit-order aborts
  int cross_unknown = 0;     // coordinator never learned the fate
  int cross_unavailable = 0;
  Histogram latency_cross;          // committed cross txns, microseconds
  Histogram latency_single_multi;   // committed single-group txns, same runs
  /// Commit-point latency of committed cross txns (CrossCommitResult::
  /// decision_latency): time until the canonical decide landed. Commit
  /// returns there (D16), so this matches latency_cross sample for sample.
  /// With parallel fan-out (D9) it stays ~2 wide-area rounds regardless of
  /// participant count.
  Histogram latency_cross_decision;

  /// Commit rate over cross-group transactions only.
  double CrossCommitRate() const {
    return cross_attempted == 0
               ? 0
               : static_cast<double>(cross_committed) / cross_attempted;
  }

  /// Service-side recovery daemon accounting (D10), summed over the
  /// replicas live at the end of the main run. `max_safe_read_pin` — the
  /// longest any pending prepare pinned a replica's SafeReadPos, open pins
  /// measured at end-of-run — is tracked whether or not the daemon runs:
  /// it is the headline number of bench/fig_recovery.
  uint64_t recoveries_started = 0;
  uint64_t recoveries_decided = 0;
  uint64_t recoveries_forced_abort = 0;
  TimeMicros max_safe_read_pin = 0;
  /// Daemon give-ups at its attempt cap, summed after the post-run quiesce.
  uint64_t recoveries_abandoned = 0;
  /// Distinct pending prepares the post-run quiesce found; 0 with the
  /// daemon on means it healed everything itself.
  int quiesce_pending = 0;
  /// Read-your-effects waits that begins gave up (TransactionClient::
  /// begin_giveups): home's answer to a single-group commit's apply failed
  /// (D15), or no replica acknowledged a cross commit's decide (D16). Each
  /// is counted once, by the session's next begin on the group. 0 on every
  /// fault-free run.
  int barrier_giveups = 0;

  uint64_t messages_sent = 0;
  double messages_per_attempt = 0;
  TimeMicros virtual_duration = 0;

  /// Per-datacenter breakdown (Figure 8).
  std::map<DcId, int> attempted_by_dc;
  std::map<DcId, int> committed_by_dc;
  std::map<DcId, Histogram> latency_by_dc;

  /// Availability over time (populated when RunnerConfig::
  /// availability_window > 0; window i covers [i*w, (i+1)*w) of virtual
  /// time since the run began, keyed by transaction start).
  std::vector<WindowCounts> windows;

  std::vector<core::ClientOutcome> outcomes;
  core::CheckReport check;

  /// Fraction of attempted transactions that committed, read-only commits
  /// included — the same definition as WindowCounts::CommitRate(), so
  /// whole-run and per-window rates are comparable.
  double CommitRate() const {
    return attempted == 0
               ? 0
               : static_cast<double>(committed + read_only) / attempted;
  }
  /// Commit rate over read/write transactions only (read-only commits
  /// never contend, so this isolates what concurrency control did).
  double ReadWriteCommitRate() const {
    const int rw = attempted - read_only;
    return rw == 0 ? 0 : static_cast<double>(committed) / rw;
  }
  double MeanLatencyMs(int round = -1) const;
};

/// Runs the workload on an existing cluster. The cluster must be fresh
/// (this seeds the initial row).
RunStats RunExperiment(core::Cluster* cluster, const RunnerConfig& config);

/// Convenience: builds the cluster from `cluster_config` and runs.
RunStats RunExperiment(const core::ClusterConfig& cluster_config,
                       const RunnerConfig& config);

}  // namespace paxoscp::workload
