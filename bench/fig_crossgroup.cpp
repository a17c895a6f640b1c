// Cross-group transactions (design note D8): commit rate and latency as
// the fraction of transactions spanning entity groups sweeps 0 -> 100%,
// under the paper's service-time model on the three-Virginia-replica
// cluster. This is the experiment the paper could not run: it inherits
// Megastore's one-entity-group-per-transaction restriction, while our 2PC
// coordinator commits atomically across the per-group Paxos-CP logs.
//
// Expected shape (D9, parallel fan-out): single-group transactions are
// unaffected at 0%; cross commits reach their commit point (the canonical
// decide) in ~2 wide-area rounds — one parallel prepare fan-out plus the
// decide — REGARDLESS of participant count, where the sequential
// coordinator paid roughly (#groups+1) rounds. The commit rate dips
// slightly with the extra conflict surface (prepare conflicts in any leg,
// commit-order aborts) — but every cell stays one-copy serializable
// across the union of the groups' logs, which the extended checker
// verifies cell by cell.
//
// The second sweep holds the fraction at 50% and widens transactions from
// 2 to 4 participants; a hard gate fails the run (non-zero exit) if the
// commit-point latency grows materially with participant count, i.e. if
// the fan-out ever regresses to sequential legs.
//
// A second gate pins where Commit returns: at the commit point (D16). In
// every cell with cross commits the mean cross Commit latency must equal
// the mean commit-point latency exactly (both are sums of the same integer
// samples), so a change that puts a wait back on the commit path fails
// the run.
//
//   ./build/bench/fig_crossgroup [--json <path>]
#include "core/checker.h"
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig_crossgroup");
  workload::PrintExperimentHeader(
      "Cross-group 2PC - commit rate and latency vs cross-group fraction "
      "(VVV, 3 groups, 240 txns)",
      "2PC over Paxos-CP lifts the paper's one-group-per-txn restriction "
      "(D8); serializability holds across groups at every fraction");

  const double fractions[] = {0.0, 0.1, 0.25, 0.5, 0.75, 1.0};
  std::vector<std::vector<std::string>> rows;
  bool all_ok = true;
  int total_cross_committed = 0;
  // Cells whose cross Commit latency differs from their commit point.
  int late_returns = 0;
  const auto returns_at_commit_point = [&late_returns](
                                           const workload::RunStats& stats) {
    if (stats.cross_committed > 0 &&
        stats.latency_cross.Mean() != stats.latency_cross_decision.Mean()) {
      ++late_returns;
    }
  };

  for (double fraction : fractions) {
    core::Cluster cluster(bench::PaperCluster("VVV"));
    workload::RunnerConfig config =
        bench::PaperWorkload(txn::Protocol::kPaxosCP);
    config.workload.num_groups = 3;
    config.workload.cross_fraction = fraction;
    config.workload.groups_per_cross_txn = 2;
    // Keep the per-group item count at the paper's contention level.
    config.workload.num_attributes = 60;
    config.total_txns = 240;

    char label[32];
    std::snprintf(label, sizeof(label), "cross/%d",
                  static_cast<int>(fraction * 100));
    workload::RunStats stats = perf.Run(label, &cluster, config);

    // Each cell must be serializable AND, at non-zero fractions, actually
    // commit cross-group transactions (a cell that silently aborts every
    // cross txn would render the figure meaningless while keeping the
    // checker green).
    const bool ok = stats.check.ok && stats.all_threads_finished &&
                    (fraction == 0.0 || stats.cross_committed > 0);
    all_ok = all_ok && ok;
    total_cross_committed += stats.cross_committed;
    returns_at_commit_point(stats);
    const int single_committed = stats.committed - stats.cross_committed;
    rows.push_back(
        {std::to_string(static_cast<int>(fraction * 100)) + "%",
         std::to_string(stats.committed) + "/" +
             std::to_string(stats.attempted),
         workload::FormatDouble(100 * stats.CommitRate(), 0) + "%",
         std::to_string(stats.cross_committed) + "/" +
             std::to_string(stats.cross_attempted),
         workload::FormatDouble(100 * stats.CrossCommitRate(), 0) + "%",
         single_committed > 0
             ? workload::FormatDouble(
                   stats.latency_single_multi.Mean() / 1000.0, 0) + " ms"
             : "-",
         stats.cross_committed > 0
             ? workload::FormatDouble(stats.latency_cross.Mean() / 1000.0,
                                      0) + " ms"
             : "-",
         std::to_string(stats.cross_aborted),
         std::to_string(stats.cross_unknown),
         ok ? "OK" : "VIOLATED"});
  }

  workload::PrintTable({"cross", "commits", "rate", "x-commits", "x-rate",
                        "lat(1g)", "lat(xg)", "x-abort", "x-unknown",
                        "serializability"},
                       rows);

  // ---- Participant-count sweep: commit-point latency must stay flat.
  // With the parallel fan-out (D9) every prepare leg runs concurrently,
  // so the time to the canonical decide is ~2 wide-area rounds whether a
  // transaction spans 2 groups or 4. The sequential coordinator's
  // signature — decision latency growing by ~1 round per extra
  // participant — is the regression this gate pins out.
  workload::PrintExperimentHeader(
      "Cross-group 2PC - commit-point latency vs participant count "
      "(VVV, 4 groups, 50% cross, 160 txns)",
      "parallel prepare fan-out (D9): ~2 wide-area rounds to the decide, "
      "flat in participant count");

  std::vector<std::vector<std::string>> prows;
  std::vector<double> decision_means;  // by participants: 2, 3, 4
  for (int participants = 2; participants <= 4; ++participants) {
    core::Cluster cluster(bench::PaperCluster("VVV"));
    workload::RunnerConfig config =
        bench::PaperWorkload(txn::Protocol::kPaxosCP);
    config.workload.num_groups = 4;
    config.workload.cross_fraction = 0.5;
    config.workload.groups_per_cross_txn = participants;
    config.workload.num_attributes = 60;
    config.total_txns = 160;

    char label[32];
    std::snprintf(label, sizeof(label), "participants/%d", participants);
    workload::RunStats stats = perf.Run(label, &cluster, config);

    const bool ok = stats.check.ok && stats.all_threads_finished &&
                    stats.cross_committed > 0;
    all_ok = all_ok && ok;
    total_cross_committed += stats.cross_committed;
    returns_at_commit_point(stats);
    decision_means.push_back(stats.latency_cross_decision.Mean());
    prows.push_back(
        {std::to_string(participants),
         std::to_string(stats.cross_committed) + "/" +
             std::to_string(stats.cross_attempted),
         workload::FormatDouble(100 * stats.CrossCommitRate(), 0) + "%",
         workload::FormatDouble(
             stats.latency_cross_decision.Mean() / 1000.0, 0) + " ms",
         ok ? "OK" : "VIOLATED"});
  }
  workload::PrintTable({"participants", "x-commits", "x-rate",
                        "lat(decide)", "serializability"},
                       prows);

  // The gate: widening 2 -> 4 participants may not grow the commit-point
  // latency beyond 1.6x. Parallel fan-out measures ~1.3x (slowest-of-N
  // prepare legs plus 4-way conflict pressure — flat in rounds, mildly
  // super-flat in the tail); the sequential coordinator measures ~3x
  // (one full prepare walk per extra participant, compounded by the
  // longer conflict window). 1.6 sits between the shapes with wide
  // margin on both sides.
  const double flat_ratio =
      decision_means.front() > 0 ? decision_means.back() /
                                       decision_means.front()
                                 : 0.0;
  const bool flat = flat_ratio > 0 && flat_ratio <= 1.6;
  std::printf("\ncommit-point latency 4p/2p = %.2fx -> %s\n", flat_ratio,
              flat ? "flat in participant count (parallel fan-out, D9)"
                   : "REGRESSION: decision latency grows with participants "
                     "(sequential-leg shape)");

  // Shape gates: the checker must be green in every cell, the sweep must
  // actually commit cross-group transactions once the fraction is
  // non-zero (a sweep that silently aborts every cross txn would render
  // the figure meaningless), and the commit-point latency must stay flat
  // in participant count.
  std::printf("%d cross-group commits across the sweeps -> %s\n",
              total_cross_committed,
              all_ok && total_cross_committed > 0
                  ? "cross-group 2PC commits and stays serializable (D8)"
                  : "UNEXPECTED: cross-group shape not reproduced");
  std::printf("cells whose cross Commit returns after the commit point: %d "
              "-> %s\n",
              late_returns,
              late_returns == 0
                  ? "Commit returns at the canonical decide (D16)"
                  : "REGRESSION: a wait is back on the cross commit path");
  return all_ok && flat && total_cross_committed > 0 && late_returns == 0
             ? 0
             : 1;
}
