// Ablation of the design choices docs/ARCHITECTURE.md note D4 calls out
// (not in the paper):
//   * leader fast path on/off — the §4.1 optimization that skips the
//     prepare phase for the first claimant;
//   * combination on/off — CP with promotion only;
//   * promotion cap — 0 turns CP into basic-plus-combination; the paper
//     effectively uses an unlimited cap.
//
// Combination does not fire in this workload: the `combined` column is 0
// in every row, so cp/no-combination reads as cp/default. property_test
// and paxos_test exercise it.
//
// Shape gate: exits non-zero unless the checker is OK in every row,
// Paxos-CP commits more than basic Paxos with and without the leader fast
// path, and commits never fall as the promotion cap rises through 0, 1,
// 2, 7 and unlimited.
#include <map>

#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "ablation_knobs");
  workload::PrintExperimentHeader(
      "Ablation - leader fast path / combination / promotion cap "
      "(VVV, 100 attrs, 500 txns)",
      "repo-specific ablation; not a paper figure");

  std::vector<std::vector<std::string>> rows;
  std::map<std::string, int> commits;  // by configuration label
  bool all_ok = true;
  auto run = [&](const std::string& label, txn::ClientOptions options) {
    workload::RunnerConfig config =
        bench::PaperWorkload(options.protocol);
    config.client = options;
    workload::RunStats stats =
        perf.Run(label, bench::PaperCluster("VVV"), config);
    rows.push_back(bench::ResultRow(label, options.protocol, stats));
    commits[label] = stats.committed;
    all_ok = all_ok && stats.check.ok;
  };

  txn::ClientOptions base;
  base.protocol = txn::Protocol::kPaxosCP;

  run("cp/default", base);

  txn::ClientOptions no_leader = base;
  no_leader.leader_optimization = false;
  run("cp/no-leader-opt", no_leader);

  txn::ClientOptions no_combine = base;
  no_combine.combine.enabled = false;
  run("cp/no-combination", no_combine);

  for (int cap : {0, 1, 2, 7}) {
    txn::ClientOptions capped = base;
    capped.promotion_cap = cap;
    run("cp/promotion-cap=" + std::to_string(cap), capped);
  }

  txn::ClientOptions basic;
  basic.protocol = txn::Protocol::kBasicPaxos;
  run("basic/default", basic);

  txn::ClientOptions basic_no_leader = basic;
  basic_no_leader.leader_optimization = false;
  run("basic/no-leader-opt", basic_no_leader);

  workload::PrintTable(bench::ResultHeaders("configuration"), rows);

  const bool cp_ahead =
      commits["cp/default"] > commits["basic/default"] &&
      commits["cp/no-leader-opt"] > commits["basic/no-leader-opt"];
  bool cap_monotone = true;
  int lower_cap_commits = 0;
  for (const char* label :
       {"cp/promotion-cap=0", "cp/promotion-cap=1", "cp/promotion-cap=2",
        "cp/promotion-cap=7", "cp/default"}) {
    cap_monotone = cap_monotone && commits[label] >= lower_cap_commits;
    lower_cap_commits = commits[label];
  }
  std::printf(
      "\nPaxos-CP commits more than basic, with and without the leader fast "
      "path -> %s\n",
      cp_ahead ? "yes" : "NO");
  std::printf(
      "commits never fall as the promotion cap rises (0, 1, 2, 7, "
      "unlimited) -> %s\n",
      cap_monotone ? "yes" : "NO");
  std::printf("serializability in every row -> %s\n",
              all_ok ? "OK" : "VIOLATED");
  return all_ok && cp_ahead && cap_monotone ? 0 : 1;
}
