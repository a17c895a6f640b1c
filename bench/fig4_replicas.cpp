// Reproduces paper Figure 4: commit count (a) and commit latency (b) as
// the number of replica datacenters grows from 2 to 5, drawing nodes from
// the paper's deployment order (V, V, V, O, C).
//
// Paper result (shape): basic Paxos commits 284-292/500 regardless of
// replica count; Paxos-CP totals 434-445/500, also insensitive to replica
// count, with first-round commits below the basic total (promoted
// transactions win out over some first-round transactions). Latency grows
// mildly with replica count; each promotion round adds latency.
//
// Shape gate: exits non-zero unless the checker is OK in every cell, each
// protocol's commit count stays within 5% across 2-5 replicas, and
// Paxos-CP commits more than basic Paxos at every size.
#include <algorithm>
#include <map>

#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig4_replicas");
  workload::PrintExperimentHeader(
      "Figure 4 - commits and latency vs number of replicas (500 txns)",
      "basic ~284-292/500 flat; CP ~434-445/500 flat; latency grows mildly "
      "with replicas; promotion rounds stack latency");

  std::vector<std::vector<std::string>> rows;
  bool all_ok = true;
  bool cp_ahead = true;
  std::map<txn::Protocol, std::vector<int>> commits;  // by replica count
  for (const std::string code : {"VV", "VVV", "VVVO", "VVVOC"}) {
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      workload::RunnerConfig config = bench::PaperWorkload(protocol);
      workload::RunStats stats =
          perf.Run(code + "/" + txn::ProtocolName(protocol),
                   bench::PaperCluster(code), config);
      rows.push_back(bench::ResultRow(
          std::to_string(code.size()) + " (" + code + ")", protocol, stats));
      all_ok = all_ok && stats.check.ok;
      commits[protocol].push_back(stats.committed);
    }
    cp_ahead = cp_ahead && commits[txn::Protocol::kPaxosCP].back() >
                               commits[txn::Protocol::kBasicPaxos].back();
  }
  workload::PrintTable(bench::ResultHeaders("replicas"), rows);

  std::printf(
      "\nLatency by promotion round (Paxos-CP, committed txns, mean ms):\n");
  std::vector<std::vector<std::string>> latency_rows;
  for (const std::string code : {"VV", "VVV", "VVVO", "VVVOC"}) {
    workload::RunnerConfig config =
        bench::PaperWorkload(txn::Protocol::kPaxosCP);
    workload::RunStats stats =
        perf.Run(code + "/cp-latency", bench::PaperCluster(code), config);
    latency_rows.push_back(
        {code, workload::LatencyByRound(stats, 6),
         workload::CommitsByRound(stats)});
    all_ok = all_ok && stats.check.ok;
  }
  workload::PrintTable({"cluster", "latency r0/r1/r2/...", "commits by round"},
                       latency_rows);

  // Shape gates: commits flat in replica count (each protocol's largest
  // count within 5% of its smallest), Paxos-CP ahead of basic at every
  // size, and the checker green in every cell.
  bool flat = true;
  for (const auto& [protocol, counts] : commits) {
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    flat = flat && *hi <= 1.05 * *lo;
  }
  std::printf("\ncommits flat in replica count (within 5%%) -> %s\n",
              flat ? "yes" : "NO: commit count moves with replica count");
  std::printf("Paxos-CP commits more than basic at every size -> %s\n",
              cp_ahead ? "yes" : "NO");
  std::printf("serializability in every cell -> %s\n",
              all_ok ? "OK" : "VIOLATED");
  return all_ok && flat && cp_ahead ? 0 : 1;
}
