// Reproduces paper Figure 8: one YCSB instance per datacenter on a VOC
// cluster, all three updating the same 100-attribute entity group at a
// target rate of one transaction per second each (500 transactions per
// instance).
//
// Paper result (shape): Oregon and California are geographically closer
// (20 ms RTT), so their instances reach a quorum more easily and commit
// slightly more; for every datacenter Paxos-CP commits at least 200% of
// basic Paxos, at the cost of ~100% higher all-rounds latency (~50% for
// the first round).
//
// Reproduced: Paxos-CP commits more than basic Paxos in every datacenter,
// 3.1x at O and 1.7x at C. Not reproduced: at V it commits only 1.2x basic
// (the paper: at least 2x), and basic Paxos commits most at V (about
// 320/500 against 130 at O and 210 at C), not at O and C.
//
// Shape gate: exits non-zero unless the checker is OK in every row and
// Paxos-CP commits more than basic Paxos in every datacenter.
#include <map>

#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "fig8_multi_ycsb");
  workload::PrintExperimentHeader(
      "Figure 8 - per-datacenter YCSB instances (VOC, 500 txns each)",
      "O & C commit slightly more (closer quorum); CP >= 2x basic commits "
      "per DC; CP latency ~+100% all rounds, ~+50% first round. Here: CP "
      "ahead in every DC, O ~3.1x and C ~1.7x; not reproduced: V ~1.2x, and "
      "basic commits most at V");

  const char* kDcNames[] = {"V", "O", "C"};
  std::vector<std::vector<std::string>> rows;
  bool all_ok = true;
  std::map<txn::Protocol, std::vector<int>> commits;  // by datacenter
  for (txn::Protocol protocol :
       {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
    workload::RunnerConfig config = bench::PaperWorkload(protocol);
    // One 500-txn instance per datacenter: 4 threads per DC, each thread at
    // 0.25 txn/s so each instance offers 1 txn/s aggregate.
    config.total_txns = 1500;
    config.num_threads = 12;
    config.target_rate_tps = 0.25;
    config.thread_dcs = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
    workload::RunStats stats =
        perf.Run(std::string("VOC/") + txn::ProtocolName(protocol),
                 bench::PaperCluster("VOC"), config);

    for (DcId dc = 0; dc < 3; ++dc) {
      const int attempted = stats.attempted_by_dc.count(dc)
                                ? stats.attempted_by_dc.at(dc)
                                : 0;
      const int committed = stats.committed_by_dc.count(dc)
                                ? stats.committed_by_dc.at(dc)
                                : 0;
      const double latency_ms =
          stats.latency_by_dc.count(dc)
              ? stats.latency_by_dc.at(dc).Mean() / 1000.0
              : 0;
      commits[protocol].push_back(committed);
      rows.push_back({kDcNames[dc], txn::ProtocolName(protocol),
                      std::to_string(committed) + "/" +
                          std::to_string(attempted),
                      workload::FormatDouble(latency_ms, 0) + " ms",
                      workload::CommitsByRound(stats),
                      stats.check.ok ? "OK" : "VIOLATED"});
    }
    all_ok = all_ok && stats.check.ok;
  }
  workload::PrintTable({"datacenter", "protocol", "commits/attempted",
                        "mean latency", "total by-round", "serializability"},
                       rows);

  // Shape gates: Paxos-CP commits more than basic Paxos in every
  // datacenter, and the checker is green in every row.
  bool cp_ahead = true;
  std::printf("\nPaxos-CP / basic commits:");
  for (DcId dc = 0; dc < 3; ++dc) {
    const int basic = commits[txn::Protocol::kBasicPaxos][dc];
    const int cp = commits[txn::Protocol::kPaxosCP][dc];
    cp_ahead = cp_ahead && cp > basic;
    std::printf(" %s %.1fx", kDcNames[dc],
                basic > 0 ? static_cast<double>(cp) / basic : 0.0);
  }
  std::printf(" -> %s\n", cp_ahead ? "Paxos-CP ahead in every datacenter"
                                   : "NO: basic Paxos commits as many");
  std::printf("serializability in every row -> %s\n",
              all_ok ? "OK" : "VIOLATED");
  return all_ok && cp_ahead ? 0 : 1;
}
