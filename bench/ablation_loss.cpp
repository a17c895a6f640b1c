// Ablation: sensitivity to message loss (the paper's UDP transport with
// 2-second loss-detection timeouts, §6). Loss stretches tail latency, but
// only where a round is still undecided: a lost prepare or accept message
// stalls its round until the timeout unless the answers that did arrive
// already decide it (docs/ARCHITECTURE.md, D13). Loss must never break
// serializability; the invariant checker runs on every cell.
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "ablation_loss");
  workload::PrintExperimentHeader(
      "Ablation - message loss rate (VVV, 100 attrs, 500 txns)",
      "repo-specific ablation; loss stalls undecided rounds until the "
      "timeout, never causes inconsistency");

  std::vector<std::vector<std::string>> rows;
  for (double loss : {0.0, 0.01, 0.05, 0.10}) {
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      workload::RunnerConfig config = bench::PaperWorkload(protocol);
      core::ClusterConfig cluster = bench::PaperCluster("VVV");
      cluster.loss_probability = loss;
      workload::RunStats stats = perf.Run(
          workload::FormatDouble(loss * 100, 0) + "pct/" +
              txn::ProtocolName(protocol),
          cluster, config);
      rows.push_back(bench::ResultRow(
          workload::FormatDouble(loss * 100, 0) + "% loss", protocol, stats));
    }
  }
  workload::PrintTable(bench::ResultHeaders("loss rate"), rows);
  return 0;
}
