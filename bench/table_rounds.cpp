// Reproduces the §6 in-text statistics the paper reports alongside the
// figures:
//   * promotion-round distribution — "no transaction was able to execute
//     more than seven promotions before aborting due to a conflict. The
//     majority of transactions commit or abort within two promotions";
//   * combination counts — "At most, 24 combinations were performed per
//     experiment, and the average number of combinations was only 6.8";
//   * message complexity — Paxos-CP "requires the same per instance message
//     complexity as the basic Paxos protocol".
//
// Shape gate: exits non-zero unless the checker is OK in every run, more
// than half of Paxos-CP's commits land within 2 promotions, and no
// transaction promoted more than 7 times, committed or aborted by a
// conflict.
#include "experiment_common.h"

using namespace paxoscp;

int main(int argc, char** argv) {
  bench::PerfReporter perf(&argc, argv, "table_rounds");
  workload::PrintExperimentHeader(
      "Section 6 statistics - promotion rounds, combinations, messages",
      "majority of txns settle within 2 promotions, none beyond ~7; "
      "combinations rare; CP message cost per attempt ~= basic");

  // Aggregate over several seeds, as the paper averages repeated runs.
  constexpr int kRuns = 5;
  std::vector<int> round_histogram;
  int total_combined_entries = 0, total_combined_txns = 0;
  int max_promotions = 0, max_promotions_aborted = 0;
  double basic_msgs = 0, cp_msgs = 0;
  bool all_ok = true;

  for (int run = 0; run < kRuns; ++run) {
    workload::RunnerConfig basic =
        bench::PaperWorkload(txn::Protocol::kBasicPaxos, 100 + run);
    workload::RunStats basic_stats = perf.Run(
        "run" + std::to_string(run) + "/basic",
        bench::PaperCluster("VVV", 200 + run), basic);
    basic_msgs += basic_stats.messages_per_attempt;
    all_ok = all_ok && basic_stats.check.ok;

    workload::RunnerConfig cp =
        bench::PaperWorkload(txn::Protocol::kPaxosCP, 100 + run);
    workload::RunStats stats = perf.Run(
        "run" + std::to_string(run) + "/cp",
        bench::PaperCluster("VVV", 200 + run), cp);
    cp_msgs += stats.messages_per_attempt;
    all_ok = all_ok && stats.check.ok;
    total_combined_entries += stats.combined_entries;
    total_combined_txns += stats.combined_txns;
    max_promotions = std::max(max_promotions, stats.max_promotions);
    max_promotions_aborted =
        std::max(max_promotions_aborted, stats.max_promotions_aborted);
    if (stats.commits_by_round.size() > round_histogram.size()) {
      round_histogram.resize(stats.commits_by_round.size(), 0);
    }
    for (size_t r = 0; r < stats.commits_by_round.size(); ++r) {
      round_histogram[r] += stats.commits_by_round[r];
    }
  }

  std::printf("\nPaxos-CP commits by promotion round (%d runs x 500 txns):\n",
              kRuns);
  std::vector<std::vector<std::string>> rows;
  int cumulative = 0, total = 0, within_two = 0;
  for (int c : round_histogram) total += c;
  for (size_t r = 0; r < round_histogram.size(); ++r) {
    cumulative += round_histogram[r];
    if (r <= 2) within_two = cumulative;
    rows.push_back({"round " + std::to_string(r),
                    std::to_string(round_histogram[r]),
                    workload::FormatDouble(100.0 * cumulative / total, 1) +
                        "%"});
  }
  workload::PrintTable({"promotions", "commits", "cumulative"}, rows);

  std::printf("\nmax promotions of a committed transaction: %d\n",
              max_promotions);
  std::printf("max promotions of a transaction aborted by a conflict: %d\n",
              max_promotions_aborted);
  std::printf("combined entries per run (avg): %.1f  (txns merged: %.1f)\n",
              double(total_combined_entries) / kRuns,
              double(total_combined_txns) / kRuns);
  std::printf("messages per transaction attempt: basic %.1f vs CP %.1f "
              "(+%.0f%%)\n",
              basic_msgs / kRuns, cp_msgs / kRuns,
              100.0 * (cp_msgs - basic_msgs) / basic_msgs);

  // Shape gates: the §6 statements the header prints.
  const bool settle_early = 2 * within_two > total;
  const bool bounded = max_promotions <= 7;
  const bool aborts_bounded = max_promotions_aborted <= 7;
  std::printf("\nmajority of Paxos-CP commits within 2 promotions -> %s\n",
              settle_early ? "yes" : "NO");
  std::printf("no commit after more than 7 promotions -> %s\n",
              bounded ? "yes" : "NO");
  std::printf("no abort after more than 7 promotions -> %s\n",
              aborts_bounded ? "yes" : "NO");
  std::printf("serializability in every run -> %s\n",
              all_ok ? "OK" : "VIOLATED");
  return all_ok && settle_early && bounded && aborts_bounded ? 0 : 1;
}
