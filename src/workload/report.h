// Plain-text table formatting for the figure-reproduction benches: prints
// the same rows/series the paper's figures plot.
#pragma once

#include <string>
#include <vector>

#include "workload/runner.h"

namespace paxoscp::workload {

/// Prints "== <title> ==" followed by the paper reference line.
void PrintExperimentHeader(const std::string& title,
                           const std::string& paper_reference);

/// Fixed-width table: header row then data rows. Column widths adapt to the
/// longest cell.
void PrintTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows);

/// Renders commits-by-promotion-round as "r0+r1+r2+... = total".
std::string CommitsByRound(const RunStats& stats, int max_rounds = 8);

/// Mean latency per round as "l0/l1/... ms" (committed transactions).
std::string LatencyByRound(const RunStats& stats, int max_rounds = 4);

std::string FormatDouble(double v, int precision = 1);

}  // namespace paxoscp::workload
