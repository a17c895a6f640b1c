#include "workload/report.h"

#include <cstdio>
#include <sstream>

namespace paxoscp::workload {

void PrintExperimentHeader(const std::string& title,
                           const std::string& paper_reference) {
  std::printf("\n== %s ==\n", title.c_str());
  if (!paper_reference.empty()) {
    std::printf("   (paper: %s)\n", paper_reference.c_str());
  }
}

void PrintTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows) print_row(row);
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string CommitsByRound(const RunStats& stats, int max_rounds) {
  std::ostringstream os;
  int shown = 0;
  for (int r = 0; r < static_cast<int>(stats.commits_by_round.size()) &&
                  r < max_rounds;
       ++r) {
    if (r > 0) os << "+";
    os << stats.commits_by_round[r];
    shown += stats.commits_by_round[r];
  }
  if (shown < stats.committed) os << "+...";
  os << " = " << stats.committed;
  return os.str();
}

std::string LatencyByRound(const RunStats& stats, int max_rounds) {
  std::ostringstream os;
  for (int r = 0; r < static_cast<int>(stats.latency_by_round.size()) &&
                  r < max_rounds;
       ++r) {
    if (stats.latency_by_round[r].count() == 0) break;
    if (r > 0) os << "/";
    os << FormatDouble(stats.latency_by_round[r].Mean() / 1000.0, 0);
  }
  os << " ms";
  return os.str();
}

}  // namespace paxoscp::workload
