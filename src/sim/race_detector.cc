#include "sim/race_detector.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

namespace paxoscp::sim {

namespace race {

constinit thread_local RaceDetector* g_active_detector = nullptr;

void Record(AccessKind kind, std::initializer_list<CellPart> parts) {
  RaceDetector* detector = g_active_detector;
  if (detector == nullptr) return;
  std::string cell;
  cell.reserve(48);
  bool first = true;
  for (const CellPart& part : parts) {
    if (!first) cell.push_back('/');
    first = false;
    if (part.is_num) {
      cell.append(std::to_string(part.num));
    } else {
      cell.append(part.str);
    }
  }
  detector->RecordAccess(std::move(cell), kind);
}

}  // namespace race

namespace {

const char* MaskName(uint8_t mask) {
  switch (mask) {
    case RaceDetector::kReadBit:
      return "read";
    case RaceDetector::kWriteBit:
      return "write";
    default:
      return "read+write";
  }
}

}  // namespace

std::string RaceDetector::Report::Describe() const {
  std::string out = "race @t=" + std::to_string(time) + "us cell=" + cell;
  out += std::string(" [") + MaskName(mask_first) +
         " seq=" + std::to_string(seq_first) + " tag=" + tag_first + "]";
  out += std::string(" vs [") + MaskName(mask_second) +
         " seq=" + std::to_string(seq_second) + " tag=" + tag_second + "]";
  return out;
}

void RaceDetector::SuppressCellPrefix(std::string prefix) {
  suppress_prefixes_.push_back(std::move(prefix));
}

bool RaceDetector::Suppressed(const std::string& cell) const {
  for (const std::string& prefix : suppress_prefixes_) {
    if (cell.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

std::string RaceDetector::TagOf(const EventRec& rec) {
  return rec.tag != nullptr ? std::string(rec.tag) : std::string("untagged");
}

void RaceDetector::OnEventBegin(uint64_t seq, TimeMicros time, const char* tag,
                                uint64_t parent_seq) {
  if (group_open_ && time != group_time_) FlushGroup();
  group_open_ = true;
  group_time_ = time;
  ++events_observed_;

  EventRec rec;
  rec.seq = seq;
  rec.tag = tag;
  rec.parent_seq = parent_seq;
  if (auto it = pending_edges_.find(seq); it != pending_edges_.end()) {
    rec.extra_pred_seqs = std::move(it->second);
    pending_edges_.erase(it);
  }
  group_index_[seq] = group_.size();
  group_.push_back(std::move(rec));
}

void RaceDetector::AddEdge(uint64_t from_seq, uint64_t to_seq) {
  if (from_seq == kNoEventSeq) return;
  pending_edges_[to_seq].push_back(from_seq);
}

void RaceDetector::RecordAccess(std::string cell, AccessKind kind) {
  if (group_.empty()) return;  // outside any event: sequential by construction
  ++accesses_recorded_;
  const uint8_t bit = kind == AccessKind::kWrite ? kWriteBit : kReadBit;
  group_.back().cells[std::move(cell)] |= bit;
}

void RaceDetector::Finalize() {
  if (group_open_) FlushGroup();
  group_open_ = false;
  pending_edges_.clear();
}

void RaceDetector::FlushGroup() {
  const size_t n = group_.size();
  if (n == 0) return;

  if (trace_armed_ && group_time_ == trace_time_) {
    std::fprintf(stderr, "-- time-group @t=%lldus (%zu events) --\n",
                 static_cast<long long>(group_time_), n);
    for (const EventRec& rec : group_) {
      std::string line = "  seq=" + std::to_string(rec.seq) +
                         " tag=" + TagOf(rec);
      if (rec.parent_seq != kNoEventSeq) {
        line += " parent=" + std::to_string(rec.parent_seq);
      }
      for (const uint64_t pred : rec.extra_pred_seqs) {
        line += " pred=" + std::to_string(pred);
      }
      for (const auto& [cell, mask] : rec.cells) {
        line += std::string(" ") + MaskName(mask) + ":" + cell;
      }
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  // Ancestor closure over intra-group happens-before edges. Execution
  // order is a topological order (every edge points from an event that
  // already ran to one that ran later), so one forward pass suffices.
  // ancestors[i] is a bitset over group indices, packed into words.
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> ancestors(n * words, 0);
  auto mark = [&](size_t i, size_t pred) {
    // pred and all of pred's ancestors become ancestors of i.
    for (size_t w = 0; w < words; ++w) {
      ancestors[i * words + w] |= ancestors[pred * words + w];
    }
    ancestors[i * words + pred / 64] |= uint64_t{1} << (pred % 64);
  };
  for (size_t i = 0; i < n; ++i) {
    const EventRec& rec = group_[i];
    if (auto it = group_index_.find(rec.parent_seq); it != group_index_.end()) {
      mark(i, it->second);
    }
    for (const uint64_t pred_seq : rec.extra_pred_seqs) {
      if (auto it = group_index_.find(pred_seq); it != group_index_.end()) {
        mark(i, it->second);
      }
    }
  }
  auto is_ancestor = [&](size_t maybe_pred, size_t i) {
    return (ancestors[i * words + maybe_pred / 64] >>
            (maybe_pred % 64)) & 1U;
  };

  // Group accessors by cell, then flag unordered conflicting pairs.
  std::map<std::string, std::vector<std::pair<size_t, uint8_t>>> by_cell;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [cell, mask] : group_[i].cells) {
      by_cell[cell].push_back({i, mask});
    }
  }
  for (const auto& [cell, accessors] : by_cell) {
    if (accessors.size() < 2 || Suppressed(cell)) continue;
    for (size_t a = 0; a < accessors.size(); ++a) {
      for (size_t b = a + 1; b < accessors.size(); ++b) {
        const auto [i, mask_i] = accessors[a];
        const auto [j, mask_j] = accessors[b];
        if (((mask_i | mask_j) & kWriteBit) == 0) continue;  // read-read
        // i executed before j; they are ordered iff i is an HB ancestor
        // of j (j can never be an ancestor of i: edges point forward).
        if (is_ancestor(i, j)) continue;
        if (reports_.size() >= kMaxReports) {
          truncated_ = true;
          continue;
        }
        Report report;
        report.time = group_time_;
        report.cell = cell;
        report.seq_first = group_[i].seq;
        report.seq_second = group_[j].seq;
        report.tag_first = TagOf(group_[i]);
        report.tag_second = TagOf(group_[j]);
        report.mask_first = mask_i;
        report.mask_second = mask_j;
        if (!seen_.insert({report.cell, report.tag_first, report.tag_second})
                 .second) {
          continue;  // same provenance pair already reported for this cell
        }
        reports_.push_back(std::move(report));
      }
    }
  }

  group_.clear();
  group_index_.clear();
}

}  // namespace paxoscp::sim
