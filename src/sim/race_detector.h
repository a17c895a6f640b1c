// Schedule-order race detector (docs/ARCHITECTURE.md, design note D12).
//
// The simulator executes events in (time, seq) order where seq is
// *insertion order* — deterministic, but arbitrary: two events at the same
// virtual time whose handlers touch shared state without a true ordering
// constraint produce a result that silently depends on which Schedule call
// ran first in the source. This detector makes that dependence visible.
//
// Model:
//  * Cell   — a named unit of shared state ("kv/3/account:7",
//             "kv/1/!xpend/<group>", "net/dc/0"). Layers record reads/writes
//             through the hooks in race_hooks.h.
//  * Event  — one simulator callback execution, identified by its seq and
//             carrying the creation-site tag threaded through Schedule.
//  * Edge   — a happens-before constraint between two events at the SAME
//             virtual time: parent→spawned-child (an event scheduled
//             during another's execution can never run before it at an
//             equal timestamp) and promise-completion (suspend-event →
//             resume-event, contributed by the coroutine layer).
//  * Race   — two events at the same virtual time, neither an HB ancestor
//             of the other, accessing the same cell with at least one
//             write. Events at different virtual times are always ordered
//             by time and never conflict.
//
// Because virtual time is monotone, all events of one timestamp execute
// contiguously; the detector buffers one time-group at a time and analyzes
// it when time advances, so memory stays bounded by the widest group.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "sim/race_hooks.h"
#include "sim/simulator.h"

namespace paxoscp::sim {

class RaceDetector {
 public:
  using AccessKind = race::AccessKind;

  /// Access mask bits (an event may both read and write one cell).
  static constexpr uint8_t kReadBit = 1;
  static constexpr uint8_t kWriteBit = 2;

  struct Report {
    TimeMicros time = 0;
    std::string cell;
    uint64_t seq_first = 0;  ///< lower-seq (earlier-executed) event
    uint64_t seq_second = 0;
    std::string tag_first;
    std::string tag_second;
    uint8_t mask_first = 0;
    uint8_t mask_second = 0;

    /// One-line human-readable form for logs and test failure messages.
    std::string Describe() const;
  };

  RaceDetector() = default;
  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  // --- configuration -------------------------------------------------

  /// Ignores cells whose name starts with `prefix`. Suppressions are for
  /// cells whose same-time access order is proven irrelevant (documented
  /// at the suppression site); they must name the narrowest prefix that
  /// covers the cell family.
  void SuppressCellPrefix(std::string prefix);

  /// Dumps the full time-group at virtual time `t` to stderr when it
  /// flushes (every event's seq, tag, parent, extra HB predecessors, and
  /// cell accesses). The divergence-diagnosis companion to the shuffle
  /// minimizer: minimize to the first diverging timestamp, then trace it.
  void TraceTime(TimeMicros t) { trace_time_ = t; trace_armed_ = true; }

  // --- simulator lifecycle (called by Simulator, not by users) --------

  /// A new event started executing. Flushes the previous time-group when
  /// `time` advanced. `tag` is the creation-site tag (may be null) and
  /// must outlive the detector (string literals at every call site).
  void OnEventBegin(uint64_t seq, TimeMicros time, const char* tag,
                    uint64_t parent_seq);

  /// Adds a happens-before edge from an already-executed event to a
  /// not-yet-executed one (promise-completion: suspend → resume).
  void AddEdge(uint64_t from_seq, uint64_t to_seq);

  /// Records one shared-state access by the currently executing event.
  void RecordAccess(std::string cell, AccessKind kind);

  // --- results --------------------------------------------------------

  /// Flushes the open time-group. Call after the run completes and before
  /// reading reports().
  void Finalize();

  const std::vector<Report>& reports() const { return reports_; }

  /// True when the report list hit its cap and further conflicts were
  /// dropped (the run is racy enough that more reports add nothing).
  bool truncated() const { return truncated_; }

  uint64_t events_observed() const { return events_observed_; }
  uint64_t accesses_recorded() const { return accesses_recorded_; }

 private:
  struct EventRec {
    uint64_t seq = 0;
    const char* tag = nullptr;
    uint64_t parent_seq = kNoEventSeq;
    std::vector<uint64_t> extra_pred_seqs;  // promise-completion edges
    std::map<std::string, uint8_t> cells;   // cell -> access mask
  };

  void FlushGroup();
  bool Suppressed(const std::string& cell) const;
  static std::string TagOf(const EventRec& rec);

  bool group_open_ = false;
  TimeMicros group_time_ = 0;
  TimeMicros trace_time_ = 0;
  bool trace_armed_ = false;
  std::vector<EventRec> group_;             // execution order == topo order
  std::map<uint64_t, size_t> group_index_;  // seq -> index into group_
  /// Edges whose target event has not begun yet, keyed by target seq.
  std::map<uint64_t, std::vector<uint64_t>> pending_edges_;
  std::vector<std::string> suppress_prefixes_;
  /// Dedup key: (cell, tag_first, tag_second) — one report per distinct
  /// provenance pair per cell, not one per dynamic occurrence.
  std::set<std::tuple<std::string, std::string, std::string>> seen_;
  std::vector<Report> reports_;
  bool truncated_ = false;
  uint64_t events_observed_ = 0;
  uint64_t accesses_recorded_ = 0;
  static constexpr size_t kMaxReports = 1000;
};

}  // namespace paxoscp::sim
