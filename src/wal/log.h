// Per-datacenter replicated write-ahead log, stored inside the local
// multi-version key-value store (as Megastore stores its log in Bigtable).
//
// The log provides:
//   * SetEntry / GetEntry — decided values per position, idempotent, with a
//     local (R1) guard: conflicting re-writes of a position are rejected as
//     Corruption, which would indicate a Paxos safety violation, and
//     recorded so the checker reports them (RejectedPositions).
//   * ApplyThrough — the "background process or as needed to serve a read
//     request" application of committed writes to data rows (paper §3.2),
//     stamping each write with its commit log position and recording
//     per-attribute provenance so reads can report which transaction's
//     write they observed.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kvstore/store.h"
#include "wal/log_entry.h"

namespace paxoscp::wal {

/// Value + provenance returned by snapshot reads. A read of a never-written
/// item yields the initial state: empty value, writer 0, position 0.
struct ItemRead {
  std::string value;
  TxnId writer = 0;
  LogPos written_pos = 0;
  bool found = false;  // false => initial state
};

/// A cross-group transaction's commit/abort decision as recorded in one
/// group's log (design note D8). `pos` is the lowest-position decide record
/// this replica has seen; in the transaction's commit group the lowest
/// decide in the log is the canonical outcome.
struct CrossDecision {
  bool known = false;
  bool commit = false;
  LogPos pos = 0;
};

/// A prepared-but-undecided cross-group transaction in this replica's log:
/// its writes are held back from the data rows (and the read position is
/// held below `pos`) until a decide record is learned.
struct PendingPrepare {
  LogPos pos = 0;
  TxnId txn = 0;
};

/// Prepare-record metadata indexed by transaction id (recovery reads this
/// to find the participant list and the commit group).
struct PrepareInfo {
  bool known = false;
  LogPos pos = 0;
  std::vector<std::string> participants;
};

class WriteAheadLog {
 public:
  WriteAheadLog(kvstore::MultiVersionStore* store, std::string group);

  const std::string& group() const { return group_; }

  /// Records the decided entry for `pos`. Idempotent; returns Corruption if
  /// a different value was already decided for this position (R1 violation),
  /// keeping the first value and recording `pos` in RejectedPositions.
  Status SetEntry(LogPos pos, const LogEntry& entry);

  /// Reads the decided entry at `pos`; NotFound if this replica has not
  /// learned it yet.
  Result<LogEntry> GetEntry(LogPos pos) const;

  bool HasEntry(LogPos pos) const;

  /// First position in [from, to] without a local entry, 0 if there is
  /// none (an empty range has none).
  LogPos FirstMissing(LogPos from, LogPos to) const;

  /// Highest position this replica knows to be decided (0 = none). This is
  /// the "read position" handed to new transactions (paper step 1).
  LogPos MaxDecided() const;

  /// Read position safe to hand to a new transaction: MaxDecided(), held
  /// strictly below the oldest prepared-but-undecided cross-group prepare
  /// (D8: nothing may read at or past a prepare until its fate is known).
  /// Identical to MaxDecided() when no cross-group prepare is pending.
  LogPos SafeReadPos() const;

  /// Highest L such that every position 1..L has a local entry (advances
  /// and persists a marker; cross-group begins use this so the ordering
  /// marker provably covers the whole prefix a transaction reads under).
  LogPos ContiguousFrontier();

  /// Prepared-but-undecided cross-group transactions known to this
  /// replica, ascending by prepare position.
  std::vector<PendingPrepare> PendingPrepares() const;

  /// Lowest-position decide record seen for cross transaction `id`.
  CrossDecision DecisionFor(TxnId id) const;

  /// Prepare-record metadata for cross transaction `id`, if this replica
  /// has its prepare entry.
  PrepareInfo PrepareFor(TxnId id) const;

  /// Max cross_ts over every cross-group prepare this replica has seen —
  /// the commit-order watermark new cross transactions must exceed.
  uint64_t MaxCrossTs() const;

  /// Highest position whose writes have been applied to the data rows.
  LogPos AppliedThrough() const;

  /// Applies decided entries (AppliedThrough, target] to the data rows.
  /// Returns FailedPrecondition if this replica has a gap — `first_missing`
  /// (when non-null) receives the first missing position, which the caller
  /// (TransactionService) must learn via Paxos before retrying.
  ///
  /// D8: an entry containing a prepared-but-undecided cross-group record
  /// holds the applied watermark at the position before it — its writes
  /// take effect at this position iff the canonical decision is commit,
  /// so nothing at or beyond it may be applied first. In that case the
  /// status is FailedPrecondition with `first_missing` = the stalled
  /// position and `undecided` (when non-null) = the waiting transaction;
  /// the caller resolves it by learning later entries (which carry the
  /// decide record) rather than the stalled position itself.
  Status ApplyThrough(LogPos target, LogPos* first_missing = nullptr,
                      TxnId* undecided = nullptr);

  /// Snapshot read of one item at `read_pos` (requires ApplyThrough has
  /// reached read_pos; the TransactionService guarantees this).
  ItemRead ReadItem(const ItemId& item, LogPos read_pos) const;

  /// Snapshot read of every value attribute of `row` at `read_pos`, with
  /// per-attribute provenance decoded from the shadow attributes (which
  /// are not returned). A missing row yields an empty vector.
  std::vector<std::pair<std::string, ItemRead>> ReadRow(
      const std::string& row, LogPos read_pos) const;

  /// Loads initial data rows at position 0 (the pre-transaction state used
  /// by workload setup). Writes value attributes only; provenance is 0/0.
  Status LoadInitialRow(const std::string& row,
                        const kvstore::AttributeMap& attributes);

  /// All decided entries, for invariant checking.
  std::map<LogPos, LogEntry> AllEntries() const;

  /// Positions where SetEntry rejected a second, different decided value,
  /// ascending. Durable (a side row in the store, written only on that
  /// path), so a service restart does not hide them from the checker.
  std::vector<LogPos> RejectedPositions() const;

  /// Key of a data row in the underlying store (exposed for tests).
  std::string DataKey(const std::string& row) const;

 private:
  std::string EntryKey(LogPos pos) const;
  std::string MetaKey() const;
  std::string AppliedKey() const;
  std::string PrepareKey(TxnId id) const;
  /// Single row holding the whole pending set: one attribute per
  /// prepared-but-undecided transaction, named "<padded pos>/<id>" so the
  /// map's attribute order is prepare-position order. One key per group
  /// keeps SafeReadPos O(1) in store lookups — it runs on EVERY begin.
  std::string PendingKey() const;
  std::string DecisionKey(TxnId id) const;
  std::string CrossMaxKey() const;
  std::string FrontierKey() const;
  /// Row of rejected second values: one attribute per position, named by
  /// its padded position so attribute order is position order.
  std::string RejectedKey() const;

  void BumpMaxDecided(LogPos pos);

  /// Maintains the cross-group side tables (prepare index, pending set,
  /// decision markers, commit-order watermark) for a newly stored entry.
  void NoteCrossRecords(LogPos pos, const LogEntry& entry);

  /// Removes `id` from the pending set of prepare position `pos` (no-op if
  /// absent).
  void ClearPending(LogPos pos, TxnId id);

  kvstore::MultiVersionStore* store_;
  std::string group_;
};

/// Zero-padded decimal rendering of a log position so lexicographic key
/// order matches numeric order in prefix scans.
std::string PadPos(LogPos pos);

}  // namespace paxoscp::wal
