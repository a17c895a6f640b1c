// Write-ahead-log data model (paper §3.2).
//
// Each transaction group has one log; each log position holds one LogEntry;
// a LogEntry is an *ordered list* of transactions (a single transaction
// under basic Paxos; possibly several under Paxos-CP combination). The
// entry is the "value" that a Paxos instance decides for that position.
//
// TxnRecords carry full read provenance (which transaction wrote the version
// each read observed) so that the serializability checker can validate the
// reads-from relation of the final history.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace paxoscp::wal {

/// A data item inside a transaction group: a (row, attribute) pair.
/// The paper's evaluation uses a single row whose attributes are the items.
struct ItemId {
  std::string row;
  std::string attribute;

  bool operator==(const ItemId&) const = default;
  bool operator<(const ItemId& other) const {
    if (row != other.row) return row < other.row;
    return attribute < other.attribute;
  }
  std::string ToString() const { return row + "." + attribute; }
};

/// Reserved attribute name marking a whole-row predicate read in a read
/// set: a transaction that read the entire row (Txn::ReadRow) observed
/// which attributes exist, so its read record must conflict with *any*
/// write to the row — including writes creating attributes it saw as
/// absent (phantom protection). Never used as a real attribute name and
/// never appears in write sets.
inline constexpr char kWholeRowAttribute[] = "*";

/// True for attribute names applications may not use (currently only the
/// whole-row marker). Every entry point accepting user attributes —
/// Txn::Read/Write/WriteRow, Cluster::LoadInitialRow — must reject these
/// with ReservedAttributeError() so the marker never enters data rows.
inline bool IsReservedAttribute(std::string_view attribute) {
  return attribute == kWholeRowAttribute;
}

inline Status ReservedAttributeError() {
  return Status::InvalidArgument(std::string("attribute name '") +
                                 kWholeRowAttribute +
                                 "' is reserved for whole-row reads");
}

/// One read performed by a transaction, with observed provenance:
/// the id of the transaction whose write produced the value we saw and the
/// log position of that write (0/0 for the initial, unwritten state).
struct ReadRecord {
  ItemId item;
  TxnId observed_writer = 0;
  LogPos observed_pos = 0;

  bool operator==(const ReadRecord&) const = default;
};

/// One buffered write of a transaction.
struct WriteRecord {
  ItemId item;
  std::string value;

  bool operator==(const WriteRecord&) const = default;
};

/// What a TxnRecord in the log *is* (design note D8, cross-group commit).
/// Ordinary single-group transactions are kData records. Every record's
/// encoding starts with its kind, and only prepares and decides carry
/// fields after the writes.
enum class RecordKind : uint8_t {
  kData = 0,     // single-group commit: writes take effect at this position
  kPrepare = 1,  // 2PC phase 1 of a cross-group txn: reads/writes of THIS
                 // group, effectful only once a commit decision is decided
  kDecide = 2,   // 2PC phase 2: the commit/abort decision, no reads/writes
};

/// A committed (or commit-attempting) transaction's payload: everything
/// needed to replicate it and to decide conflicts against it.
struct TxnRecord {
  TxnId id = 0;
  DcId origin_dc = kNoDc;
  /// The log position whose snapshot all reads observed (paper (A2)).
  LogPos read_pos = 0;
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;

  RecordKind kind = RecordKind::kData;
  /// kPrepare only: global commit-ordering timestamp. Committed cross-group
  /// prepares must appear in every group's log in increasing (cross_ts, id)
  /// order — that shared total order is what makes the union of the
  /// per-group serial orders acyclic (D8).
  uint64_t cross_ts = 0;
  /// kPrepare only: every participant group, sorted; front() is the commit
  /// group, whose first (lowest-position) decide record is the canonical
  /// transaction outcome.
  std::vector<std::string> participants;
  /// kDecide only: true = commit, false = abort.
  bool commit_decision = false;

  bool operator==(const TxnRecord&) const = default;

  /// True if this transaction read item `it`.
  bool Reads(const ItemId& it) const;
  /// True if this transaction writes an item covered by `it`. `it` is a
  /// read-set item: a whole-row predicate read (attribute ==
  /// kWholeRowAttribute) covers every write to that row.
  bool Writes(const ItemId& it) const;
};

/// The value decided for one log position: an ordered list of transactions.
/// Apply order is list order; later writes of the same item win.
struct LogEntry {
  std::vector<TxnRecord> txns;
  /// Datacenter of the client that proposed the winning value; it is the
  /// leader for the next log position (paper §4.1, "Paxos Optimizations").
  DcId winner_dc = kNoDc;

  bool operator==(const LogEntry&) const = default;

  /// Serializes to a compact binary string (varint-based).
  std::string Encode() const;
  /// Parses an encoded entry; Corruption on malformed input.
  static Result<LogEntry> Decode(std::string_view data);

  /// Content fingerprint; two entries are the same Paxos value iff their
  /// fingerprints match (used for vote counting and R1 checks).
  uint64_t Fingerprint() const;

  bool ContainsTxn(TxnId id) const;
  /// True if a record with this id AND kind is present. Proposers must use
  /// this (not ContainsTxn) to decide whether *their* record landed: a
  /// recovery decide carries the same txn id as the prepare it resolves,
  /// so an id-only match would mistake a forced abort for a landed prepare.
  bool ContainsRecord(TxnId id, RecordKind kind) const;
  /// True if transaction `t` reads any item written by any transaction in
  /// this entry (the paper's promotion conflict test).
  bool WritesItemReadBy(const TxnRecord& t) const;

  /// True if any record is a cross-group prepare/decide (the WAL keeps
  /// side tables for those entries).
  bool HasCrossRecords() const;

  /// First decide record for `id` in list order, nullptr if none.
  const TxnRecord* FindDecide(TxnId id) const;
  /// First prepare record for `id` in list order, nullptr if none.
  const TxnRecord* FindPrepare(TxnId id) const;

  std::string ToString() const;
};

}  // namespace paxoscp::wal
