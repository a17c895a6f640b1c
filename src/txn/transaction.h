// Client-side transaction state and commit-outcome types.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "paxos/value_selection.h"
#include "wal/log.h"
#include "wal/log_entry.h"

namespace paxoscp::net {
struct DelayStream;
}  // namespace paxoscp::net

namespace paxoscp::txn {

/// Which commit protocol a client runs (paper §4 vs §5).
enum class Protocol {
  kBasicPaxos,
  kPaxosCP,
};

const char* ProtocolName(Protocol protocol);

/// Client-side state of one active (uncommitted) transaction on one group:
/// read position, read set and buffered writes. Exists only inside one
/// application instance (paper §2.2); lost state means an implicit abort.
/// Owned by its `Txn` handle, or by a `CrossTxn` as one leg, and
/// heap-allocated so the address stays stable across handle moves —
/// in-flight operation coroutines hold a pointer to it.
struct TxnState {
  std::string group;
  TxnId id = 0;
  LogPos read_pos = 0;
  DcId leader_dc = kNoDc;  // leader for read_pos + 1
  /// The read set: the first observation of each item, with its value and
  /// provenance. Every read is served at `read_pos`, so a repeated read
  /// returns the recorded value. A whole-row predicate read is the entry
  /// {row, kWholeRowAttribute} with initial provenance.
  std::map<wal::ItemId, wal::ItemRead> reads;
  /// Buffered writes, keyed by item; last write wins.
  std::map<wal::ItemId, std::string> writes;
  /// The delay stream this transaction's messages draw from: a cross-group
  /// leg's (TransactionClient::LegStream), null for a single-group
  /// transaction, which uses the network's shared stream.
  net::DelayStream* stream = nullptr;

  /// Freezes this transaction into the replicable record. Both sets are
  /// listed in item order, so the record's bytes do not depend on the
  /// order in which concurrent reads were answered.
  wal::TxnRecord ToRecord(DcId origin_dc) const;
};

/// Result of TransactionClient::Commit, with the bookkeeping the paper's
/// evaluation reports (promotion rounds, latency).
struct CommitResult {
  /// OK => committed. Aborted => lost to a conflicting transaction.
  /// Unavailable/TimedOut => could not complete the protocol.
  Status status;
  bool committed = false;
  bool read_only = false;
  /// Log position where the transaction was written (committed only).
  LogPos position = 0;
  /// Number of promotions taken (0 = won its first commit position).
  int promotions = 0;
  /// True if the leader fast path (skip prepare) was used successfully.
  bool fast_path = false;
  TimeMicros latency = 0;
};

/// Knobs of the client commit protocol. Defaults reproduce the paper's
/// configuration; every field is one some bench or test varies. What the
/// paper fixes is not a knob: a message times out after the network's
/// default (two seconds, §2.2), a Paxos round keeps collecting answers
/// until every replica answered or timed out unless the answers so far
/// decide it (§5, docs/ARCHITECTURE.md D13), and the sleep between Paxos
/// rounds is uniform in [5, 50) ms (Algorithm 2).
struct ClientOptions {
  /// Basic Paxos or Paxos-CP (the figure benches compare both).
  Protocol protocol = Protocol::kPaxosCP;
  /// Maximum number of promotions before giving up (-1 = unlimited, as in
  /// the paper's evaluation; ablation_knobs caps it).
  int promotion_cap = -1;
  /// Leader-per-log-position fast path (paper §4.1). On by default, as in
  /// the paper's prototype; ablation_knobs turns it off.
  bool leader_optimization = true;
  /// Which votes a Paxos-CP proposer may combine (ablation_knobs varies it).
  paxos::CombinePolicy combine;
  /// Safety valve: give up with Unavailable after this many prepare rounds
  /// for a single log position (the chaos harness lowers it to model
  /// impatient clients).
  int max_rounds_per_position = 32;
  /// Fault-injection hook (D8, tests/chaos only): the coordinator of a
  /// cross-group transaction crashes — abandons the commit, reporting
  /// kUnknownOutcome, without proposing any decide — once this many
  /// prepares have been decided. -1 = never. This is how the harness
  /// creates the "coordinator dies between prepare and decide" window
  /// that 2PC recovery must close.
  int crash_after_prepares = -1;
};

/// True if `txn` reads any item written by a transaction in `winners` — the
/// promotion conflict check (paper §5): a losing transaction may only be
/// promoted past entries whose writes it did not read.
bool PromotionConflicts(const wal::TxnRecord& txn,
                        const wal::LogEntry& winners);

/// Items both read by `txn` and written by `winners` (diagnostics/tests).
std::vector<wal::ItemId> ConflictingItems(const wal::TxnRecord& txn,
                                          const wal::LogEntry& winners);

}  // namespace paxoscp::txn
