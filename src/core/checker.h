// Correctness checkers for the replicated log and the executed history.
//
// After a run, these validate the paper's correctness obligations (§3):
//   (R1)     no two datacenter logs disagree on a position, and no replica
//            rejected a second decided value for one;
//   (L1/L2)  exactly the committed transactions appear in the log, each in
//            exactly one position;
//   (L3)     the log is a one-copy serializable history: replaying entries
//            in log order (transactions within an entry in list order),
//            every read of every committed transaction observed precisely
//            the latest preceding write of that item in the serial order;
//   plus an independent multi-version serialization graph (MVSG) build
//   whose acyclicity re-confirms one-copy serializability.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/cluster.h"
#include "wal/log_entry.h"

namespace paxoscp::core {

/// What the test/benchmark harness observed for one transaction attempt,
/// used to cross-check client-visible outcomes against the log.
struct ClientOutcome {
  TxnId id = 0;
  bool committed = false;
  bool read_only = false;
  /// Client-reported commit position (committed read/write txns only).
  LogPos position = 0;
  /// True when the client never learned its outcome (crash / unavailable);
  /// such transactions may legitimately appear in the log or not.
  bool unknown = false;
  /// The group a single-group transaction ran on. Required: the checker
  /// matches outcomes to groups by this name.
  std::string group;
  /// Cross-group transactions: the participant groups (empty = single).
  std::vector<std::string> groups;
};

/// Canonical fate of a cross-group transaction (D8): determined by the
/// first decide record in its commit group's log.
enum class CrossFate { kCommitted, kAborted, kUndecided };

struct CheckReport {
  bool ok = true;
  std::vector<std::string> violations;

  // Statistics gathered while checking.
  LogPos max_position = 0;
  int committed_txns_in_log = 0;
  int combined_entries = 0;   // entries carrying more than one transaction
  int combined_txns = 0;      // transactions beyond the first, summed

  void Violation(std::string message);
  std::string ToString() const;
};

class Checker {
 public:
  explicit Checker(Cluster* cluster) : cluster_(cluster) {}

  /// Runs every check over `groups` (one group or many): per-group
  /// R1/contiguity, L1/L2 against `outcomes` and decision-aware L3 replay,
  /// plus the cross-group obligations (D8) — atomicity (a canonically
  /// committed transaction prepared in every participant group; no group
  /// applies a decision other than the canonical one), the shared commit
  /// order of committed prepares, and a *global* MVSG over the union of
  /// all groups (cross transactions are shared nodes; the union must be
  /// acyclic for one-copy serializability of the whole sharded history,
  /// not just of each group). `outcomes` may be empty, in which case the
  /// client-visible checks are skipped; an outcome naming a group outside
  /// `groups` is a violation, never a silent skip.
  CheckReport CheckAllCross(const std::vector<std::string>& groups,
                            const std::vector<ClientOutcome>& outcomes);

  /// (R1), including second values a replica rejected, + log contiguity.
  /// Also merges all replicas' entries into one global log (any replica
  /// may be missing suffix entries).
  CheckReport CheckReplication(const std::string& group,
                               std::map<LogPos, wal::LogEntry>* global_log);

  /// (L1)/(L2) against client outcomes.
  static void CheckOutcomes(const std::map<LogPos, wal::LogEntry>& log,
                            const std::vector<ClientOutcome>& outcomes,
                            CheckReport* report);

  /// Fate of every cross-group transaction prepared in `log`, resolved
  /// against that log's decide records (in a participant group all decides
  /// are canonical copies; in the commit group the first decide wins).
  static std::map<TxnId, CrossFate> ResolveDecisions(
      const std::map<LogPos, wal::LogEntry>& log);

  /// (L3): serial replay validating every read's observed provenance.
  /// `decisions` resolves cross-group prepares: committed prepares take
  /// effect at their prepare position, aborted/undecided ones are no-ops,
  /// decide records are never effectful. Single-group histories pass an
  /// empty map.
  static void CheckOneCopySerializability(
      const std::map<LogPos, wal::LogEntry>& log,
      const std::map<TxnId, CrossFate>& decisions, CheckReport* report);

  /// Standalone-group forms, resolving decisions from the log itself (the
  /// right thing for one group: its decide records are canonical copies):
  /// the serial replay above, and MVSG acyclicity (the independent
  /// validation path, same decision semantics).
  static void CheckOneCopySerializability(
      const std::map<LogPos, wal::LogEntry>& log, CheckReport* report) {
    CheckOneCopySerializability(log, ResolveDecisions(log), report);
  }
  static void CheckSerializationGraph(
      const std::map<LogPos, wal::LogEntry>& log, CheckReport* report);

 private:
  Cluster* cluster_;
};

}  // namespace paxoscp::core
