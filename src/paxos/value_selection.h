// Proposer-side value selection: findWinningVal (Algorithm 2, lines 66-75)
// for basic Paxos and enhancedFindWinningVal (lines 76-87) for Paxos-CP.
// Pure functions over the collected last-vote responses, so every branch is
// unit-testable without a network.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "paxos/ballot.h"
#include "wal/log_entry.h"

namespace paxoscp::paxos {

/// One acceptor's last-vote response collected during the prepare phase.
struct LastVote {
  DcId dc = kNoDc;
  Ballot ballot;                          // null if the acceptor never voted
  std::optional<wal::LogEntry> value;     // nullopt == bottom
};

/// The same-ballot test (docs/ARCHITECTURE.md, D1): the value that at least
/// `majority` of `votes` carry at one ballot, which is therefore chosen, or
/// null when no ballot has such a majority. `vote_of(element)` yields its
/// (Ballot, const wal::LogEntry*) pair, the value null for bottom or for an
/// element that carries no vote. Votes are counted per ballot first, and
/// values are compared only at a ballot that a majority voted at.
template <typename Votes, typename VoteOf>
const wal::LogEntry* ChosenAtOneBallot(const Votes& votes, int majority,
                                       VoteOf vote_of) {
  for (auto it = votes.begin(); it != votes.end(); ++it) {
    const auto [ballot, value] = vote_of(*it);
    if (value == nullptr) continue;
    int at_ballot = 0;
    for (auto later = it; later != votes.end(); ++later) {
      const auto [b, v] = vote_of(*later);
      if (v != nullptr && b == ballot) ++at_ballot;
    }
    if (at_ballot < majority) continue;
    const uint64_t fingerprint = value->Fingerprint();
    int same_value = 0;
    for (auto later = it; later != votes.end(); ++later) {
      const auto [b, v] = vote_of(*later);
      if (v != nullptr && b == ballot &&
          (v == value || v->Fingerprint() == fingerprint)) {
        ++same_value;
      }
    }
    if (same_value >= majority) return value;
  }
  return nullptr;
}

/// Basic Paxos: the value of the highest-ballot vote, or nullopt when every
/// response carried bottom (in which case the proposer is free to use its
/// own value).
std::optional<wal::LogEntry> FindWinningValue(
    const std::vector<LastVote>& votes);

/// What the enhanced selection decided to do.
enum class SelectionKind {
  /// Propose `value` (own transaction, an adopted prior value, or a
  /// combined list) in the accept phase.
  kPropose,
  /// Another value has certainly won this position (a majority voted for
  /// it at a single ballot) and our transaction is not in it; `value` holds
  /// the winning value so the caller can run the promotion conflict check
  /// (paper §5, "Promotion"). Note: this is a sound refinement of the
  /// paper's `maxVotes > D/2` trigger — see docs/ARCHITECTURE.md, note D1.
  kLost,
};

struct SelectionDecision {
  SelectionKind kind = SelectionKind::kPropose;
  wal::LogEntry value;
  bool combined = false;        // true when kPropose proposes a merged list
  int combined_txns = 0;        // transactions merged in beyond our own
};

struct CombinePolicy {
  bool enabled = true;
  /// Up to this many candidate transactions the search over subsets and
  /// orders is exhaustive ("in practice, the number of transactions to
  /// compare is small, only two or three"); beyond it a greedy single pass
  /// is used, as the paper prescribes.
  int exhaustive_limit = 5;
};

/// enhancedFindWinningVal. `responses_received` is the number of successful
/// prepare responses (|responseSet|); `total_datacenters` is D. `own` must
/// be a single-transaction entry containing the caller's transaction.
SelectionDecision EnhancedFindWinningValue(const std::vector<LastVote>& votes,
                                           int responses_received,
                                           int total_datacenters,
                                           const wal::LogEntry& own,
                                           const CombinePolicy& policy);

/// Builds the longest one-copy-serializable ordered list starting with the
/// transactions of `own`: candidates are appended (subset search, every
/// order, exhaustive up to policy.exhaustive_limit, greedy beyond) such that
/// no transaction in the list reads an item written by any preceding
/// transaction in the list. Returns the combined entry.
wal::LogEntry CombineTransactions(const wal::LogEntry& own,
                                  const std::vector<wal::TxnRecord>& candidates,
                                  const CombinePolicy& policy);

/// True if appending `txn` to `list` keeps the list one-copy serializable
/// (txn reads no item written by a transaction already in the list).
bool CanAppend(const std::vector<wal::TxnRecord>& list,
               const wal::TxnRecord& txn);

}  // namespace paxoscp::paxos
