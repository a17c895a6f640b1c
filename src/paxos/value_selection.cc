#include "paxos/value_selection.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace paxoscp::paxos {

std::optional<wal::LogEntry> FindWinningValue(
    const std::vector<LastVote>& votes) {
  const LastVote* best = nullptr;
  for (const LastVote& v : votes) {
    if (!v.value.has_value()) continue;
    if (best == nullptr || v.ballot > best->ballot) best = &v;
  }
  if (best == nullptr) return std::nullopt;
  return *best->value;
}

bool CanAppend(const std::vector<wal::TxnRecord>& list,
               const wal::TxnRecord& txn) {
  for (const wal::ReadRecord& r : txn.reads) {
    for (const wal::TxnRecord& earlier : list) {
      if (earlier.Writes(r.item)) return false;
    }
  }
  return true;
}

namespace {

/// Depth-first search over subsets and orders of `candidates`, extending
/// `list` in place; tracks the best (longest) extension found.
void SearchOrders(std::vector<wal::TxnRecord>* list,
                  std::vector<wal::TxnRecord>* candidates,
                  std::vector<bool>* used, size_t base_size,
                  std::vector<wal::TxnRecord>* best) {
  if (list->size() > best->size()) *best = *list;
  if (best->size() == base_size + candidates->size()) return;  // all placed
  for (size_t i = 0; i < candidates->size(); ++i) {
    if ((*used)[i]) continue;
    if (!CanAppend(*list, (*candidates)[i])) continue;
    (*used)[i] = true;
    list->push_back((*candidates)[i]);
    SearchOrders(list, candidates, used, base_size, best);
    list->pop_back();
    (*used)[i] = false;
  }
}

}  // namespace

wal::LogEntry CombineTransactions(const wal::LogEntry& own,
                                  const std::vector<wal::TxnRecord>& candidates,
                                  const CombinePolicy& policy) {
  wal::LogEntry combined = own;
  // Deduplicate candidates against our own transactions and one another.
  std::set<TxnId> seen;
  for (const wal::TxnRecord& t : combined.txns) seen.insert(t.id);
  std::vector<wal::TxnRecord> pool;
  for (const wal::TxnRecord& t : candidates) {
    if (seen.insert(t.id).second) pool.push_back(t);
  }
  if (pool.empty() || !policy.enabled) return combined;

  if (static_cast<int>(pool.size()) <= kExhaustiveLimit) {
    std::vector<wal::TxnRecord> best = combined.txns;
    std::vector<bool> used(pool.size(), false);
    std::vector<wal::TxnRecord> list = combined.txns;
    SearchOrders(&list, &pool, &used, combined.txns.size(), &best);
    combined.txns = std::move(best);
  } else {
    // Greedy single pass (paper: "a simple greedy approach can be used,
    // making one pass over the transaction list").
    for (const wal::TxnRecord& t : pool) {
      if (CanAppend(combined.txns, t)) combined.txns.push_back(t);
    }
  }
  return combined;
}

SelectionDecision EnhancedFindWinningValue(const std::vector<LastVote>& votes,
                                           int responses_received,
                                           int total_datacenters,
                                           const wal::LogEntry& own,
                                           const CombinePolicy& policy) {
  const int d = total_datacenters;
  // The paper promotes whenever one value has more than D/2 votes across
  // any mix of ballots, but only a majority of votes at the *same* ballot
  // proves the value is chosen (votes for one value cast at different
  // ballots can still lose to a competing adoption), so we promote on the
  // sound same-ballot condition and otherwise fall through to the basic
  // rule, which drives the instance to its decided outcome — after which
  // the client promotes with certainty (see docs/ARCHITECTURE.md, note D1).
  const wal::LogEntry* chosen =
      ChosenAtOneBallot(votes, Quorum(d), [](const LastVote& v) {
        return std::pair(v.ballot, v.value ? &*v.value : nullptr);
      });
  const bool own_in_chosen =
      chosen != nullptr && !own.txns.empty() &&
      std::all_of(own.txns.begin(), own.txns.end(),
                  [&](const wal::TxnRecord& t) {
                    // Id AND kind: a recovery decide reuses the id of the
                    // prepare it resolves, and must read as a loss here.
                    return chosen->ContainsRecord(t.id, t.kind);
                  });
  SelectionDecision decision;
  if (chosen != nullptr && !own_in_chosen) {
    decision.kind = SelectionKind::kLost;
    decision.value = *chosen;
    return decision;
  }

  // Tally votes per distinct value (by fingerprint) for the combination
  // window.
  std::map<uint64_t, int> tally;
  std::map<uint64_t, const wal::LogEntry*> values;
  for (const LastVote& v : votes) {
    if (!v.value.has_value()) continue;
    const uint64_t fp = v.value->Fingerprint();
    tally[fp]++;
    values[fp] = &*v.value;
  }
  int max_votes = 0;
  for (const auto& [fp, count] : tally) max_votes = std::max(max_votes, count);

  if (max_votes + (d - responses_received) < Quorum(d)) {
    // No value can have reached a majority: the proposer may choose freely,
    // so it combines every compatible discovered transaction with its own
    // (paper §5 "Combination").
    std::vector<wal::TxnRecord> candidates;
    for (const auto& [fp, entry] : values) {
      for (const wal::TxnRecord& t : entry->txns) candidates.push_back(t);
    }
    wal::LogEntry combined = CombineTransactions(own, candidates, policy);
    decision.kind = SelectionKind::kPropose;
    decision.combined_txns = static_cast<int>(combined.txns.size()) -
                             static_cast<int>(own.txns.size());
    decision.combined = decision.combined_txns > 0;
    decision.value = std::move(combined);
    return decision;
  }

  // A value may be ahead (max_votes > d/2 across mixed ballots) without
  // being decided; revert to the basic Paxos selection rule, which adopts
  // the highest-ballot vote and drives the instance to its outcome.
  std::optional<wal::LogEntry> winning = FindWinningValue(votes);
  decision.kind = SelectionKind::kPropose;
  decision.value = winning.has_value() ? *std::move(winning) : own;
  return decision;
}

}  // namespace paxoscp::paxos
