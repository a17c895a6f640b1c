#include "core/checker.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace paxoscp::core {

void CheckReport::Violation(std::string message) {
  ok = false;
  violations.push_back(std::move(message));
}

std::string CheckReport::ToString() const {
  std::ostringstream os;
  os << (ok ? "OK" : "VIOLATIONS") << " (log through " << max_position << ", "
     << committed_txns_in_log << " committed txns, " << combined_entries
     << " combined entries)";
  for (const std::string& v : violations) os << "\n  - " << v;
  return os.str();
}

CheckReport Checker::CheckReplication(
    const std::string& group, std::map<LogPos, wal::LogEntry>* global_log) {
  CheckReport report;
  global_log->clear();
  std::map<LogPos, uint64_t> fingerprints;
  for (DcId dc = 0; dc < cluster_->num_datacenters(); ++dc) {
    const wal::WriteAheadLog* log = cluster_->service(dc)->GroupLog(group);
    // A replica rejects a second decided value and keeps its first, so the
    // logs below can agree although two values were decided.
    for (const LogPos pos : log->RejectedPositions()) {
      report.Violation("(R1) datacenter " + std::to_string(dc) +
                       " rejected a second decided value for log position " +
                       std::to_string(pos));
    }
    const std::map<LogPos, wal::LogEntry> entries = log->AllEntries();
    for (const auto& [pos, entry] : entries) {
      const uint64_t fp = entry.Fingerprint();
      auto it = fingerprints.find(pos);
      if (it == fingerprints.end()) {
        fingerprints.emplace(pos, fp);
        global_log->emplace(pos, entry);
      } else if (it->second != fp) {
        report.Violation("(R1) datacenter " + std::to_string(dc) +
                         " disagrees on log position " + std::to_string(pos));
      }
    }
  }
  // Contiguity: positions are contested strictly in order (commit position
  // = read position + 1; promotion only advances past decided positions),
  // so the merged log must have no gaps.
  LogPos expected = 1;
  for (const auto& [pos, entry] : *global_log) {
    if (pos != expected) {
      report.Violation("log gap: expected position " +
                       std::to_string(expected) + ", found " +
                       std::to_string(pos));
    }
    expected = pos + 1;
  }
  report.max_position =
      global_log->empty() ? 0 : global_log->rbegin()->first;
  for (const auto& [pos, entry] : *global_log) {
    // Decide records are protocol bookkeeping, not transactions — they
    // count neither as committed transactions nor toward combination.
    int real_txns = 0;
    for (const wal::TxnRecord& t : entry.txns) {
      if (t.kind != wal::RecordKind::kDecide) ++real_txns;
    }
    report.committed_txns_in_log += real_txns;
    if (real_txns > 1) {
      report.combined_entries++;
      report.combined_txns += real_txns - 1;
    }
  }
  return report;
}

void Checker::CheckOutcomes(const std::map<LogPos, wal::LogEntry>& log,
                            const std::vector<ClientOutcome>& outcomes,
                            CheckReport* report) {
  // Index: txn id -> position(s) in the log. Decide records are not
  // transaction appearances (a cross txn's prepare and its decide share
  // the id by design).
  std::map<TxnId, std::vector<LogPos>> where;
  for (const auto& [pos, entry] : log) {
    for (const wal::TxnRecord& t : entry.txns) {
      if (t.kind != wal::RecordKind::kDecide) where[t.id].push_back(pos);
    }
  }
  std::set<TxnId> known;
  for (const ClientOutcome& o : outcomes) {
    known.insert(o.id);
    const auto it = where.find(o.id);
    const int appearances =
        it == where.end() ? 0 : static_cast<int>(it->second.size());
    if (appearances > 1) {
      report->Violation("(L2) txn " + TxnIdToString(o.id) + " appears in " +
                        std::to_string(appearances) + " log positions");
    }
    if (o.unknown) continue;  // crashed client: either outcome is legal
    if (o.read_only) {
      if (appearances != 0) {
        report->Violation("read-only txn " + TxnIdToString(o.id) +
                          " appears in the log");
      }
      continue;
    }
    if (o.committed && appearances == 0) {
      report->Violation("(L1) committed txn " + TxnIdToString(o.id) +
                        " missing from the log");
    }
    if (!o.committed && appearances != 0) {
      report->Violation("(L1) aborted txn " + TxnIdToString(o.id) +
                        " present in the log at position " +
                        std::to_string(it->second.front()));
    }
    if (o.committed && appearances == 1 && o.position != 0 &&
        it->second.front() != o.position) {
      report->Violation("txn " + TxnIdToString(o.id) +
                        " reported position " + std::to_string(o.position) +
                        " but is at " + std::to_string(it->second.front()));
    }
  }
  // Transactions in the log but never reported by any client are fine only
  // if the harness passed an incomplete outcome list; flag duplicates
  // within single entries regardless.
  for (const auto& [pos, entry] : log) {
    std::set<TxnId> in_entry;
    for (const wal::TxnRecord& t : entry.txns) {
      if (!in_entry.insert(t.id).second) {
        report->Violation("txn " + TxnIdToString(t.id) +
                          " duplicated within log position " +
                          std::to_string(pos));
      }
    }
  }
}

namespace {

/// Replay state per item: who wrote it last (serially) and where.
struct LastWrite {
  TxnId writer = 0;
  LogPos pos = 0;
};

/// True when `t`'s reads and writes take part in the serial history:
/// ordinary records always do; cross-group prepares only with a canonical
/// commit decision; decide records never (they carry no reads or writes).
bool Effectful(const wal::TxnRecord& t,
               const std::map<TxnId, CrossFate>& decisions) {
  if (t.kind == wal::RecordKind::kData) return true;
  if (t.kind == wal::RecordKind::kDecide) return false;
  auto it = decisions.find(t.id);
  return it != decisions.end() && it->second == CrossFate::kCommitted;
}

}  // namespace

std::map<TxnId, CrossFate> Checker::ResolveDecisions(
    const std::map<LogPos, wal::LogEntry>& log) {
  std::map<TxnId, CrossFate> decisions;
  // First pass: every prepare starts undecided.
  for (const auto& [pos, entry] : log) {
    for (const wal::TxnRecord& t : entry.txns) {
      if (t.kind == wal::RecordKind::kPrepare) {
        decisions.emplace(t.id, CrossFate::kUndecided);
      }
    }
  }
  // Second pass, in log order: the first decide for a transaction wins
  // (in the commit group that makes it canonical by definition; in a
  // participant group every decide is a propagated canonical copy).
  for (const auto& [pos, entry] : log) {
    for (const wal::TxnRecord& t : entry.txns) {
      if (t.kind != wal::RecordKind::kDecide) continue;
      auto [it, inserted] = decisions.emplace(
          t.id,
          t.commit_decision ? CrossFate::kCommitted : CrossFate::kAborted);
      if (!inserted && it->second == CrossFate::kUndecided) {
        it->second =
            t.commit_decision ? CrossFate::kCommitted : CrossFate::kAborted;
      }
    }
  }
  return decisions;
}

void Checker::CheckOneCopySerializability(
    const std::map<LogPos, wal::LogEntry>& log,
    const std::map<TxnId, CrossFate>& decisions, CheckReport* report) {
  // Serial order S: entries by position, transactions within an entry in
  // list order. For each transaction, every read must have observed the
  // latest write to that item preceding the transaction in S — that is the
  // reads-x-from equivalence of Definition 1.
  std::map<wal::ItemId, LastWrite> state;
  /// Last position (in serial order so far) writing any attribute of a
  /// row — validates whole-row predicate reads (Txn::ReadRow).
  std::map<std::string, LogPos> row_last_write;
  for (const auto& [pos, entry] : log) {
    for (const wal::TxnRecord& t : entry.txns) {
      if (!Effectful(t, decisions)) continue;
      for (const wal::ReadRecord& r : t.reads) {
        if (r.item.attribute == wal::kWholeRowAttribute) {
          // Whole-row predicate read (phantom protection): the reader
          // observed the row's attribute set at its read position, so no
          // write to the row may precede it in serial order beyond that
          // snapshot — otherwise an attribute it saw as absent may have
          // been created behind its back.
          auto rw = row_last_write.find(r.item.row);
          if (rw != row_last_write.end() && rw->second > t.read_pos) {
            report->Violation(
                "(L3) txn " + TxnIdToString(t.id) + " at position " +
                std::to_string(pos) + " read whole row '" + r.item.row +
                "' at snapshot " + std::to_string(t.read_pos) +
                " but the row was written at position " +
                std::to_string(rw->second));
          }
          continue;
        }
        LastWrite expected;  // initial state: writer 0 at position 0
        auto it = state.find(r.item);
        if (it != state.end()) expected = it->second;
        if (r.observed_writer != expected.writer ||
            r.observed_pos != expected.pos) {
          report->Violation(
              "(L3) txn " + TxnIdToString(t.id) + " at position " +
              std::to_string(pos) + " read " + r.item.ToString() +
              " from txn " + TxnIdToString(r.observed_writer) + "@" +
              std::to_string(r.observed_pos) + " but serial order expects " +
              TxnIdToString(expected.writer) + "@" +
              std::to_string(expected.pos));
        }
      }
      for (const wal::WriteRecord& w : t.writes) {
        state[w.item] = LastWrite{t.id, pos};
        row_last_write[w.item.row] = pos;
      }
    }
  }
}

namespace {

/// One group's log plus the item namespace its rows live in (groups are
/// independent keyspaces: "row0" in group A and "row0" in group B are
/// different items in the global graph).
struct NamespacedLog {
  const std::map<LogPos, wal::LogEntry>* log = nullptr;
  std::string ns;
};

/// Builds the MVSG over the union of the given logs and reports cycles.
/// Cross-group transactions appear in several logs under one id, so they
/// are shared nodes — exactly what stitches the per-group serial orders
/// into one global graph.
void CheckMvsgOver(const std::vector<NamespacedLog>& logs,
                   const std::map<TxnId, CrossFate>& decisions,
                   CheckReport* report) {
  // Version order per item is the serial apply order. Edges:
  //   WW: each writer -> the next writer of the same item;
  //   WR: writer -> each reader of its version;
  //   RW: each reader of a version -> the writer of the next version.
  // One-copy serializability of the (global) history implies this graph
  // is acyclic.
  struct VersionInfo {
    TxnId writer;
    std::vector<TxnId> readers;
  };
  struct GlobalItem {
    std::string ns;
    wal::ItemId item;
    bool operator<(const GlobalItem& other) const {
      if (ns != other.ns) return ns < other.ns;
      return item < other.item;
    }
  };
  std::map<GlobalItem, std::vector<VersionInfo>> versions;
  std::vector<TxnId> order;
  std::map<TxnId, size_t> index;

  for (const NamespacedLog& nl : logs) {
    for (const auto& [pos, entry] : *nl.log) {
      for (const wal::TxnRecord& t : entry.txns) {
        if (!Effectful(t, decisions)) continue;
        if (index.count(t.id) == 0) {
          index[t.id] = order.size();
          order.push_back(t.id);
        }
        for (const wal::ReadRecord& r : t.reads) {
          auto& chain = versions[GlobalItem{nl.ns, r.item}];
          if (r.observed_writer == 0) {
            // Initial version: model as a virtual version 0 at the front.
            if (chain.empty() || chain.front().writer != 0) {
              chain.insert(chain.begin(), VersionInfo{0, {}});
            }
            chain.front().readers.push_back(t.id);
          } else {
            bool found = false;
            for (VersionInfo& v : chain) {
              if (v.writer == r.observed_writer) {
                v.readers.push_back(t.id);
                found = true;
                break;
              }
            }
            if (!found) {
              report->Violation("MVSG: txn " + TxnIdToString(t.id) +
                                " reads version of " + r.item.ToString() +
                                " written by unknown txn " +
                                TxnIdToString(r.observed_writer));
            }
          }
        }
        for (const wal::WriteRecord& w : t.writes) {
          versions[GlobalItem{nl.ns, w.item}].push_back(VersionInfo{t.id, {}});
        }
      }
    }
  }

  // Adjacency over txn indices (0 = virtual initial txn gets no node).
  const size_t n = order.size();
  std::vector<std::vector<size_t>> adj(n);
  auto add_edge = [&](TxnId from, TxnId to) {
    if (from == 0 || to == 0 || from == to) return;
    adj[index[from]].push_back(index[to]);
  };
  for (const auto& [item, chain] : versions) {
    for (size_t i = 0; i < chain.size(); ++i) {
      if (i + 1 < chain.size()) {
        add_edge(chain[i].writer, chain[i + 1].writer);  // WW
        for (TxnId reader : chain[i].readers) {
          add_edge(reader, chain[i + 1].writer);  // RW
        }
      }
      for (TxnId reader : chain[i].readers) {
        add_edge(chain[i].writer, reader);  // WR
      }
    }
  }

  // Cycle detection via iterative DFS with colors.
  enum Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(n, kWhite);
  for (size_t start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    std::vector<std::pair<size_t, size_t>> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < adj[node].size()) {
        const size_t child = adj[node][next++];
        if (color[child] == kGray) {
          report->Violation("MVSG cycle involving txn " +
                            TxnIdToString(order[child]));
          color[child] = kBlack;  // report once
        } else if (color[child] == kWhite) {
          color[child] = kGray;
          stack.emplace_back(child, 0);
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
      }
    }
  }
}

}  // namespace

void Checker::CheckSerializationGraph(
    const std::map<LogPos, wal::LogEntry>& log, CheckReport* report) {
  CheckMvsgOver({NamespacedLog{&log, ""}}, ResolveDecisions(log), report);
}

CheckReport Checker::CheckAllCross(const std::vector<std::string>& groups,
                                   const std::vector<ClientOutcome>& outcomes) {
  CheckReport report;
  std::map<std::string, std::map<LogPos, wal::LogEntry>> logs;
  for (const std::string& group : groups) {
    CheckReport group_report = CheckReplication(group, &logs[group]);
    for (std::string& v : group_report.violations) {
      report.Violation("[" + group + "] " + std::move(v));
    }
    report.max_position =
        std::max(report.max_position, group_report.max_position);
    report.committed_txns_in_log += group_report.committed_txns_in_log;
    report.combined_entries += group_report.combined_entries;
    report.combined_txns += group_report.combined_txns;
  }

  // ---- Cross-group bookkeeping: prepares per transaction per group, and
  // the canonical fate from each transaction's commit group.
  struct PrepareSite {
    std::string group;
    LogPos pos = 0;
    size_t entry_index = 0;
    const wal::TxnRecord* record = nullptr;
  };
  std::map<TxnId, std::vector<PrepareSite>> prepares;
  for (const auto& [group, log] : logs) {
    for (const auto& [pos, entry] : log) {
      for (size_t i = 0; i < entry.txns.size(); ++i) {
        const wal::TxnRecord& t = entry.txns[i];
        if (t.kind == wal::RecordKind::kPrepare) {
          prepares[t.id].push_back(PrepareSite{group, pos, i, &t});
        }
      }
    }
  }

  std::map<TxnId, CrossFate> canonical;
  for (const auto& [id, sites] : prepares) {
    const wal::TxnRecord& first = *sites.front().record;
    // Participant lists must agree across every prepare of the txn.
    for (const PrepareSite& site : sites) {
      if (site.record->participants != first.participants ||
          site.record->cross_ts != first.cross_ts) {
        report.Violation("cross txn " + TxnIdToString(id) +
                         " has inconsistent prepare metadata across groups");
      }
    }
    if (first.participants.empty()) {
      report.Violation("cross txn " + TxnIdToString(id) +
                       " has an empty participant list");
      canonical[id] = CrossFate::kAborted;
      continue;
    }
    const std::string& commit_group = first.participants.front();
    auto cg = logs.find(commit_group);
    if (cg == logs.end()) {
      report.Violation("cross txn " + TxnIdToString(id) + " names '" +
                       commit_group +
                       "' as commit group, which is not among the checked "
                       "groups");
      canonical[id] = CrossFate::kAborted;
      continue;
    }
    // Canonical fate: the first decide record in the commit group's log.
    CrossFate fate = CrossFate::kUndecided;
    for (const auto& [pos, entry] : cg->second) {
      if (const wal::TxnRecord* d = entry.FindDecide(id)) {
        fate = d->commit_decision ? CrossFate::kCommitted
                                  : CrossFate::kAborted;
        break;
      }
    }
    canonical[id] = fate;

    // Atomicity: a committed transaction prepared in *every* participant
    // group, exactly once per group.
    if (fate == CrossFate::kCommitted) {
      for (const std::string& participant : first.participants) {
        int count = 0;
        for (const PrepareSite& site : sites) {
          if (site.group == participant) ++count;
        }
        if (count != 1) {
          report.Violation("atomicity: committed cross txn " +
                           TxnIdToString(id) + " has " +
                           std::to_string(count) + " prepares in group '" +
                           participant + "' (expected 1)");
        }
      }
    }
    // Prepares only in declared participant groups.
    for (const PrepareSite& site : sites) {
      if (std::find(first.participants.begin(), first.participants.end(),
                    site.group) == first.participants.end()) {
        report.Violation("cross txn " + TxnIdToString(id) +
                         " prepared in non-participant group '" + site.group +
                         "'");
      }
    }
    // Decision consistency: outside the commit group every decide record
    // must carry the canonical decision (they are propagated copies, and
    // they are what each group's replicas apply). Inside the commit group
    // later conflicting decides are legal race artifacts — only the first
    // counts.
    for (const auto& [group, log] : logs) {
      if (group == commit_group) continue;
      for (const auto& [pos, entry] : log) {
        for (const wal::TxnRecord& t : entry.txns) {
          if (t.kind != wal::RecordKind::kDecide || t.id != id) continue;
          const CrossFate recorded = t.commit_decision
                                         ? CrossFate::kCommitted
                                         : CrossFate::kAborted;
          if (fate == CrossFate::kUndecided || recorded != fate) {
            report.Violation(
                "atomicity: decide for cross txn " + TxnIdToString(id) +
                " in group '" + group + "' at position " +
                std::to_string(pos) +
                " disagrees with the commit group's canonical decision");
          }
        }
      }
    }
  }

  // ---- Shared commit order: committed prepares must appear in every
  // group's log in increasing (cross_ts, id) order (D8 — this is what
  // makes the union of the per-group serial orders acyclic).
  for (const auto& [group, log] : logs) {
    uint64_t last_ts = 0;
    TxnId last_id = 0;
    bool have_last = false;
    for (const auto& [pos, entry] : log) {
      for (const wal::TxnRecord& t : entry.txns) {
        if (t.kind != wal::RecordKind::kPrepare) continue;
        auto fate = canonical.find(t.id);
        if (fate == canonical.end() || fate->second != CrossFate::kCommitted) {
          continue;  // aborted/undecided prepares may be out of order
        }
        if (have_last && (t.cross_ts < last_ts ||
                          (t.cross_ts == last_ts && t.id < last_id))) {
          report.Violation("commit order: committed cross txn " +
                           TxnIdToString(t.id) + " at position " +
                           std::to_string(pos) + " of group '" + group +
                           "' is ordered before an older committed prepare");
        }
        last_ts = t.cross_ts;
        last_id = t.id;
        have_last = true;
      }
    }
  }

  // ---- Every outcome must name only checked groups: the per-group L1/L2
  // checks below match outcomes by name, so an unmatched one would
  // otherwise be skipped without a word.
  for (const ClientOutcome& o : outcomes) {
    const auto require_checked = [&](const std::string& group) {
      if (logs.count(group) != 0) return;
      report.Violation("outcome of txn " + TxnIdToString(o.id) +
                       " names group '" + group +
                       "', which is not among the checked groups");
    };
    if (o.groups.empty()) require_checked(o.group);
    for (const std::string& group : o.groups) require_checked(group);
  }

  // ---- Client-visible fates of cross transactions.
  for (const ClientOutcome& o : outcomes) {
    if (o.groups.empty()) continue;
    auto fate = canonical.find(o.id);
    const CrossFate f =
        fate == canonical.end() ? CrossFate::kUndecided : fate->second;
    if (o.unknown) continue;
    if (o.committed && f != CrossFate::kCommitted) {
      report.Violation("(L1) committed cross txn " + TxnIdToString(o.id) +
                       " is not canonically committed in the log");
    }
    if (!o.committed && f == CrossFate::kCommitted) {
      report.Violation("(L1) aborted cross txn " + TxnIdToString(o.id) +
                       " is canonically committed in the log");
    }
  }

  // ---- Per-group checks with canonical decisions, then the global MVSG.
  for (const auto& [group, log] : logs) {
    std::vector<ClientOutcome> group_outcomes;
    for (const ClientOutcome& o : outcomes) {
      if (o.groups.empty() && o.group == group) group_outcomes.push_back(o);
    }
    CheckReport group_report;
    if (!group_outcomes.empty()) {
      CheckOutcomes(log, group_outcomes, &group_report);
    }
    CheckOneCopySerializability(log, canonical, &group_report);
    for (std::string& v : group_report.violations) {
      report.Violation("[" + group + "] " + std::move(v));
    }
  }
  std::vector<NamespacedLog> namespaced;
  namespaced.reserve(logs.size());
  for (const auto& [group, log] : logs) {
    namespaced.push_back(NamespacedLog{&log, group});
  }
  CheckMvsgOver(namespaced, canonical, &report);
  return report;
}

}  // namespace paxoscp::core
