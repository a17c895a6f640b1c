#include "txn/transaction.h"

namespace paxoscp::txn {

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kBasicPaxos:
      return "paxos";
    case Protocol::kPaxosCP:
      return "paxos-cp";
  }
  return "?";
}

wal::TxnRecord TxnState::ToRecord(DcId origin_dc) const {
  wal::TxnRecord record;
  record.id = id;
  record.origin_dc = origin_dc;
  record.read_pos = read_pos;
  record.reads.reserve(reads.size());
  for (const auto& [item, read] : reads) {
    record.reads.push_back(
        wal::ReadRecord{item, read.writer, read.written_pos});
  }
  record.writes.reserve(writes.size());
  for (const auto& [item, value] : writes) {
    record.writes.push_back(wal::WriteRecord{item, value});
  }
  return record;
}

bool PromotionConflicts(const wal::TxnRecord& txn,
                        const wal::LogEntry& winners) {
  return winners.WritesItemReadBy(txn);
}

std::vector<wal::ItemId> ConflictingItems(const wal::TxnRecord& txn,
                                          const wal::LogEntry& winners) {
  std::vector<wal::ItemId> out;
  for (const wal::ReadRecord& r : txn.reads) {
    for (const wal::TxnRecord& w : winners.txns) {
      if (w.Writes(r.item)) {
        out.push_back(r.item);
        break;
      }
    }
  }
  return out;
}

}  // namespace paxoscp::txn
