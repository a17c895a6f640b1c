#include "wal/log_entry.h"

#include <sstream>

#include "common/coding.h"

namespace paxoscp::wal {

namespace {

bool DecodeItem(std::string_view* in, ItemId* item) {
  std::string_view row, attr;
  if (!GetLengthPrefixed(in, &row)) return false;
  if (!GetLengthPrefixed(in, &attr)) return false;
  item->row = std::string(row);
  item->attribute = std::string(attr);
  return true;
}

/// The one walk over an entry's encoded layout (Decode reads it back).
/// `Out` has the Fingerprinter's interface: Encode runs the walk over
/// SizeBound and then StringSink, Fingerprint over the Fingerprinter.
template <typename Out>
void WriteLayout(const LogEntry& entry, Out* out) {
  out->AddVarsint64(entry.winner_dc);
  out->AddVarint64(entry.txns.size());
  for (const TxnRecord& t : entry.txns) {
    out->AddVarint64(static_cast<uint64_t>(t.kind));
    out->AddFixed64(t.id);
    out->AddVarsint64(t.origin_dc);
    out->AddVarint64(t.read_pos);
    out->AddVarint64(t.reads.size());
    for (const ReadRecord& r : t.reads) {
      out->AddLengthPrefixed(r.item.row);
      out->AddLengthPrefixed(r.item.attribute);
      out->AddFixed64(r.observed_writer);
      out->AddVarint64(r.observed_pos);
    }
    out->AddVarint64(t.writes.size());
    for (const WriteRecord& w : t.writes) {
      out->AddLengthPrefixed(w.item.row);
      out->AddLengthPrefixed(w.item.attribute);
      out->AddLengthPrefixed(w.value);
    }
    if (t.kind == RecordKind::kPrepare) {
      out->AddVarint64(t.cross_ts);
      out->AddVarint64(t.participants.size());
      for (const std::string& g : t.participants) out->AddLengthPrefixed(g);
    }
    if (t.kind == RecordKind::kDecide) {
      out->AddVarint64(t.commit_decision ? 1 : 0);
    }
  }
}

/// Upper bound on the bytes of a layout: a varint counts as its longest
/// encoding.
struct SizeBound {
  size_t bytes = 0;
  void AddVarint64(uint64_t) { bytes += kMaxVarint64Bytes; }
  void AddVarsint64(int64_t) { bytes += kMaxVarint64Bytes; }
  void AddFixed64(uint64_t) { bytes += 8; }
  void AddLengthPrefixed(std::string_view v) {
    bytes += kMaxVarint64Bytes + v.size();
  }
};

/// Appends a layout to a string through the Put* helpers.
struct StringSink {
  std::string* dst;
  void AddVarint64(uint64_t v) { PutVarint64(dst, v); }
  void AddVarsint64(int64_t v) { PutVarsint64(dst, v); }
  void AddFixed64(uint64_t v) { PutFixed64(dst, v); }
  void AddLengthPrefixed(std::string_view v) { PutLengthPrefixed(dst, v); }
};

}  // namespace

bool TxnRecord::Reads(const ItemId& it) const {
  for (const ReadRecord& r : reads) {
    if (r.item == it) return true;
  }
  return false;
}

bool TxnRecord::Writes(const ItemId& it) const {
  // A whole-row predicate read conflicts with any write to that row (the
  // reader observed the row's attribute set; see kWholeRowAttribute).
  const bool whole_row = it.attribute == kWholeRowAttribute;
  for (const WriteRecord& w : writes) {
    if (whole_row ? w.item.row == it.row : w.item == it) return true;
  }
  return false;
}

bool LogEntry::HasCrossRecords() const {
  for (const TxnRecord& t : txns) {
    if (t.kind != RecordKind::kData) return true;
  }
  return false;
}

const TxnRecord* LogEntry::FindDecide(TxnId id) const {
  for (const TxnRecord& t : txns) {
    if (t.kind == RecordKind::kDecide && t.id == id) return &t;
  }
  return nullptr;
}

const TxnRecord* LogEntry::FindPrepare(TxnId id) const {
  for (const TxnRecord& t : txns) {
    if (t.kind == RecordKind::kPrepare && t.id == id) return &t;
  }
  return nullptr;
}

std::string LogEntry::Encode() const {
  // Reserving the bound first means the appends never reallocate.
  SizeBound bound;
  WriteLayout(*this, &bound);
  std::string out;
  out.reserve(bound.bytes);
  StringSink sink{&out};
  WriteLayout(*this, &sink);
  return out;
}

Result<LogEntry> LogEntry::Decode(std::string_view data) {
  LogEntry entry;
  int64_t winner = 0;
  if (!GetVarsint64(&data, &winner)) {
    return Status::Corruption("log entry: bad winner_dc");
  }
  entry.winner_dc = static_cast<DcId>(winner);
  uint64_t ntxns = 0;
  if (!GetVarint64(&data, &ntxns)) {
    return Status::Corruption("log entry: bad txn count");
  }
  entry.txns.reserve(ntxns);
  for (uint64_t i = 0; i < ntxns; ++i) {
    TxnRecord t;
    int64_t origin = 0;
    uint64_t kind = 0, nreads = 0, nwrites = 0;
    if (!GetVarint64(&data, &kind) ||
        kind > static_cast<uint64_t>(RecordKind::kDecide)) {
      return Status::Corruption("log entry: bad record kind");
    }
    t.kind = static_cast<RecordKind>(kind);
    if (!GetFixed64(&data, &t.id) || !GetVarsint64(&data, &origin) ||
        !GetVarint64(&data, &t.read_pos) || !GetVarint64(&data, &nreads)) {
      return Status::Corruption("log entry: bad txn header");
    }
    t.origin_dc = static_cast<DcId>(origin);
    t.reads.reserve(nreads);
    for (uint64_t j = 0; j < nreads; ++j) {
      ReadRecord r;
      if (!DecodeItem(&data, &r.item) ||
          !GetFixed64(&data, &r.observed_writer) ||
          !GetVarint64(&data, &r.observed_pos)) {
        return Status::Corruption("log entry: bad read record");
      }
      t.reads.push_back(std::move(r));
    }
    if (!GetVarint64(&data, &nwrites)) {
      return Status::Corruption("log entry: bad write count");
    }
    t.writes.reserve(nwrites);
    for (uint64_t j = 0; j < nwrites; ++j) {
      WriteRecord w;
      std::string_view value;
      if (!DecodeItem(&data, &w.item) || !GetLengthPrefixed(&data, &value)) {
        return Status::Corruption("log entry: bad write record");
      }
      w.value = std::string(value);
      t.writes.push_back(std::move(w));
    }
    if (t.kind == RecordKind::kPrepare) {
      uint64_t ngroups = 0;
      if (!GetVarint64(&data, &t.cross_ts) || !GetVarint64(&data, &ngroups)) {
        return Status::Corruption("log entry: bad prepare record");
      }
      t.participants.reserve(ngroups);
      for (uint64_t j = 0; j < ngroups; ++j) {
        std::string_view g;
        if (!GetLengthPrefixed(&data, &g)) {
          return Status::Corruption("log entry: bad participant list");
        }
        t.participants.emplace_back(g);
      }
    }
    if (t.kind == RecordKind::kDecide) {
      uint64_t decision = 0;
      if (!GetVarint64(&data, &decision)) {
        return Status::Corruption("log entry: bad decide record");
      }
      t.commit_decision = decision != 0;
    }
    entry.txns.push_back(std::move(t));
  }
  if (!data.empty()) {
    return Status::Corruption("log entry: trailing bytes");
  }
  return entry;
}

uint64_t LogEntry::Fingerprint() const {
  // Streams exactly the bytes Encode() would produce through a chunking-
  // invariant hasher, so Fingerprint() == Fingerprint64(Encode()) holds
  // (pinned by tests/wal_test.cc) without materializing the encoding.
  Fingerprinter fp;
  WriteLayout(*this, &fp);
  return fp.Finish();
}

bool LogEntry::ContainsTxn(TxnId id) const {
  for (const TxnRecord& t : txns) {
    if (t.id == id) return true;
  }
  return false;
}

bool LogEntry::ContainsRecord(TxnId id, RecordKind kind) const {
  for (const TxnRecord& t : txns) {
    if (t.id == id && t.kind == kind) return true;
  }
  return false;
}

bool LogEntry::WritesItemReadBy(const TxnRecord& t) const {
  for (const ReadRecord& r : t.reads) {
    for (const TxnRecord& winner : txns) {
      if (winner.Writes(r.item)) return true;
    }
  }
  return false;
}

std::string LogEntry::ToString() const {
  std::ostringstream os;
  os << "LogEntry{winner_dc=" << winner_dc << ", txns=[";
  for (size_t i = 0; i < txns.size(); ++i) {
    if (i > 0) os << ", ";
    os << TxnIdToString(txns[i].id);
    if (txns[i].kind == RecordKind::kPrepare) {
      os << "[prep ts=" << txns[i].cross_ts << "]";
    } else if (txns[i].kind == RecordKind::kDecide) {
      os << (txns[i].commit_decision ? "[decide:commit]" : "[decide:abort]");
    }
    os << "(r@" << txns[i].read_pos << "," << txns[i].reads.size() << "r/"
       << txns[i].writes.size() << "w)";
  }
  os << "]}";
  return os.str();
}

}  // namespace paxoscp::wal
