#include "wal/log.h"

#include <algorithm>
#include <cassert>
#include <charconv>

#include "common/coding.h"

namespace paxoscp::wal {

namespace {

constexpr char kEntryAttr[] = "entry";
/// Prefix for shadow provenance attributes in data rows.
constexpr char kProvenancePrefix[] = "#w/";
constexpr sim::race::AccessKind kRead = sim::race::AccessKind::kRead;
constexpr sim::race::AccessKind kWrite = sim::race::AccessKind::kWrite;

std::string EncodeProvenance(TxnId writer, LogPos pos) {
  std::string out;
  PutFixed64(&out, writer);
  PutVarint64(&out, pos);
  return out;
}

bool DecodeProvenance(std::string_view in, TxnId* writer, LogPos* pos) {
  return GetFixed64(&in, writer) && GetVarint64(&in, pos) && in.empty();
}

/// Parses a decimal LogPos straight from a borrowed view (no temporary
/// std::string as std::stoull would need).
LogPos ParsePos(std::string_view s) {
  LogPos pos = 0;
  std::from_chars(s.data(), s.data() + s.size(), pos);
  return pos;
}

/// Zero-pad width shared by PadPos and JoinKey — the two must agree or
/// prefix scans stop matching the keys writes produce.
constexpr size_t kPosPadWidth = 12;

/// Builds "<prefix><group>/<padded pos>" with one allocation.
std::string JoinKey(std::string_view prefix, std::string_view group,
                    LogPos pos) {
  const std::string digits = std::to_string(pos);
  const size_t pad =
      digits.size() >= kPosPadWidth ? 0 : kPosPadWidth - digits.size();
  std::string key;
  key.reserve(prefix.size() + group.size() + 1 + pad + digits.size());
  key.append(prefix);
  key.append(group);
  key.push_back('/');
  key.append(pad, '0');
  key.append(digits);
  return key;
}

}  // namespace

std::string PadPos(LogPos pos) {
  const std::string digits = std::to_string(pos);
  const size_t pad =
      digits.size() >= kPosPadWidth ? 0 : kPosPadWidth - digits.size();
  return std::string(pad, '0') + digits;
}

WriteAheadLog::WriteAheadLog(kvstore::MultiVersionStore* store,
                             std::string group)
    : store_(store), group_(std::move(group)) {}

std::string WriteAheadLog::EntryKey(LogPos pos) const {
  return JoinKey("!log/", group_, pos);
}

void WriteAheadLog::Touch(sim::race::AccessKind kind,
                          std::string_view row) const {
  if (sim::race::Active()) {
    sim::race::Record(kind, {"kv", store_->instance_id(), row,
                             std::string_view(group_)});
  }
}

void WriteAheadLog::Touch(sim::race::AccessKind kind, std::string_view row,
                          TxnId id) const {
  if (sim::race::Active()) {
    sim::race::Record(kind, {"kv", store_->instance_id(), row,
                             std::string_view(group_), id});
  }
}

std::string WriteAheadLog::DataKey(const std::string& row) const {
  std::string key;
  key.reserve(2 + group_.size() + 1 + row.size());
  key.append("d/");
  key.append(group_);
  key.push_back('/');
  key.append(row);
  return key;
}

Status WriteAheadLog::SetEntry(LogPos pos, const LogEntry& entry) {
  assert(pos >= 1);
  const std::string encoded = entry.Encode();
  if (kvstore::AttrView existing;
      store_->HasAttr(EntryKey(pos), kEntryAttr, &existing)) {
    if (existing.value != encoded) {
      // The log keeps its first value, so replicas still agree; the
      // rejected position is what tells the checker a second value was
      // decided.
      Touch(kRead, "!r1");
      Touch(kWrite, "!r1");
      rejected_.insert(pos);
      return Status::Corruption(
          "R1 violation: conflicting values decided for " + group_ + "[" +
          std::to_string(pos) + "]");
    }
    return Status::OK();  // idempotent re-apply
  }
  PAXOSCP_RETURN_IF_ERROR(
      store_->Write(EntryKey(pos), {{kEntryAttr, encoded}}));
  if (pos > MaxDecided()) {
    Touch(kWrite, "!logmeta");
    max_decided_ = pos;
  }
  if (entry.HasCrossRecords()) NoteCrossRecords(pos, entry);
  return Status::OK();
}

void WriteAheadLog::NoteCrossRecords(LogPos pos, const LogEntry& entry) {
  for (const TxnRecord& t : entry.txns) {
    if (t.kind == RecordKind::kPrepare) {
      Touch(kWrite, "!xprep", t.id);
      prepares_[t.id] = PrepareInfo{true, pos, t.participants};
      // Commit-order watermark: max cross_ts over all prepares seen.
      if (t.cross_ts > MaxCrossTs()) {
        Touch(kWrite, "!xmax");
        max_cross_ts_ = t.cross_ts;
      }
      // Pending until a decide is learned. Decides may be learned before
      // their prepare (out-of-order learning): then the prepare is born
      // decided and never enters the pending set.
      if (!DecisionFor(t.id).known) {
        Touch(kRead, "!xpend");
        Touch(kWrite, "!xpend");
        pending_.emplace(std::pair(pos, std::to_string(t.id)), t.id);
      }
    } else if (t.kind == RecordKind::kDecide) {
      const CrossDecision existing = DecisionFor(t.id);
      if (!existing.known || pos < existing.pos) {
        Touch(kWrite, "!xdec", t.id);
        decisions_[t.id] = CrossDecision{true, t.commit_decision, pos};
      }
      Touch(kRead, "!xprep", t.id);
      if (auto prep = prepares_.find(t.id); prep != prepares_.end()) {
        Touch(kRead, "!xpend");
        if (pending_.erase({prep->second.pos, std::to_string(t.id)}) > 0) {
          Touch(kWrite, "!xpend");
        }
      }
    }
  }
  // A prepare arriving after its decide (handled above via the born-decided
  // branch) leaves no pending entry; a prepare in THIS entry whose decide
  // was also in this entry cannot happen (decides are proposed only after
  // the prepare's position is decided).
}

std::vector<PendingPrepare> WriteAheadLog::PendingPrepares() const {
  Touch(kRead, "!xpend");
  std::vector<PendingPrepare> out;
  out.reserve(pending_.size());
  for (const auto& [key, id] : pending_) {
    out.push_back(PendingPrepare{key.first, id});
  }
  return out;
}

CrossDecision WriteAheadLog::DecisionFor(TxnId id) const {
  Touch(kRead, "!xdec", id);
  auto it = decisions_.find(id);
  return it == decisions_.end() ? CrossDecision{} : it->second;
}

PrepareInfo WriteAheadLog::PrepareFor(TxnId id) const {
  Touch(kRead, "!xprep", id);
  auto it = prepares_.find(id);
  return it == prepares_.end() ? PrepareInfo{} : it->second;
}

uint64_t WriteAheadLog::MaxCrossTs() const {
  Touch(kRead, "!xmax");
  return max_cross_ts_;
}

LogPos WriteAheadLog::SafeReadPos() const {
  LogPos pos = MaxDecided();
  Touch(kRead, "!xpend");
  if (!pending_.empty()) pos = std::min(pos, pending_.begin()->first.first - 1);
  return pos;
}

LogPos WriteAheadLog::ContiguousFrontier() {
  Touch(kRead, "!xfront");
  const LogPos start = frontier_;
  while (HasEntry(frontier_ + 1)) ++frontier_;
  if (frontier_ != start) Touch(kWrite, "!xfront");
  return frontier_;
}

Result<LogEntry> WriteAheadLog::GetEntry(LogPos pos) const {
  // Decode straight from the shared version — the encoded entry is never
  // copied out of the store.
  Result<kvstore::AttrView> encoded =
      store_->ReadAttrView(EntryKey(pos), kEntryAttr);
  if (!encoded.ok()) return encoded.status();
  return LogEntry::Decode(encoded->value);
}

bool WriteAheadLog::HasEntry(LogPos pos) const {
  return store_->HasAttr(EntryKey(pos), kEntryAttr);
}

LogPos WriteAheadLog::FirstMissing(LogPos from, LogPos to) const {
  for (LogPos pos = from; pos <= to; ++pos) {
    if (!HasEntry(pos)) return pos;
  }
  return 0;
}

LogPos WriteAheadLog::MaxDecided() const {
  Touch(kRead, "!logmeta");
  return max_decided_;
}

LogPos WriteAheadLog::AppliedThrough() const {
  Touch(kRead, "!applied");
  return applied_;
}

Status WriteAheadLog::ApplyThrough(LogPos target, LogPos* first_missing,
                                   TxnId* undecided) {
  for (LogPos pos = AppliedThrough() + 1; pos <= target; ++pos) {
    Result<LogEntry> entry = GetEntry(pos);
    if (!entry.ok()) {
      if (first_missing != nullptr) *first_missing = pos;
      return Status::FailedPrecondition("missing log entry at position " +
                                        std::to_string(pos));
    }
    // D8: resolve every cross-group prepare in this entry before applying
    // anything at this position. A decision marker is trusted only when
    // every position between the prepare and the decide is locally present
    // (everything below `pos` is — the watermark guarantees it — so no
    // lower decide can be hiding in an unseen entry).
    std::map<TxnId, bool> decisions;  // prepare id -> commit?
    for (const TxnRecord& t : entry->txns) {
      if (t.kind != RecordKind::kPrepare) continue;
      const CrossDecision d = DecisionFor(t.id);
      if (!d.known || (d.pos > pos && FirstMissing(pos + 1, d.pos - 1) != 0)) {
        if (first_missing != nullptr) *first_missing = pos;
        if (undecided != nullptr) *undecided = t.id;
        return Status::FailedPrecondition(
            "undecided cross-group prepare at position " +
            std::to_string(pos));
      }
      decisions[t.id] = d.commit;
    }
    // Merge all writes of the (ordered) transaction list into per-row
    // updates; later transactions overwrite earlier ones, matching the
    // serial order within the entry. Decide records carry no writes;
    // abort-decided prepares are no-ops; commit-decided prepares take
    // effect here, at their prepare position.
    std::map<std::string, kvstore::AttributeMap> row_updates;
    for (const TxnRecord& t : entry->txns) {
      if (t.kind == RecordKind::kDecide) continue;
      if (t.kind == RecordKind::kPrepare && !decisions[t.id]) continue;
      for (const WriteRecord& w : t.writes) {
        auto& updates = row_updates[w.item.row];
        updates[w.item.attribute] = w.value;
        updates[kProvenancePrefix + w.item.attribute] =
            EncodeProvenance(t.id, pos);
      }
    }
    for (const auto& [row, updates] : row_updates) {
      Status s = store_->MergeWrite(DataKey(row), updates,
                                    static_cast<Timestamp>(pos));
      // Conflict => this position was already applied to this row by an
      // earlier, partially-completed pass; skipping keeps apply idempotent.
      if (!s.ok() && !s.IsConflict()) return s;
    }
    // Advance the watermark after each position, so a later pass never
    // re-reads more than one applied entry.
    Touch(kWrite, "!applied");
    applied_ = pos;
  }
  return Status::OK();
}

ItemRead WriteAheadLog::ReadItem(const ItemId& item, LogPos read_pos) const {
  ItemRead out;
  Result<kvstore::RowVersion> row =
      store_->Read(DataKey(item.row), static_cast<Timestamp>(read_pos));
  if (!row.ok()) return out;  // initial state
  const kvstore::AttributeMap& attrs = *row->attributes;
  auto it = attrs.find(item.attribute);
  if (it == attrs.end()) return out;
  out.value = it->second;
  out.found = true;
  auto prov = attrs.find(kProvenancePrefix + item.attribute);
  if (prov != attrs.end()) {
    DecodeProvenance(prov->second, &out.writer, &out.written_pos);
  }
  return out;
}

std::vector<std::pair<std::string, ItemRead>> WriteAheadLog::ReadRow(
    const std::string& row, LogPos read_pos) const {
  std::vector<std::pair<std::string, ItemRead>> out;
  Result<kvstore::RowVersion> version =
      store_->Read(DataKey(row), static_cast<Timestamp>(read_pos));
  if (!version.ok()) return out;  // initial state: no row
  const kvstore::AttributeMap& attrs = *version->attributes;
  constexpr std::string_view kPrefix = kProvenancePrefix;
  for (const auto& [attribute, value] : attrs) {
    if (std::string_view(attribute).substr(0, kPrefix.size()) == kPrefix) {
      continue;  // provenance shadow attribute
    }
    ItemRead read;
    read.value = value;
    read.found = true;
    auto prov = attrs.find(kProvenancePrefix + attribute);
    if (prov != attrs.end()) {
      DecodeProvenance(prov->second, &read.writer, &read.written_pos);
    }
    out.emplace_back(attribute, std::move(read));
  }
  return out;
}

Status WriteAheadLog::LoadInitialRow(const std::string& row,
                                     const kvstore::AttributeMap& attributes) {
  return store_->MergeWrite(DataKey(row), attributes, /*timestamp=*/0);
}

std::vector<LogPos> WriteAheadLog::RejectedPositions() const {
  Touch(kRead, "!r1");
  return {rejected_.begin(), rejected_.end()};
}

std::map<LogPos, LogEntry> WriteAheadLog::AllEntries() const {
  std::map<LogPos, LogEntry> out;
  const std::string prefix = "!log/" + group_ + "/";
  for (const std::string& key : store_->KeysWithPrefix(prefix)) {
    const LogPos pos = ParsePos(std::string_view(key).substr(prefix.size()));
    Result<LogEntry> entry = GetEntry(pos);
    if (entry.ok()) out.emplace(pos, *std::move(entry));
  }
  return out;
}

}  // namespace paxoscp::wal
