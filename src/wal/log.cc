#include "wal/log.h"

#include <cassert>
#include <charconv>
#include <cstdlib>

#include "common/coding.h"

namespace paxoscp::wal {

namespace {

constexpr char kEntryAttr[] = "entry";
constexpr char kMaxDecidedAttr[] = "max_decided";
constexpr char kAppliedAttr[] = "pos";
/// Prefix for shadow provenance attributes in data rows.
constexpr char kProvenancePrefix[] = "#w/";

std::string EncodeProvenance(TxnId writer, LogPos pos) {
  std::string out;
  PutFixed64(&out, writer);
  PutVarint64(&out, pos);
  return out;
}

bool DecodeProvenance(std::string_view in, TxnId* writer, LogPos* pos) {
  return GetFixed64(&in, writer) && GetVarint64(&in, pos) && in.empty();
}

/// Writes `row` as the new latest version of `key` and drops the versions
/// below it. The log writes this way every row it only ever reads at its
/// latest version (`!applied`, `!logmeta`, `!xpend`, `!xmax`, `!xfront`,
/// `!r1`), so each keeps one version; data rows, read at a transaction's
/// read position, keep all of theirs (design note D5).
Status WriteLatestOnly(kvstore::MultiVersionStore* store, std::string_view key,
                       kvstore::AttributeMap row) {
  PAXOSCP_RETURN_IF_ERROR(store->Write(key, std::move(row)));
  (void)store->TruncateVersions(key, kLatestTimestamp);
  return Status::OK();
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
std::string WriteAheadLog::MetaKey() const { return "!logmeta/" + group_; }
std::string WriteAheadLog::AppliedKey() const { return "!applied/" + group_; }
std::string WriteAheadLog::PrepareKey(TxnId id) const {
  return "!xprep/" + group_ + "/" + std::to_string(id);
}
std::string WriteAheadLog::PendingKey() const { return "!xpend/" + group_; }
std::string WriteAheadLog::DecisionKey(TxnId id) const {
  return "!xdec/" + group_ + "/" + std::to_string(id);
}
std::string WriteAheadLog::CrossMaxKey() const { return "!xmax/" + group_; }
std::string WriteAheadLog::FrontierKey() const { return "!xfront/" + group_; }
std::string WriteAheadLog::RejectedKey() const { return "!r1/" + group_; }
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
      // The log keeps its first value, so replicas still agree; the side
      // row is what tells the checker a second value was decided.
      Result<kvstore::RowVersion> row = store_->Read(RejectedKey());
      kvstore::AttributeMap rejected =
          row.ok() ? *row->attributes : kvstore::AttributeMap{};
      rejected[PadPos(pos)] = "1";
      (void)WriteLatestOnly(store_, RejectedKey(), std::move(rejected));
      return Status::Corruption(
          "R1 violation: conflicting values decided for " + group_ + "[" +
          std::to_string(pos) + "]");
    }
    return Status::OK();  // idempotent re-apply
  }
  PAXOSCP_RETURN_IF_ERROR(
      store_->Write(EntryKey(pos), {{kEntryAttr, encoded}}));
  BumpMaxDecided(pos);
  if (entry.HasCrossRecords()) NoteCrossRecords(pos, entry);
  return Status::OK();
}

void WriteAheadLog::NoteCrossRecords(LogPos pos, const LogEntry& entry) {
  for (const TxnRecord& t : entry.txns) {
    if (t.kind == RecordKind::kPrepare) {
      std::string groups_encoded;
      for (const std::string& g : t.participants) {
        PutLengthPrefixed(&groups_encoded, g);
      }
      (void)store_->Write(PrepareKey(t.id),
                          {{"pos", std::to_string(pos)},
                           {"groups", std::move(groups_encoded)}});
      // Commit-order watermark: max cross_ts over all prepares seen.
      if (t.cross_ts > MaxCrossTs()) {
        (void)WriteLatestOnly(store_, CrossMaxKey(),
                              {{"ts", std::to_string(t.cross_ts)}});
      }
      // Pending until a decide is learned. Decides may be learned before
      // their prepare (out-of-order learning): then the prepare is born
      // decided and never enters the pending set.
      if (!DecisionFor(t.id).known) {
        Result<kvstore::RowVersion> row = store_->Read(PendingKey());
        kvstore::AttributeMap pending =
            row.ok() ? *row->attributes : kvstore::AttributeMap{};
        pending[PadPos(pos) + "/" + std::to_string(t.id)] = "1";
        (void)WriteLatestOnly(store_, PendingKey(), std::move(pending));
      }
    } else if (t.kind == RecordKind::kDecide) {
      CrossDecision existing = DecisionFor(t.id);
      if (!existing.known || pos < existing.pos) {
        (void)store_->Write(DecisionKey(t.id),
                            {{"d", t.commit_decision ? "c" : "a"},
                             {"pos", std::to_string(pos)}});
      }
      PrepareInfo prep = PrepareFor(t.id);
      if (prep.known) ClearPending(prep.pos, t.id);
    }
  }
  // A prepare arriving after its decide (handled above via the born-decided
  // branch) leaves no pending entry; a prepare in THIS entry whose decide
  // was also in this entry cannot happen (decides are proposed only after
  // the prepare's position is decided).
}

void WriteAheadLog::ClearPending(LogPos pos, TxnId id) {
  Result<kvstore::RowVersion> row = store_->Read(PendingKey());
  if (!row.ok()) return;
  kvstore::AttributeMap pending = *row->attributes;
  if (pending.erase(PadPos(pos) + "/" + std::to_string(id)) == 0) return;
  (void)WriteLatestOnly(store_, PendingKey(), std::move(pending));
}

std::vector<PendingPrepare> WriteAheadLog::PendingPrepares() const {
  std::vector<PendingPrepare> out;
  Result<kvstore::RowVersion> row = store_->Read(PendingKey());
  if (!row.ok()) return out;
  for (const auto& [name, unused] : *row->attributes) {
    (void)unused;
    const size_t slash = name.find('/');
    if (slash == std::string::npos) continue;
    PendingPrepare p;
    p.pos = ParsePos(std::string_view(name).substr(0, slash));
    p.txn = std::strtoull(name.c_str() + slash + 1, nullptr, 10);
    out.push_back(std::move(p));
  }
  return out;
}

CrossDecision WriteAheadLog::DecisionFor(TxnId id) const {
  CrossDecision out;
  Result<kvstore::RowVersion> row = store_->Read(DecisionKey(id));
  if (!row.ok()) return out;
  const kvstore::AttributeMap& attrs = *row->attributes;
  auto d = attrs.find("d");
  auto pos = attrs.find("pos");
  if (d == attrs.end() || pos == attrs.end()) return out;
  out.known = true;
  out.commit = d->second == "c";
  out.pos = ParsePos(pos->second);
  return out;
}

PrepareInfo WriteAheadLog::PrepareFor(TxnId id) const {
  PrepareInfo out;
  Result<kvstore::RowVersion> row = store_->Read(PrepareKey(id));
  if (!row.ok()) return out;
  const kvstore::AttributeMap& attrs = *row->attributes;
  auto pos = attrs.find("pos");
  auto groups = attrs.find("groups");
  if (pos == attrs.end() || groups == attrs.end()) return out;
  out.known = true;
  out.pos = ParsePos(pos->second);
  std::string_view encoded = groups->second;
  std::string_view g;
  while (GetLengthPrefixed(&encoded, &g)) out.participants.emplace_back(g);
  return out;
}

uint64_t WriteAheadLog::MaxCrossTs() const {
  Result<kvstore::AttrView> ts = store_->ReadAttrView(CrossMaxKey(), "ts");
  return ts.ok() ? ParsePos(ts->value) : 0;
}

LogPos WriteAheadLog::SafeReadPos() const {
  // One store read: the whole pending set lives in one row whose
  // attribute order is prepare-position order (this runs on every begin).
  LogPos pos = MaxDecided();
  Result<kvstore::RowVersion> row = store_->Read(PendingKey());
  if (!row.ok() || row->attributes->empty()) return pos;
  const std::string& oldest = row->attributes->begin()->first;
  const LogPos pending =
      ParsePos(std::string_view(oldest).substr(0, oldest.find('/')));
  if (pending > 0 && pending - 1 < pos) pos = pending - 1;
  return pos;
}

LogPos WriteAheadLog::ContiguousFrontier() {
  LogPos frontier = 0;
  Result<kvstore::AttrView> stored =
      store_->ReadAttrView(FrontierKey(), "pos");
  if (stored.ok()) frontier = ParsePos(stored->value);
  const LogPos start = frontier;
  while (HasEntry(frontier + 1)) ++frontier;
  if (frontier != start) {
    (void)WriteLatestOnly(store_, FrontierKey(),
                          {{"pos", std::to_string(frontier)}});
  }
  return frontier;
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
  Result<kvstore::AttrView> v = store_->ReadAttrView(MetaKey(), kMaxDecidedAttr);
  if (!v.ok()) return 0;
  return ParsePos(v->value);
}

void WriteAheadLog::BumpMaxDecided(LogPos pos) {
  // Retry loop around CheckAndWrite mirrors Algorithm 1's update pattern;
  // in the single-threaded simulation it succeeds on the first try. Like
  // WriteLatestOnly, a success keeps only the latest version.
  const std::string key = MetaKey();
  for (;;) {
    Result<std::string> cur = store_->ReadAttr(key, kMaxDecidedAttr);
    const std::string cur_str = cur.ok() ? *cur : "";
    const LogPos cur_pos = cur.ok() ? ParsePos(*cur) : 0;
    if (pos <= cur_pos) return;
    Status s = store_->CheckAndWrite(key, kMaxDecidedAttr, cur_str,
                                     {{kMaxDecidedAttr, std::to_string(pos)}});
    if (s.ok()) {
      (void)store_->TruncateVersions(key, kLatestTimestamp);
      return;
    }
  }
}

LogPos WriteAheadLog::AppliedThrough() const {
  Result<kvstore::AttrView> v = store_->ReadAttrView(AppliedKey(), kAppliedAttr);
  if (!v.ok()) return 0;
  return ParsePos(v->value);
}

Status WriteAheadLog::ApplyThrough(LogPos target, LogPos* first_missing,
                                   TxnId* undecided) {
  const LogPos applied = AppliedThrough();
  for (LogPos pos = applied + 1; pos <= target; ++pos) {
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
    // Persist the watermark after each position so recovery never re-reads
    // more than one applied entry.
    PAXOSCP_RETURN_IF_ERROR(WriteLatestOnly(
        store_, AppliedKey(), {{kAppliedAttr, std::to_string(pos)}}));
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
  std::vector<LogPos> out;
  Result<kvstore::RowVersion> row = store_->Read(RejectedKey());
  if (!row.ok()) return out;
  for (const auto& [padded, unused] : *row->attributes) {
    (void)unused;
    out.push_back(ParsePos(padded));
  }
  return out;
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
