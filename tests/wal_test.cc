// Unit tests for the write-ahead-log model: entry codec, log storage with
// the R1 guard, apply-to-data-rows, snapshot reads with provenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/coding.h"
#include "common/random.h"
#include "kvstore/store.h"
#include "wal/log.h"
#include "wal/log_entry.h"

namespace paxoscp::wal {
namespace {

TxnRecord MakeTxn(TxnId id, LogPos read_pos,
                  std::vector<std::string> read_attrs,
                  std::vector<std::pair<std::string, std::string>> writes) {
  TxnRecord t;
  t.id = id;
  t.origin_dc = TxnIdDc(id);
  t.read_pos = read_pos;
  for (auto& attr : read_attrs) {
    t.reads.push_back(ReadRecord{{"r", attr}, 0, 0});
  }
  for (auto& [attr, value] : writes) {
    t.writes.push_back(WriteRecord{{"r", attr}, value});
  }
  return t;
}

TEST(LogEntryTest, EncodeDecodeRoundTrip) {
  LogEntry entry;
  entry.winner_dc = 2;
  entry.txns.push_back(MakeTxn(MakeTxnId(1, 7), 41, {"a", "b"},
                               {{"c", "v1"}, {"d", "v2"}}));
  entry.txns.push_back(MakeTxn(MakeTxnId(2, 9), 41, {}, {{"e", ""}}));
  entry.txns[0].reads[0].observed_writer = MakeTxnId(0, 3);
  entry.txns[0].reads[0].observed_pos = 17;

  Result<LogEntry> decoded = LogEntry::Decode(entry.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, entry);
}

TEST(LogEntryTest, EmptyEntryRoundTrip) {
  LogEntry entry;
  Result<LogEntry> decoded = LogEntry::Decode(entry.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entry);
  EXPECT_EQ(decoded->winner_dc, kNoDc);
}

TEST(LogEntryTest, DecodeRejectsTruncation) {
  LogEntry entry;
  entry.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {"a"}, {{"b", "v"}}));
  std::string encoded = entry.Encode();
  for (size_t cut : {size_t{1}, encoded.size() / 2, encoded.size() - 1}) {
    EXPECT_FALSE(LogEntry::Decode(encoded.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(LogEntryTest, DecodeRejectsTrailingBytes) {
  LogEntry entry;
  entry.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {}, {{"b", "v"}}));
  std::string encoded = entry.Encode() + "x";
  EXPECT_FALSE(LogEntry::Decode(encoded).ok());
}

TEST(LogEntryTest, FingerprintMatchesContent) {
  LogEntry a, b;
  a.winner_dc = b.winner_dc = 1;
  a.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {"x"}, {{"y", "v"}}));
  b.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {"x"}, {{"y", "v"}}));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.txns[0].writes[0].value = "w";
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(LogEntryTest, StreamedFingerprintEqualsFingerprintOfEncoding) {
  // Fingerprint() streams the fields through a chunking-invariant hasher;
  // it must equal hashing the materialized encoding byte-for-byte.
  LogEntry entry;
  entry.winner_dc = 2;
  entry.txns.push_back(
      MakeTxn(MakeTxnId(1, 7), 3, {"a1", "a2"}, {{"a3", "v3"}, {"a4", "v4"}}));
  entry.txns.push_back(MakeTxn(MakeTxnId(2, 9), 3, {}, {{"a5", ""}}));
  EXPECT_EQ(entry.Fingerprint(), Fingerprint64(entry.Encode()));
  EXPECT_EQ(LogEntry{}.Fingerprint(), Fingerprint64(LogEntry{}.Encode()));
}

TEST(LogEntryTest, ContainsTxn) {
  LogEntry entry;
  entry.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {}, {}));
  entry.txns.push_back(MakeTxn(MakeTxnId(2, 5), 0, {}, {}));
  EXPECT_TRUE(entry.ContainsTxn(MakeTxnId(1, 1)));
  EXPECT_TRUE(entry.ContainsTxn(MakeTxnId(2, 5)));
  EXPECT_FALSE(entry.ContainsTxn(MakeTxnId(3, 1)));
}

TEST(LogEntryTest, WritesItemReadBy) {
  LogEntry winners;
  winners.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {}, {{"a", "v"}}));

  TxnRecord reads_a = MakeTxn(MakeTxnId(2, 1), 0, {"a"}, {{"b", "w"}});
  TxnRecord reads_b = MakeTxn(MakeTxnId(2, 2), 0, {"b"}, {{"a", "w"}});
  EXPECT_TRUE(winners.WritesItemReadBy(reads_a));
  // Write-write overlap alone is not a conflict for promotion.
  EXPECT_FALSE(winners.WritesItemReadBy(reads_b));
}

TEST(LogEntryTest, ReadsAndWritesHelpers) {
  TxnRecord t = MakeTxn(MakeTxnId(1, 1), 0, {"a"}, {{"b", "v"}});
  EXPECT_TRUE(t.Reads(ItemId{"r", "a"}));
  EXPECT_FALSE(t.Reads(ItemId{"r", "b"}));
  EXPECT_TRUE(t.Writes(ItemId{"r", "b"}));
  EXPECT_FALSE(t.Writes(ItemId{"r", "a"}));
  EXPECT_FALSE(t.Writes(ItemId{"other_row", "b"}));
  // A whole-row predicate read (Txn::ReadRow phantom protection) is
  // covered by any write to that row, and only that row.
  EXPECT_TRUE(t.Writes(ItemId{"r", kWholeRowAttribute}));
  EXPECT_FALSE(t.Writes(ItemId{"other_row", kWholeRowAttribute}));
}

TEST(PadPosTest, LexicographicOrderMatchesNumeric) {
  EXPECT_EQ(PadPos(1), "000000000001");
  EXPECT_EQ(PadPos(999999999999ULL), "999999999999");
  EXPECT_LT(PadPos(2), PadPos(10));
  EXPECT_LT(PadPos(99), PadPos(100));
}

class LogTest : public ::testing::Test {
 protected:
  kvstore::MultiVersionStore store_;
  WriteAheadLog log_{&store_, "g"};

  LogEntry Entry(TxnId id, std::vector<std::pair<std::string, std::string>>
                               writes) {
    LogEntry e;
    e.winner_dc = TxnIdDc(id);
    e.txns.push_back(MakeTxn(id, 0, {}, std::move(writes)));
    return e;
  }
};

TEST_F(LogTest, EmptyLog) {
  EXPECT_EQ(log_.MaxDecided(), 0u);
  EXPECT_EQ(log_.AppliedThrough(), 0u);
  EXPECT_FALSE(log_.HasEntry(1));
  EXPECT_TRUE(log_.GetEntry(1).status().IsNotFound());
}

TEST_F(LogTest, SetGetEntry) {
  LogEntry e = Entry(MakeTxnId(1, 1), {{"a", "v"}});
  ASSERT_TRUE(log_.SetEntry(1, e).ok());
  EXPECT_TRUE(log_.HasEntry(1));
  EXPECT_EQ(log_.MaxDecided(), 1u);
  Result<LogEntry> got = log_.GetEntry(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, e);
}

TEST_F(LogTest, SetEntryIdempotent) {
  LogEntry e = Entry(MakeTxnId(1, 1), {{"a", "v"}});
  ASSERT_TRUE(log_.SetEntry(1, e).ok());
  EXPECT_TRUE(log_.SetEntry(1, e).ok());  // same value: fine
}

TEST_F(LogTest, SetEntryConflictIsR1Violation) {
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "v"}})).ok());
  Status s = log_.SetEntry(1, Entry(MakeTxnId(2, 1), {{"a", "w"}}));
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST_F(LogTest, MaxDecidedTracksHighest) {
  ASSERT_TRUE(log_.SetEntry(3, Entry(MakeTxnId(1, 3), {{"a", "3"}})).ok());
  EXPECT_EQ(log_.MaxDecided(), 3u);
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "1"}})).ok());
  EXPECT_EQ(log_.MaxDecided(), 3u);  // does not regress
}

TEST_F(LogTest, FirstMissingFindsTheFirstGap) {
  EXPECT_EQ(log_.FirstMissing(3, 2), 0u);  // empty range
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "1"}})).ok());
  ASSERT_TRUE(log_.SetEntry(2, Entry(MakeTxnId(1, 2), {{"a", "2"}})).ok());
  ASSERT_TRUE(log_.SetEntry(4, Entry(MakeTxnId(1, 4), {{"a", "4"}})).ok());
  EXPECT_EQ(log_.FirstMissing(1, 2), 0u);  // every entry present
  EXPECT_EQ(log_.FirstMissing(1, 4), 3u);
  EXPECT_EQ(log_.FirstMissing(4, 6), 5u);
}

TEST_F(LogTest, ApplyThroughWritesDataRows) {
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "1"}})).ok());
  ASSERT_TRUE(
      log_.SetEntry(2, Entry(MakeTxnId(1, 2), {{"a", "2"}, {"b", "x"}}))
          .ok());
  ASSERT_TRUE(log_.ApplyThrough(2).ok());
  EXPECT_EQ(log_.AppliedThrough(), 2u);

  ItemRead read_a1 = log_.ReadItem(ItemId{"r", "a"}, 1);
  EXPECT_TRUE(read_a1.found);
  EXPECT_EQ(read_a1.value, "1");
  EXPECT_EQ(read_a1.writer, MakeTxnId(1, 1));
  EXPECT_EQ(read_a1.written_pos, 1u);

  ItemRead read_a2 = log_.ReadItem(ItemId{"r", "a"}, 2);
  EXPECT_EQ(read_a2.value, "2");
  EXPECT_EQ(read_a2.writer, MakeTxnId(1, 2));
}

TEST_F(LogTest, ApplyThroughReportsGap) {
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "1"}})).ok());
  ASSERT_TRUE(log_.SetEntry(3, Entry(MakeTxnId(1, 3), {{"a", "3"}})).ok());
  LogPos missing = 0;
  Status s = log_.ApplyThrough(3, &missing);
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(missing, 2u);
  EXPECT_EQ(log_.AppliedThrough(), 1u);  // applied what it could
}

TEST_F(LogTest, ApplyIsIdempotent) {
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "1"}})).ok());
  ASSERT_TRUE(log_.ApplyThrough(1).ok());
  ASSERT_TRUE(log_.ApplyThrough(1).ok());
  EXPECT_EQ(store_.VersionCount(log_.DataKey("r")), 1u);
}

TEST_F(LogTest, CombinedEntryAppliesInListOrder) {
  // Two transactions in one entry write the same attribute: the later one
  // in the list must win (serial order within the entry).
  LogEntry e;
  e.winner_dc = 0;
  e.txns.push_back(MakeTxn(MakeTxnId(1, 1), 0, {}, {{"a", "first"}}));
  e.txns.push_back(MakeTxn(MakeTxnId(2, 1), 0, {}, {{"a", "second"}}));
  ASSERT_TRUE(log_.SetEntry(1, e).ok());
  ASSERT_TRUE(log_.ApplyThrough(1).ok());
  ItemRead read = log_.ReadItem(ItemId{"r", "a"}, 1);
  EXPECT_EQ(read.value, "second");
  EXPECT_EQ(read.writer, MakeTxnId(2, 1));
}

TEST_F(LogTest, ReadItemInitialState) {
  ItemRead read = log_.ReadItem(ItemId{"r", "nope"}, 5);
  EXPECT_FALSE(read.found);
  EXPECT_EQ(read.value, "");
  EXPECT_EQ(read.writer, 0u);
  EXPECT_EQ(read.written_pos, 0u);
}

TEST_F(LogTest, LoadInitialRowReadableAtPositionZero) {
  ASSERT_TRUE(log_.LoadInitialRow("r", {{"a", "seed"}}).ok());
  ItemRead read = log_.ReadItem(ItemId{"r", "a"}, 0);
  EXPECT_TRUE(read.found);
  EXPECT_EQ(read.value, "seed");
  EXPECT_EQ(read.writer, 0u);  // initial state has no writer
}

TEST_F(LogTest, AllEntriesReturnsEverything) {
  for (LogPos pos = 1; pos <= 5; ++pos) {
    ASSERT_TRUE(
        log_.SetEntry(pos, Entry(MakeTxnId(1, pos), {{"a", "v"}})).ok());
  }
  auto all = log_.AllEntries();
  EXPECT_EQ(all.size(), 5u);
  EXPECT_TRUE(all.count(1) && all.count(5));
}

TEST_F(LogTest, LatestOnlyRowsKeepOneVersion) {
  // What the log reads only at its latest it keeps itself, not in store
  // rows (design note D5); the data row keeps one version per applied
  // position plus the loaded one, which the benchmark's replay reads at 0.
  constexpr LogPos kEntries = 8;
  const kvstore::AttributeMap loaded = {{"a", "seed"}, {"b", "seed"}};
  ASSERT_TRUE(log_.LoadInitialRow("r", loaded).ok());
  const TxnId cross = MakeTxnId(2, 1);
  for (LogPos pos = 1; pos <= kEntries; ++pos) {
    LogEntry e = Entry(MakeTxnId(1, pos), {{"a", std::to_string(pos)}});
    if (pos == 3) {
      TxnRecord prepare = MakeTxn(cross, 2, {}, {{"b", "cross"}});
      prepare.kind = RecordKind::kPrepare;
      prepare.cross_ts = 7;
      prepare.participants = {"g", "h"};
      e.txns.push_back(std::move(prepare));
    } else if (pos == 5) {
      TxnRecord decide = MakeTxn(cross, 4, {}, {});
      decide.kind = RecordKind::kDecide;
      decide.commit_decision = true;
      e.txns.push_back(std::move(decide));
    }
    ASSERT_TRUE(log_.SetEntry(pos, e).ok());
    if (pos % 2 == 0) {
      // A second, different value: rejected, and noted by the log.
      EXPECT_EQ(log_.SetEntry(pos, Entry(MakeTxnId(3, pos), {{"a", "x"}}))
                    .code(),
                Status::Code::kCorruption);
    }
    if (pos == kEntries / 2) {
      EXPECT_EQ(log_.ContiguousFrontier(), pos);
    }
  }
  EXPECT_EQ(log_.ContiguousFrontier(), kEntries);
  ASSERT_TRUE(log_.ApplyThrough(kEntries).ok());
  EXPECT_EQ(log_.AppliedThrough(), kEntries);
  EXPECT_EQ(log_.MaxDecided(), kEntries);
  EXPECT_EQ(log_.SafeReadPos(), kEntries);  // the prepare was decided
  EXPECT_EQ(log_.RejectedPositions(),
            (std::vector<LogPos>{2, 4, 6, 8}));

  // The store holds only the entries and the data row.
  std::vector<std::string> keys;
  for (LogPos pos = 1; pos <= kEntries; ++pos) {
    keys.push_back("!log/g/" + PadPos(pos));
  }
  keys.push_back(log_.DataKey("r"));
  EXPECT_EQ(store_.KeysWithPrefix(""), keys);
  EXPECT_EQ(store_.VersionCount(log_.DataKey("r")), kEntries + 1);
  Result<kvstore::RowVersion> initial = store_.Read(log_.DataKey("r"), 0);
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->timestamp, 0u);
  EXPECT_TRUE(*initial->attributes == loaded);
  EXPECT_EQ(log_.ReadItem(ItemId{"r", "b"}, 2).value, "seed");
  EXPECT_EQ(log_.ReadItem(ItemId{"r", "b"}, 3).value, "cross");
}

/// A cross record of `kind` for `id` (prepares name groups g and h).
TxnRecord CrossRecord(TxnId id, RecordKind kind, uint64_t cross_ts = 0,
                      bool commit = false) {
  TxnRecord t = MakeTxn(id, 0, {}, {});
  t.kind = kind;
  t.cross_ts = cross_ts;
  t.commit_decision = commit;
  if (kind == RecordKind::kPrepare) {
    t.participants = {"g", "h"};
    t.writes.push_back(WriteRecord{{"r", "x"}, std::to_string(id)});
  }
  return t;
}

/// What the log's bookkeeping must read, recomputed from the decided
/// entries and the positions a second value was sent to.
struct Bookkeeping {
  LogPos max_decided = 0;
  LogPos frontier = 0;
  uint64_t max_cross_ts = 0;
  std::vector<PendingPrepare> pending;
  LogPos safe_read_pos = 0;
  std::map<TxnId, CrossDecision> decisions;
  std::map<TxnId, PrepareInfo> prepares;
  std::vector<LogPos> rejected;
};

Bookkeeping Recompute(const std::map<LogPos, LogEntry>& entries,
                      const std::set<LogPos>& rejected) {
  Bookkeeping out;
  for (const auto& [pos, entry] : entries) {
    out.max_decided = pos;
    if (pos == out.frontier + 1) out.frontier = pos;
    for (const TxnRecord& t : entry.txns) {
      if (t.kind == RecordKind::kPrepare) {
        out.max_cross_ts = std::max(out.max_cross_ts, t.cross_ts);
        out.prepares[t.id] = PrepareInfo{true, pos, t.participants};
      } else if (t.kind == RecordKind::kDecide) {
        // Ascending positions: the first decide seen is the lowest.
        out.decisions.try_emplace(t.id,
                                  CrossDecision{true, t.commit_decision, pos});
      }
    }
  }
  // Listed by prepare position, then by the id's decimal digits.
  std::vector<std::pair<std::pair<LogPos, std::string>, TxnId>> pending;
  for (const auto& [id, prep] : out.prepares) {
    if (out.decisions.count(id) == 0) {
      pending.push_back({{prep.pos, std::to_string(id)}, id});
    }
  }
  std::sort(pending.begin(), pending.end());
  for (const auto& [key, id] : pending) {
    out.pending.push_back(PendingPrepare{key.first, id});
  }
  out.safe_read_pos = out.max_decided;
  if (!out.pending.empty()) {
    out.safe_read_pos =
        std::min(out.safe_read_pos, out.pending.front().pos - 1);
  }
  out.rejected.assign(rejected.begin(), rejected.end());
  return out;
}

TEST_F(LogTest, BookkeepingMatchesTheEntriesInEveryLandingOrder) {
  // Twelve positions: data, a prepare combined with data, two prepares
  // sharing one entry (ids 10 and 9, listed "10" before "9"), a decide at
  // a lower position than its prepare, and a transaction decided at two
  // positions, abort below commit, where the lower decide wins.
  const TxnId p1 = MakeTxnId(1, 100), p3 = MakeTxnId(2, 300);
  const TxnId p2a = MakeTxnId(0, 10), p2b = MakeTxnId(0, 9);
  std::map<LogPos, LogEntry> positions;
  for (LogPos pos : {1, 2, 4, 6, 10}) {
    positions[pos] = Entry(MakeTxnId(1, pos), {{"a", std::to_string(pos)}});
  }
  positions[2].txns.push_back(CrossRecord(p1, RecordKind::kPrepare, 5));
  positions[3].txns = {CrossRecord(p3, RecordKind::kDecide, 0, false)};
  positions[5].txns = {CrossRecord(p2a, RecordKind::kPrepare, 8),
                       CrossRecord(p2b, RecordKind::kPrepare, 6)};
  positions[7].txns = {CrossRecord(p1, RecordKind::kDecide, 0, true)};
  positions[8].txns = {CrossRecord(p3, RecordKind::kPrepare, 3)};
  positions[9].txns = {CrossRecord(p2a, RecordKind::kDecide, 0, false)};
  positions[11].txns = {CrossRecord(p2a, RecordKind::kDecide, 0, true)};
  positions[12].txns = {CrossRecord(p2b, RecordKind::kDecide, 0, true)};
  ASSERT_EQ(positions.size(), 12u);
  const std::vector<LogPos> seconds = {4, 8};  // sent a second value
  const std::vector<TxnId> ids = {p1, p2a, p2b, p3, MakeTxnId(3, 1)};

  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    kvstore::MultiVersionStore store;
    WriteAheadLog log(&store, "g");
    Rng rng(seed);
    // A landing order: a shuffle of the positions, each second value at a
    // random point after its position's first one (0 marks a second).
    std::vector<LogPos> order;
    for (const auto& [pos, entry] : positions) order.push_back(pos);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    std::vector<std::pair<LogPos, bool>> sends;
    for (LogPos pos : order) sends.push_back({pos, false});
    for (LogPos pos : seconds) {
      size_t first = 0;
      while (sends[first].first != pos || sends[first].second) ++first;
      const size_t at = first + 1 + rng.Uniform(sends.size() - first);
      sends.insert(sends.begin() + static_cast<std::ptrdiff_t>(at),
                   {pos, true});
    }

    std::set<LogPos> rejected;
    for (const auto& [pos, second] : sends) {
      if (second) {
        LogEntry other = Entry(MakeTxnId(3, pos), {{"a", "second"}});
        EXPECT_EQ(log.SetEntry(pos, other).code(), Status::Code::kCorruption);
        rejected.insert(pos);
      } else {
        ASSERT_TRUE(log.SetEntry(pos, positions[pos]).ok());
      }
      const Bookkeeping want = Recompute(log.AllEntries(), rejected);
      EXPECT_EQ(log.MaxDecided(), want.max_decided);
      EXPECT_EQ(log.ContiguousFrontier(), want.frontier);
      EXPECT_EQ(log.MaxCrossTs(), want.max_cross_ts);
      const std::vector<PendingPrepare> pending = log.PendingPrepares();
      ASSERT_EQ(pending.size(), want.pending.size());
      for (size_t i = 0; i < pending.size(); ++i) {
        EXPECT_EQ(pending[i].pos, want.pending[i].pos) << i;
        EXPECT_EQ(pending[i].txn, want.pending[i].txn) << i;
      }
      EXPECT_EQ(log.SafeReadPos(), want.safe_read_pos);
      for (TxnId id : ids) {
        const CrossDecision d = log.DecisionFor(id);
        const CrossDecision wd =
            want.decisions.count(id) ? want.decisions.at(id) : CrossDecision{};
        EXPECT_EQ(d.known, wd.known) << id;
        EXPECT_EQ(d.commit, wd.commit) << id;
        EXPECT_EQ(d.pos, wd.pos) << id;
        const PrepareInfo p = log.PrepareFor(id);
        const PrepareInfo wp =
            want.prepares.count(id) ? want.prepares.at(id) : PrepareInfo{};
        EXPECT_EQ(p.known, wp.known) << id;
        EXPECT_EQ(p.pos, wp.pos) << id;
        EXPECT_EQ(p.participants, wp.participants) << id;
      }
      EXPECT_EQ(log.RejectedPositions(), want.rejected);
    }
    EXPECT_EQ(log.MaxDecided(), 12u);
    EXPECT_TRUE(log.PendingPrepares().empty());
    EXPECT_EQ(log.DecisionFor(p2a).pos, 9u);
    EXPECT_FALSE(log.DecisionFor(p2a).commit);
  }
}

TEST_F(LogTest, LogsAreIsolatedPerGroup) {
  WriteAheadLog other(&store_, "h");
  ASSERT_TRUE(log_.SetEntry(1, Entry(MakeTxnId(1, 1), {{"a", "g"}})).ok());
  EXPECT_FALSE(other.HasEntry(1));
  EXPECT_EQ(other.MaxDecided(), 0u);
}

}  // namespace
}  // namespace paxoscp::wal
