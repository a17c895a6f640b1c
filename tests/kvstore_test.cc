// Unit tests for the multi-version key-value store — the paper §2.2
// contract: atomic read/write/checkAndWrite over multi-version rows —
// plus the copy-on-write representation guarantees of design note D5
// (docs/ARCHITECTURE.md): shared snapshots are immutable and survive both
// later writes and garbage collection, and a merge-write shares every
// leaf of the row it does not touch. AttributeMap itself is checked
// against std::map as a reference model.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "kvstore/store.h"

namespace paxoscp::kvstore {
namespace {

using AttrMap = AttributeMap;

// GCC 12 at -O2/-O3 emits a spurious -Wrestrict through libstdc++'s
// char_traits memcpy when `"lit" + std::to_string(n)` is fully inlined
// (GCC PR 105651); appending instead of concatenating sidesteps it.
template <typename N>
std::string Cat(const char* prefix, N n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// Reference model for AttributeMap: a plain ordered std::map.
using Model = std::map<std::string, std::string>;

Model ToModel(const AttrMap& map) {
  Model out;
  for (const auto& [name, value] : map) out.emplace(name, value);
  return out;
}

/// Contents, order and size of `map` equal `model`'s.
void ExpectMatches(const AttrMap& map, const Model& model) {
  ASSERT_EQ(map.size(), model.size());
  EXPECT_EQ(map.empty(), model.empty());
  auto it = map.begin();
  for (const auto& [name, value] : model) {
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->first, name);
    EXPECT_EQ(it->second, value);
    ++it;
  }
  EXPECT_EQ(it, map.end());
}

// ------------------------------------------------------------ AttributeMap

TEST(AttributeMapTest, MatchesStdMapUnderRandomOps) {
  // Seeded random inserts, assignments, erases and copy-then-mutate over
  // 0-5000 keys. Phases alternate between insert-heavy (toward ~3000
  // entries) and erase-heavy (back to ~700, then drained to empty), so the
  // map crosses the one-leaf boundary both ways, its root holds tens of
  // inner nodes, and leaves and nodes split and empty out. Copies taken
  // along the way must never change.
  constexpr uint64_t kKeys = 5000;
  constexpr int kPhase = 8000;
  Rng rng(20261016);
  AttrMap map;
  Model model;
  std::vector<std::pair<AttrMap, Model>> copies;  // must never change
  for (int op = 0; op < 6 * kPhase; ++op) {
    const bool growing = (op / kPhase) % 2 == 0;
    const std::string key = Cat("k", rng.Uniform(kKeys));
    const std::string value = Cat("heap-allocated-value-", op);
    const uint64_t roll = rng.Uniform(100);
    if (roll < (growing ? 45u : 1u)) {
      map[key] = value;
      model[key] = value;
    } else if (roll < (growing ? 75u : 2u)) {
      map.insert_or_assign(key, value);
      model.insert_or_assign(key, value);
    } else if (roll < 97) {
      EXPECT_EQ(map.erase(key), model.erase(key));
    } else {
      // Copy, then mutate the copy: the original must not see it.
      AttrMap copy = map;
      Model copy_model = model;
      const std::string other = Cat("k", rng.Uniform(kKeys));
      copy[key] = value;
      copy_model[key] = value;
      EXPECT_EQ(copy.erase(other), copy_model.erase(other));
      ExpectMatches(copy, copy_model);
      ExpectMatches(map, model);
      copies.emplace_back(std::move(copy), std::move(copy_model));
      if (copies.size() > 8) copies.erase(copies.begin());
    }
    // Point lookups agree, hits and misses alike.
    const std::string probe = Cat("k", rng.Uniform(kKeys));
    auto expected = model.find(probe);
    EXPECT_EQ(map.count(probe), expected == model.end() ? 0u : 1u);
    if (expected == model.end()) {
      EXPECT_EQ(map.find(probe), map.end());
      EXPECT_THROW((void)map.at(probe), std::out_of_range);
    } else {
      EXPECT_EQ(map.at(probe), expected->second);
      EXPECT_EQ(map.find(probe)->second, expected->second);
    }
    if (op % (2 * kPhase) == 2 * kPhase - 1) {  // end of an erase-heavy phase
      for (const auto& [name, unused] : Model(model)) {
        EXPECT_EQ(map.erase(name), 1u);
        model.erase(name);
      }
      EXPECT_TRUE(map.empty());
      EXPECT_EQ(map.begin(), map.end());
    }
    if (op % 500 == 0) {
      ExpectMatches(map, model);
      for (const auto& [copy, copy_model] : copies) {
        ExpectMatches(copy, copy_model);
      }
    }
  }
  ExpectMatches(map, model);
}

TEST(AttributeMapTest, EqualityIgnoresChunkLayout) {
  // The same contents reached by different insertion orders (different
  // leaf and node boundaries) compare equal; one changed value does not.
  AttrMap ascending;
  AttrMap descending;
  for (int i = 0; i < 500; ++i) ascending[Cat("k", i)] = Cat("v", i);
  for (int i = 499; i >= 0; --i) descending[Cat("k", i)] = Cat("v", i);
  EXPECT_TRUE(ascending == descending);
  descending["k250"] = "other";
  EXPECT_FALSE(ascending == descending);
  EXPECT_FALSE(ascending == AttrMap{});
  // The first of two duplicate keys wins, as with std::map.
  const AttrMap dup{{"a", "first"}, {"a", "second"}};
  EXPECT_EQ(dup.size(), 1u);
  EXPECT_EQ(dup.at("a"), "first");
}

// --------------------------------------------------------------- the store

TEST(StoreTest, ReadMissingKeyIsNotFound) {
  MultiVersionStore store;
  EXPECT_TRUE(store.Read("nope").status().IsNotFound());
  EXPECT_FALSE(store.Contains("nope"));
}

TEST(StoreTest, WriteThenReadLatest) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}).ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->attributes->at("a"), "1");
  EXPECT_EQ(row->timestamp, 1);
}

TEST(StoreTest, AutoTimestampsIncrease) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "2"}}).ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->timestamp, 2);
  EXPECT_EQ(row->attributes->at("a"), "2");
  EXPECT_EQ(store.VersionCount("k"), 2u);
}

TEST(StoreTest, SnapshotReadsSeeOldVersions) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "v10"}}, 10).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "v20"}}, 20).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "v30"}}, 30).ok());

  EXPECT_TRUE(store.Read("k", 5).status().IsNotFound());
  EXPECT_EQ(store.Read("k", 10)->attributes->at("a"), "v10");
  EXPECT_EQ(store.Read("k", 15)->attributes->at("a"), "v10");
  EXPECT_EQ(store.Read("k", 20)->attributes->at("a"), "v20");
  EXPECT_EQ(store.Read("k", 29)->attributes->at("a"), "v20");
  EXPECT_EQ(store.Read("k", 1000)->attributes->at("a"), "v30");
  EXPECT_EQ(store.Read("k")->attributes->at("a"), "v30");
}

TEST(StoreTest, ExplicitTimestampConflictsBelowLatest) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}, 10).ok());
  EXPECT_TRUE(store.Write("k", AttrMap{{"a", "0"}}, 5).IsConflict());
  EXPECT_TRUE(store.Write("k", AttrMap{{"a", "0"}}, 10).IsConflict());
  EXPECT_TRUE(store.Write("k", AttrMap{{"a", "2"}}, 11).ok());
}

TEST(StoreTest, ReadAttrFindsAttribute) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}, {"b", "2"}}).ok());
  EXPECT_EQ(*store.ReadAttr("k", "b"), "2");
  EXPECT_TRUE(store.ReadAttr("k", "c").status().IsNotFound());
  EXPECT_TRUE(store.ReadAttr("zzz", "a").status().IsNotFound());
}

TEST(StoreTest, ReadAttrViewBorrowsWithoutCopy) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "payload"}}).ok());
  Result<AttrView> view = store.ReadAttrView("k", "a");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->value, "payload");
  // The view aliases the shared version's storage, not a copy.
  EXPECT_EQ(view->value.data(), view->version->at("a").data());
  // The borrowed value stays valid across later writes to the key.
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "other"}}).ok());
  EXPECT_EQ(view->value, "payload");
}

TEST(StoreTest, CheckAndWriteSucceedsOnMatch) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"bal", "7"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("k", "bal", "7",
                                  AttrMap{{"bal", "8"}}).ok());
  EXPECT_EQ(*store.ReadAttr("k", "bal"), "8");
}

TEST(StoreTest, CheckAndWriteFailsOnMismatch) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"bal", "7"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("k", "bal", "6", AttrMap{{"bal", "8"}})
                  .IsConflict());
  EXPECT_EQ(*store.ReadAttr("k", "bal"), "7");
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(StoreTest, CheckAndWriteMissingRowComparesEmpty) {
  MultiVersionStore store;
  EXPECT_TRUE(store.CheckAndWrite("new", "flag", "",
                                  AttrMap{{"flag", "1"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("new", "flag", "",
                                  AttrMap{{"flag", "2"}}).IsConflict());
  EXPECT_EQ(*store.ReadAttr("new", "flag"), "1");
}

TEST(StoreTest, CheckAndWriteMissingAttributeComparesEmpty) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"other", "x"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("k", "flag", "",
                                  AttrMap{{"flag", "1"}}).ok());
}

TEST(StoreTest, CheckAndWriteTestsLatestVersion) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "old"}}, 1).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "new"}}, 2).ok());
  EXPECT_TRUE(
      store.CheckAndWrite("k", "a", "old", AttrMap{{"a", "x"}}).IsConflict());
  EXPECT_TRUE(store.CheckAndWrite("k", "a", "new", AttrMap{{"a", "x"}}).ok());
}

TEST(StoreTest, MergeWritePreservesUntouchedAttributes) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}, {"b", "2"}}, 1).ok());
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a", "9"}}, 5).ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->attributes->at("a"), "9");
  EXPECT_EQ(row->attributes->at("b"), "2");
  EXPECT_EQ(row->timestamp, 5);
}

TEST(StoreTest, MergeWriteIsIdempotentViaConflict) {
  MultiVersionStore store;
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a", "1"}}, 5).ok());
  EXPECT_TRUE(store.MergeWrite("k", AttrMap{{"a", "1"}}, 5).IsConflict());
  EXPECT_TRUE(store.MergeWrite("k", AttrMap{{"a", "0"}}, 3).IsConflict());
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(StoreTest, MergeWriteAddsAndOverwritesInterleavedAttributes) {
  // Exercises every branch of the ordered-merge construction: update-only
  // keys before, between, and after base keys, plus overwritten ones.
  MultiVersionStore store;
  ASSERT_TRUE(
      store.Write("k", AttrMap{{"b", "b0"}, {"d", "d0"}, {"f", "f0"}}, 1)
          .ok());
  ASSERT_TRUE(store
                  .MergeWrite("k",
                              AttrMap{{"a", "a1"},
                                      {"d", "d1"},
                                      {"e", "e1"},
                                      {"g", "g1"}},
                              2)
                  .ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  const AttrMap expected{{"a", "a1"}, {"b", "b0"}, {"d", "d1"},
                         {"e", "e1"}, {"f", "f0"}, {"g", "g1"}};
  EXPECT_EQ(*row->attributes, expected);
}

TEST(StoreTest, MergeWriteWithEmptyUpdatesSharesSnapshot) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}, 1).ok());
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{}, 2).ok());
  Result<RowVersion> v1 = store.Read("k", 1);
  Result<RowVersion> v2 = store.Read("k", 2);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->attributes.get(), v2->attributes.get());  // shared, not copied
}

// ------------------------------------------------------ COW representation

TEST(StoreTest, SnapshotsAreImmutableAcrossLaterWrites) {
  // A Read handed out before later writes/merges must keep observing its
  // version's exact bytes (the old deep-copy semantics).
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}, {"b", "2"}}, 1).ok());
  Result<RowVersion> snapshot = store.Read("k", 1);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a", "9"}, {"c", "3"}}, 2).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"z", "z"}}, 3).ok());
  const AttrMap expected{{"a", "1"}, {"b", "2"}};
  EXPECT_EQ(*snapshot->attributes, expected);
}

TEST(StoreTest, CowReadsMatchDeepCopySemantics) {
  // Property test: run a random op sequence against the COW store and an
  // eager deep-copy reference model (plain std::maps); every snapshot read
  // must observe identical bytes. Rows span several chunks, so merges and
  // copy-then-mutate rewrites share chunks between versions.
  Rng rng(20260730);
  MultiVersionStore store;
  std::map<Timestamp, Model> model;  // reference: full copy per version
  Model latest;
  AttrMap initial;
  for (int a = 0; a < 200; ++a) {
    initial[Cat("a", a)] = Cat("initial-", a);
    latest[Cat("a", a)] = Cat("initial-", a);
  }
  ASSERT_TRUE(store.Write("k", std::move(initial), 1).ok());
  model[1] = latest;
  Timestamp ts = 1;
  for (int op = 0; op < 500; ++op) {
    const int kind = static_cast<int>(rng.Uniform(3));
    const std::string attr = Cat("a", rng.Uniform(250));
    const std::string value = Cat("value-", rng.Uniform(1000));
    ++ts;
    if (kind == 0) {
      // Whole-row write of a mutated copy of the latest snapshot (a
      // read-modify-write): the copy shares chunks with the snapshot.
      const std::string gone = Cat("a", rng.Uniform(250));
      AttrMap row = *store.Read("k")->attributes;
      row[attr] = value;
      row.erase(gone);
      ASSERT_TRUE(store.Write("k", std::move(row), ts).ok());
      latest[attr] = value;
      latest.erase(gone);
    } else if (kind == 1) {
      ASSERT_TRUE(store.MergeWrite("k", AttrMap{{attr, value}}, ts).ok());
      latest[attr] = value;
    } else {
      ASSERT_TRUE(store
                      .MergeWrite("k", AttrMap{{attr, value}, {"x", value}},
                                  ts)
                      .ok());
      latest[attr] = value;
      latest["x"] = value;
    }
    model[ts] = latest;
    // Probe a random historical snapshot against the reference model.
    const Timestamp probe = 1 + static_cast<Timestamp>(rng.Uniform(ts));
    Result<RowVersion> row = store.Read("k", probe);
    ASSERT_TRUE(row.ok());
    auto it = model.upper_bound(probe);
    ASSERT_NE(it, model.begin());
    --it;
    EXPECT_EQ(ToModel(*row->attributes), it->second) << "probe ts=" << probe;
  }
}

TEST(StoreTest, MergeWriteSharesUntouchedChunks) {
  // D5 invariant 1 inside the map: a one-attribute merge onto a
  // 2000-attribute row copies only the leaf it touches. Untouched values
  // are the very same objects in both versions, and the old version keeps
  // its bytes after the merge and after GC drops it from the chain.
  MultiVersionStore store;
  AttrMap row;
  for (int a = 0; a < 2000; ++a) row[Cat("a", a)] = Cat("initial-value-", a);
  const Model before = ToModel(row);
  ASSERT_TRUE(store.Write("k", std::move(row), 1).ok());
  Result<RowVersion> v1 = store.Read("k", 1);
  ASSERT_TRUE(v1.ok());
  const std::string_view old_a0 = v1->attributes->at("a0");

  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a0", "merged"}}, 2).ok());
  Result<RowVersion> v2 = store.Read("k", 2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(&v1->attributes->find("a1999")->second,
            &v2->attributes->find("a1999")->second);
  EXPECT_NE(&v1->attributes->find("a0")->second,
            &v2->attributes->find("a0")->second);
  EXPECT_EQ(v2->attributes->at("a0"), "merged");
  EXPECT_EQ(old_a0, "initial-value-0");
  ExpectMatches(*v1->attributes, before);

  EXPECT_EQ(store.TruncateVersions("k", 2), 1u);
  EXPECT_TRUE(store.Read("k", 1).status().IsNotFound());
  EXPECT_EQ(old_a0, "initial-value-0");
  ExpectMatches(*v1->attributes, before);
}

TEST(StoreTest, MergeWriteCopiesOnlyTheLeavesItTouches) {
  // A merge of k updates copies at most the leaves its writes land in, at
  // any row width. The rows are the two the benchmark's log applier
  // builds: the `paper` row (100 attributes) and the `wide-read` row (2000),
  // each value with its "#w/" provenance shadow, so an update is two
  // writes. A value that moved between the versions is one a cloned leaf
  // holds; the bound is two leaves per update.
  struct Shape {
    int width;
    std::vector<int> updated;
  };
  for (const Shape& shape : {Shape{100, {3, 27, 48, 71, 96}},
                             Shape{2000, {1234}}}) {
    MultiVersionStore store;
    AttrMap row;
    for (int a = 0; a < shape.width; ++a) {
      row[Cat("a", a)] = "sixteen-byte-val";
      row[Cat("#w/a", a)] = "provenance";
    }
    Model expected = ToModel(row);
    const Model before = expected;
    ASSERT_TRUE(store.Write("k", std::move(row), 1).ok());
    AttrMap updates;
    for (int a : shape.updated) {
      updates[Cat("a", a)] = "updated-value-16";
      updates[Cat("#w/a", a)] = "new-writer";
    }
    for (const auto& [name, value] : updates) expected[name] = value;
    ASSERT_TRUE(store.MergeWrite("k", updates, 2).ok());

    Result<RowVersion> v1 = store.Read("k", 1);
    Result<RowVersion> v2 = store.Read("k", 2);
    ASSERT_TRUE(v1.ok() && v2.ok());
    ExpectMatches(*v1->attributes, before);
    ExpectMatches(*v2->attributes, expected);
    size_t moved = 0;
    for (const auto& [name, value] : *v1->attributes) {
      if (&v2->attributes->find(name)->second != &value) ++moved;
    }
    EXPECT_GE(moved, updates.size()) << "width " << shape.width;
    EXPECT_LE(moved, 2 * shape.updated.size() * AttrMap::kLeafCapacity)
        << "width " << shape.width;
  }
}

TEST(StoreTest, HasAttrProbesLikeReadAttrView) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "payload"}}).ok());
  EXPECT_FALSE(store.HasAttr("nope", "a"));
  EXPECT_FALSE(store.HasAttr("k", "b"));
  EXPECT_TRUE(store.HasAttr("k", "a"));
  AttrView view;
  ASSERT_TRUE(store.HasAttr("k", "a", &view));
  EXPECT_EQ(view.value, "payload");
  EXPECT_EQ(view.value.data(), store.ReadAttrView("k", "a")->value.data());
}

// ----------------------------------------------------- GC vs. snapshots

TEST(StoreTest, TruncateKeepsSnapshotAtWatermark) {
  MultiVersionStore store;
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    ASSERT_TRUE(
        store.Write("k", AttrMap{{"a", std::to_string(ts)}}, ts).ok());
  }
  const size_t removed = store.TruncateVersions("k", 7);
  EXPECT_EQ(removed, 6u);  // versions 1..6 go; 7 stays readable
  EXPECT_EQ(*store.ReadAttr("k", "a", 7), "7");
  EXPECT_EQ(*store.ReadAttr("k", "a", 8), "8");
  EXPECT_TRUE(store.Read("k", 6).status().IsNotFound());
}

TEST(StoreTest, TruncateWatermarkBetweenVersionsKeepsNewestBelow) {
  MultiVersionStore store;
  for (Timestamp ts : {2, 4, 6, 8}) {
    ASSERT_TRUE(store.Write("k", AttrMap{{"a", std::to_string(ts)}}, ts).ok());
  }
  // Watermark 5 falls between versions 4 and 6: version 4 is the newest
  // version <= watermark and must stay readable; only 2 is collectable.
  EXPECT_EQ(store.TruncateVersions("k", 5), 1u);
  EXPECT_EQ(*store.ReadAttr("k", "a", 5), "4");
  EXPECT_EQ(*store.ReadAttr("k", "a", 4), "4");
  EXPECT_TRUE(store.Read("k", 3).status().IsNotFound());
  EXPECT_EQ(store.VersionCount("k"), 3u);
}

TEST(StoreTest, TruncateBelowOldestVersionRemovesNothing) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}, 10).ok());
  EXPECT_EQ(store.TruncateVersions("k", 5), 0u);
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(StoreTest, HeldSnapshotSurvivesTruncation) {
  // GC drops chain entries, but a snapshot already handed out shares the
  // attribute map and must stay readable and unchanged (D5 invariant).
  MultiVersionStore store;
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(store.Write("k", AttrMap{{"a", std::to_string(ts)}}, ts).ok());
  }
  Result<RowVersion> held = store.Read("k", 3);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(store.TruncateVersions("k", 8), 7u);
  EXPECT_EQ(held->timestamp, 3);
  EXPECT_EQ(held->attributes->at("a"), "3");
  // The store itself no longer serves the collected version...
  EXPECT_TRUE(store.Read("k", 3).status().IsNotFound());
  // ...but the surviving watermark version is intact.
  EXPECT_EQ(*store.ReadAttr("k", "a", 8), "8");
}

TEST(StoreTest, KeysWithPrefix) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("!log/g/000001", AttrMap{{"e", "x"}}).ok());
  ASSERT_TRUE(store.Write("!log/g/000002", AttrMap{{"e", "y"}}).ok());
  ASSERT_TRUE(store.Write("!log/h/000001", AttrMap{{"e", "z"}}).ok());
  ASSERT_TRUE(store.Write("d/g/row", AttrMap{{"a", "1"}}).ok());
  const auto keys = store.KeysWithPrefix("!log/g/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "!log/g/000001");
  EXPECT_EQ(keys[1], "!log/g/000002");
  EXPECT_EQ(store.KeyCount(), 4u);
}

TEST(StoreTest, ConcurrentCheckAndWriteGrantsExactlyOne) {
  // The store must be independently thread-safe (it is the substrate the
  // "stateless service processes" share). N threads race a leader claim;
  // exactly one may win.
  MultiVersionStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> wins{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&store, &wins, i] {
      if (store
              .CheckAndWrite("claim", "owner", "",
                             AttrMap{{"owner", std::to_string(i)}})
              .ok()) {
        wins.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST(StoreTest, ConcurrentWritersKeepVersionOrder) {
  MultiVersionStore store;
  constexpr int kThreads = 4;
  constexpr int kWritesEach = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kWritesEach; ++i) {
        (void)store.Write("k", AttrMap{{"a", "x"}});  // auto timestamps
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.VersionCount("k"), size_t{kThreads * kWritesEach});
  // Timestamps must be strictly increasing.
  Timestamp prev = 0;
  for (Timestamp ts = 1; ts <= kThreads * kWritesEach; ++ts) {
    Result<RowVersion> row = store.Read("k", ts);
    ASSERT_TRUE(row.ok());
    EXPECT_GT(row->timestamp, prev);
    prev = row->timestamp;
  }
}

TEST(StoreTest, ConcurrentMergeWritesNeverTouchHeldSnapshots) {
  // One thread merge-writes a wide row while another iterates snapshots it
  // holds; every merged version shares leaves and inner nodes with the
  // held ones, so a write into a shared one would show up as a changed
  // value here (and as a data race under TSan). The 300-entry row spans
  // several nodes, so each merge copies a node path. MergeWrite's
  // copy-on-write check may let it write a node or leaf in place only when
  // its count is 1. That is safe under the store's mutex: the base version
  // stays in the chain while MergeWrite holds the mutex, so every node the
  // merged copy inherits counts at least 2 and is cloned, and every leaf a
  // cloned node inherits is then held by both nodes and is cloned too;
  // only what was cloned within the same call, which no other thread has
  // seen, is written in place. A reader dropping a snapshot only lowers
  // counts, which at worst costs a clone.
  constexpr int kWidth = 300;
  constexpr Timestamp kMerges = 400;
  MultiVersionStore store;
  const std::string initial = "0";
  AttrMap row;
  for (int a = 0; a < kWidth; ++a) row[Cat("a", a)] = initial;
  ASSERT_TRUE(store.Write("k", std::move(row), 1).ok());
  // The merge at ts t sets a<t % kWidth> to t, so a version's content
  // follows from its timestamp: a<i> holds the newest such t <= ts.
  auto expected = [](Timestamp ts, int a) {
    const Timestamp t = ts - (ts % kWidth - a + kWidth) % kWidth;
    return t >= 2 ? std::to_string(t) : std::string(1, '0');
  };
  std::atomic<bool> done{false};
  std::thread writer([&store, &done] {
    for (Timestamp ts = 2; ts <= kMerges; ++ts) {
      (void)store.MergeWrite(
          "k", AttrMap{{Cat("a", ts % kWidth), std::to_string(ts)}}, ts);
      if (ts % 64 == 0) (void)store.TruncateVersions("k", ts - 8);
    }
    done.store(true);
  });
  std::vector<RowVersion> held;
  int mismatches = 0;
  int checked = 0;
  while (!done.load() || checked == 0) {
    Result<RowVersion> latest = store.Read("k");
    if (latest.ok()) held.push_back(*latest);
    if (held.size() > 16) held.erase(held.begin());
    for (const RowVersion& v : held) {
      int n = 0;
      for (const auto& [name, value] : *v.attributes) {
        const int a = std::stoi(name.substr(1));
        if (value != expected(v.timestamp, a)) ++mismatches;
        ++n;
      }
      if (n != kWidth) ++mismatches;
      ++checked;
    }
  }
  writer.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace paxoscp::kvstore
