// Multi-version key-value store: the per-datacenter storage substrate.
//
// Substitutes for HBase in the paper. Paper §2.2 requires exactly three
// atomic operations plus multi-version rows; this store implements that
// contract precisely:
//
//   * Read(key, timestamp)  — most recent version with ts <= timestamp
//                             (kLatestTimestamp => newest version).
//   * Write(key, row, ts)   — creates a new version stamped `ts`; rejected
//                             if a version with a greater timestamp exists
//                             (kLatestTimestamp => auto-assign ts greater
//                             than all existing versions).
//   * CheckAndWrite(...)    — atomic test-and-set on one attribute of the
//                             latest version, then Write on success.
//
// Rows are maps from attribute (column) name to value; each write stores a
// complete row snapshot, mirroring the paper's "new version of the row".
// Version payloads are copy-on-write at two levels (docs/ARCHITECTURE.md,
// design note D5). A version holds a shared_ptr<const AttributeMap>, so
// Read hands out a reference to the immutable snapshot instead of
// deep-copying it, and a snapshot stays valid (and bit-identical) for as
// long as the caller holds it — even across later writes or garbage
// collection of the chain. Inside the map, a wide row is a two-level tree
// of shared inner nodes and leaves (kvstore/attribute_map.h), so a version
// derived by MergeWrite shares every node and leaf its updates do not touch
// with the version it was derived from. The WAL keeps one version of each
// row it reads only at its latest (TruncateVersions after each write); data
// rows keep every version.
// All operations are atomic with respect to one another (single mutex; the
// simulator is single-threaded but the store is independently thread-safe
// so it can be exercised standalone).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kvstore/attribute_map.h"
#include "sim/race_hooks.h"

namespace paxoscp::kvstore {

/// Immutable shared snapshot of a row version's attributes.
using AttributeMapPtr = std::shared_ptr<const AttributeMap>;

/// A row version: the version timestamp plus a shared immutable attribute
/// snapshot. Copying a RowVersion is two words plus a refcount bump; the
/// attribute map itself is never copied. `attributes` is never null when
/// returned by the store.
struct RowVersion {
  Timestamp timestamp = 0;
  AttributeMapPtr attributes;
};

/// A borrowed attribute value: `value` points into `version`'s map and
/// remains valid for as long as `version` is held.
struct AttrView {
  AttributeMapPtr version;
  std::string_view value;
};

class MultiVersionStore {
 public:
  MultiVersionStore() = default;
  MultiVersionStore(const MultiVersionStore&) = delete;
  MultiVersionStore& operator=(const MultiVersionStore&) = delete;

  /// Process-wide construction ordinal: the store discriminator in race-
  /// detector cell names ("kv/<id>/<key>", design note D12). Deliberately
  /// NOT the object's address — cell names must be identical across runs.
  uint64_t instance_id() const { return instance_id_; }

  /// Reads the most recent version of `key` with timestamp <= `timestamp`.
  /// kLatestTimestamp reads the newest version. NotFound if no such version.
  Result<RowVersion> Read(std::string_view key,
                          Timestamp timestamp = kLatestTimestamp) const;

  /// Reads a single attribute at the given snapshot; NotFound if the row has
  /// no qualifying version or the version lacks the attribute. Copies the
  /// value; use ReadAttrView for the no-copy path.
  Result<std::string> ReadAttr(std::string_view key, std::string_view attribute,
                               Timestamp timestamp = kLatestTimestamp) const;

  /// No-copy variant of ReadAttr: returns a view into the shared version
  /// (valid while the returned AttrView is held) instead of copying the
  /// value out.
  Result<AttrView> ReadAttrView(std::string_view key,
                                std::string_view attribute,
                                Timestamp timestamp = kLatestTimestamp) const;

  /// Existence probe for hot "is it there yet?" loops: true iff
  /// ReadAttrView(key, attribute) would succeed, in which case `*out` (if
  /// given) receives what it would return. Builds no Status, so a miss
  /// allocates nothing.
  bool HasAttr(std::string_view key, std::string_view attribute,
               AttrView* out = nullptr) const;

  /// Creates a new version of `key`. With an explicit timestamp, fails with
  /// Conflict if any version with a timestamp >= `timestamp` exists (the
  /// paper: "If a version with greater timestamp exists, an error is
  /// returned"). With kLatestTimestamp, assigns max-existing + 1.
  Status Write(std::string_view key, AttributeMap attributes,
               Timestamp timestamp = kLatestTimestamp);

  /// Atomically: if the latest version of `key` has `test_attribute` equal
  /// to `test_value`, apply Write(key, attributes) and return OK; otherwise
  /// Conflict. A missing row or attribute compares equal to the empty
  /// string, so initializing writes can use test_value = "".
  Status CheckAndWrite(std::string_view key, std::string_view test_attribute,
                       std::string_view test_value, AttributeMap attributes);

  /// Merge-write convenience used by the log applier: overlays `updates`
  /// on the latest version and writes the result at `timestamp`. The
  /// merged map is a copy of the base that shares every node and leaf the
  /// updates do not touch, so its cost is one vector of node handles plus
  /// one node and one leaf per update, not the row width; with empty
  /// `updates` the new version shares the previous snapshot outright.
  Status MergeWrite(std::string_view key, const AttributeMap& updates,
                    Timestamp timestamp);

  /// True if the key has at least one version.
  bool Contains(std::string_view key) const;

  /// Number of stored versions of `key` (0 if absent).
  size_t VersionCount(std::string_view key) const;

  /// Garbage-collects versions of `key` strictly older than the newest
  /// version with timestamp <= `watermark` (that version stays readable).
  /// Snapshots already handed out by Read stay valid: they share the
  /// attribute map, which outlives its chain entry. Returns the number of
  /// versions removed.
  size_t TruncateVersions(std::string_view key, Timestamp watermark);

  /// All keys with the given prefix, sorted.
  std::vector<std::string> KeysWithPrefix(std::string_view prefix) const;

  size_t KeyCount() const;

 private:
  using VersionChain = std::vector<RowVersion>;  // ascending by timestamp

  /// Binary-searches the ascending chain for the newest version with
  /// ts <= timestamp; nullptr if none qualifies.
  static const RowVersion* FindVersion(const VersionChain& chain,
                                       Timestamp timestamp);

  /// Chain for `key`, created empty on first use (callers hold mu_).
  VersionChain& ChainFor(std::string_view key);

  static uint64_t NextInstanceId();

  const uint64_t instance_id_ = NextInstanceId();
  mutable std::mutex mu_;
  std::map<std::string, VersionChain, std::less<>> rows_;
};

}  // namespace paxoscp::kvstore
