#include "kvstore/store.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace paxoscp::kvstore {

namespace {

std::string KeyMessage(const char* prefix, std::string_view key) {
  std::string msg(prefix);
  msg += key;
  return msg;
}

}  // namespace

uint64_t MultiVersionStore::NextInstanceId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

const RowVersion* MultiVersionStore::FindVersion(const VersionChain& chain,
                                                 Timestamp timestamp) {
  if (chain.empty()) return nullptr;
  if (timestamp == kLatestTimestamp) return &chain.back();
  // Binary search: last version with ts <= timestamp.
  auto it = std::upper_bound(
      chain.begin(), chain.end(), timestamp,
      [](Timestamp ts, const RowVersion& v) { return ts < v.timestamp; });
  if (it == chain.begin()) return nullptr;
  return &*std::prev(it);
}

MultiVersionStore::VersionChain& MultiVersionStore::ChainFor(
    std::string_view key) {
  auto it = rows_.lower_bound(key);
  if (it == rows_.end() || it->first != key) {
    it = rows_.emplace_hint(it, std::string(key), VersionChain{});
  }
  return it->second;
}

Result<RowVersion> MultiVersionStore::Read(std::string_view key,
                                           Timestamp timestamp) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"kv", instance_id_, key});
  }
  auto it = rows_.find(key);
  if (it == rows_.end()) return Status::NotFound(KeyMessage("no such key: ", key));
  const RowVersion* v = FindVersion(it->second, timestamp);
  if (v == nullptr) {
    return Status::NotFound(KeyMessage("no version at requested ts of key: ", key));
  }
  return *v;  // cheap: shared snapshot, no attribute copy
}

Result<std::string> MultiVersionStore::ReadAttr(std::string_view key,
                                                std::string_view attribute,
                                                Timestamp timestamp) const {
  Result<AttrView> view = ReadAttrView(key, attribute, timestamp);
  if (!view.ok()) return view.status();
  return std::string(view->value);
}

Result<AttrView> MultiVersionStore::ReadAttrView(std::string_view key,
                                                 std::string_view attribute,
                                                 Timestamp timestamp) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"kv", instance_id_, key});
  }
  auto it = rows_.find(key);
  if (it == rows_.end()) return Status::NotFound(KeyMessage("no such key: ", key));
  const RowVersion* v = FindVersion(it->second, timestamp);
  if (v == nullptr) {
    return Status::NotFound(KeyMessage("no version at requested ts of key: ", key));
  }
  auto attr = v->attributes->find(attribute);
  if (attr == v->attributes->end()) {
    return Status::NotFound(KeyMessage("attribute not found on key: ", key));
  }
  return AttrView{v->attributes, attr->second};
}

bool MultiVersionStore::HasAttr(std::string_view key, std::string_view attribute,
                                AttrView* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"kv", instance_id_, key});
  }
  auto it = rows_.find(key);
  if (it == rows_.end() || it->second.empty()) return false;
  const AttributeMapPtr& attrs = it->second.back().attributes;
  auto attr = attrs->find(attribute);
  if (attr == attrs->end()) return false;
  if (out != nullptr) *out = AttrView{attrs, attr->second};
  return true;
}

Status MultiVersionStore::Write(std::string_view key, AttributeMap attributes,
                                Timestamp timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"kv", instance_id_, key});
  }
  VersionChain& chain = ChainFor(key);
  Timestamp ts = timestamp;
  if (ts == kLatestTimestamp) {
    ts = chain.empty() ? 1 : chain.back().timestamp + 1;
  } else if (!chain.empty() && chain.back().timestamp >= ts) {
    return Status::Conflict(
        "version with timestamp >= " + std::to_string(ts) +
        " already exists for key '" + std::string(key) + "'");
  }
  chain.push_back(
      RowVersion{ts, std::make_shared<const AttributeMap>(std::move(attributes))});
  return Status::OK();
}

Status MultiVersionStore::CheckAndWrite(std::string_view key,
                                        std::string_view test_attribute,
                                        std::string_view test_value,
                                        AttributeMap attributes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"kv", instance_id_, key});
  }
  std::string_view current;  // missing row/attribute reads as ""
  VersionChain& chain = ChainFor(key);
  if (!chain.empty()) {
    const AttributeMap& latest = *chain.back().attributes;
    auto it = latest.find(test_attribute);
    if (it != latest.end()) current = it->second;
  }
  if (current != test_value) {
    std::string msg("checkAndWrite mismatch: '");
    msg += key;
    msg += '.';
    msg += test_attribute;
    msg += "' is '";
    msg += current;
    msg += "', expected '";
    msg += test_value;
    msg += '\'';
    return Status::Conflict(std::move(msg));
  }
  const Timestamp ts = chain.empty() ? 1 : chain.back().timestamp + 1;
  chain.push_back(
      RowVersion{ts, std::make_shared<const AttributeMap>(std::move(attributes))});
  return Status::OK();
}

Status MultiVersionStore::MergeWrite(std::string_view key,
                                     const AttributeMap& updates,
                                     Timestamp timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"kv", instance_id_, key});
  }
  VersionChain& chain = ChainFor(key);
  if (!chain.empty() && chain.back().timestamp >= timestamp) {
    // Idempotent replay: the log applier may re-apply a position after a
    // catch-up; an existing version at or past this timestamp means the
    // write already happened.
    return Status::Conflict("merge-write below existing timestamp");
  }
  AttributeMapPtr merged;
  if (chain.empty()) {
    merged = std::make_shared<const AttributeMap>(updates);
  } else if (updates.empty()) {
    merged = chain.back().attributes;  // pure share: no copy at all
  } else {
    // Copy the base (node handles only), then overlay the updates: each
    // clones the node and the leaf it lands in. The base stays in the chain
    // while mu_ is held, so every node the copy inherits counts at least 2
    // and is cloned before a write, and so does every leaf of a cloned node
    // (the base's node still holds it); only nodes and leaves cloned here,
    // which no other thread has seen, are written in place.
    auto out = std::make_shared<AttributeMap>(*chain.back().attributes);
    for (const auto& [attr, value] : updates) {
      out->insert_or_assign(attr, value);
    }
    merged = std::move(out);
  }
  chain.push_back(RowVersion{timestamp, std::move(merged)});
  return Status::OK();
}

bool MultiVersionStore::Contains(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"kv", instance_id_, key});
  }
  auto it = rows_.find(key);
  return it != rows_.end() && !it->second.empty();
}

size_t MultiVersionStore::VersionCount(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"kv", instance_id_, key});
  }
  auto it = rows_.find(key);
  return it == rows_.end() ? 0 : it->second.size();
}

size_t MultiVersionStore::TruncateVersions(std::string_view key,
                                           Timestamp watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"kv", instance_id_, key});
  }
  auto it = rows_.find(key);
  if (it == rows_.end()) return 0;
  VersionChain& chain = it->second;
  const RowVersion* keep = FindVersion(chain, watermark);
  if (keep == nullptr) return 0;
  const size_t removed =
      static_cast<size_t>(keep - chain.data());  // versions strictly older
  chain.erase(chain.begin(), chain.begin() + removed);
  return removed;
}

std::vector<std::string> MultiVersionStore::KeysWithPrefix(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"kv", instance_id_, "prefix", prefix});
  }
  std::vector<std::string> out;
  for (auto it = rows_.lower_bound(prefix); it != rows_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix.data(), prefix.size()) !=
        0) {
      break;
    }
    if (!it->second.empty()) out.push_back(it->first);
  }
  return out;
}

size_t MultiVersionStore::KeyCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, chain] : rows_) {
    if (!chain.empty()) ++n;
  }
  return n;
}

}  // namespace paxoscp::kvstore
