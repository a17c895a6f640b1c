#include "kvstore/attribute_map.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace paxoscp::kvstore {

namespace {

/// First entry of the sorted `run` whose key is >= `key`.
template <typename R>
auto LowerBound(R& run, std::string_view key) {
  return std::lower_bound(run.begin(), run.end(), key,
                          [](const AttributeMap::value_type& e,
                             std::string_view k) { return e.first < k; });
}

}  // namespace

AttributeMap::Run& AttributeMap::ChunkRef::MutableEntries() {
  // Copy-on-write check. A count of 1 means this handle is the only owner,
  // and only a copy of the map holding this handle could raise the count
  // again; a map is not mutated while another thread copies it, so no
  // other thread can. The (sequentially consistent) load synchronizes with
  // the decrement of whoever dropped the previous handle, so their reads of
  // the entries happen before the write that follows. MultiVersionStore::
  // MergeWrite relies on this (see the comment there).
  if (chunk_->refs != 1) *this = ChunkRef(chunk_->entries);
  return chunk_->entries;
}

AttributeMap::AttributeMap(std::initializer_list<value_type> init) {
  if (init.size() <= kChunkCapacity) {  // one inline run, one allocation
    inline_.reserve(init.size());
    for (const value_type& e : init) {
      const auto it = LowerBound(inline_, e.first);
      if (it == inline_.end() || it->first != e.first) inline_.insert(it, e);
    }
    return;
  }
  for (const value_type& e : init) {
    if (find(e.first) == end()) (*this)[e.first] = e.second;
  }
}

AttributeMap::const_iterator AttributeMap::begin() const {
  return empty() ? end() : IteratorAt(0, 0);
}

size_t AttributeMap::size() const {
  size_t n = inline_.size();
  for (const ChunkRef& c : chunks_) n += c.entries().size();
  return n;
}

const AttributeMap::Run& AttributeMap::RunAt(size_t chunk) const {
  return chunks_.empty() ? inline_ : chunks_[chunk].entries();
}

AttributeMap::const_iterator AttributeMap::IteratorAt(size_t chunk,
                                                      size_t index) const {
  const Run& run = RunAt(chunk);
  const value_type* e = run.data() + index;
  if (chunks_.empty()) return {e, run.data() + run.size(), nullptr, nullptr};
  return {e, run.data() + run.size(), chunks_.data() + chunk + 1,
          chunks_.data() + chunks_.size()};
}

size_t AttributeMap::ChunkFor(std::string_view key) const {
  if (chunks_.empty()) return 0;
  // First chunk whose last key is >= key; past the end, the last chunk.
  auto it = std::partition_point(
      chunks_.begin(), chunks_.end(),
      [key](const ChunkRef& c) { return c.entries().back().first < key; });
  if (it == chunks_.end()) --it;
  return static_cast<size_t>(it - chunks_.begin());
}

AttributeMap::const_iterator AttributeMap::find(std::string_view key) const {
  const size_t c = ChunkFor(key);
  const Run& run = RunAt(c);
  const auto it = LowerBound(run, key);
  if (it == run.end() || it->first != key) return end();
  return IteratorAt(c, static_cast<size_t>(it - run.begin()));
}

const std::string& AttributeMap::at(std::string_view key) const {
  const const_iterator it = find(key);
  if (it == end()) throw std::out_of_range("AttributeMap::at: no such key");
  return it->second;
}

AttributeMap::Run& AttributeMap::MutableRunFor(std::string_view key,
                                               size_t* chunk) {
  *chunk = ChunkFor(key);
  return chunks_.empty() ? inline_ : chunks_[*chunk].MutableEntries();
}

std::string& AttributeMap::Slot(std::string_view key, std::string* owned_key) {
  size_t c = 0;
  Run* run = &MutableRunFor(key, &c);
  const auto it = LowerBound(*run, key);
  if (it != run->end() && it->first == key) return it->second;
  const size_t pos = static_cast<size_t>(it - run->begin());
  run->emplace(it,
               owned_key != nullptr ? std::move(*owned_key) : std::string(key),
               std::string());
  if (run->size() <= kChunkCapacity) return (*run)[pos].second;

  // Overflow: the inline run first becomes the only chunk, then the full
  // chunk splits in two halves.
  if (chunks_.empty()) {
    chunks_.emplace_back(std::move(inline_));  // leaves inline_ empty
    run = &chunks_.front().MutableEntries();
  }
  const size_t half = run->size() / 2;
  const auto mid = run->begin() + static_cast<std::ptrdiff_t>(half);
  Run upper(std::make_move_iterator(mid), std::make_move_iterator(run->end()));
  run->erase(mid, run->end());
  chunks_.emplace(chunks_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                  std::move(upper));
  if (pos < half) return chunks_[c].MutableEntries()[pos].second;
  return chunks_[c + 1].MutableEntries()[pos - half].second;
}

size_t AttributeMap::erase(std::string_view key) {
  if (find(key) == end()) return 0;  // a miss unshares nothing
  size_t c = 0;
  Run& run = MutableRunFor(key, &c);
  run.erase(LowerBound(run, key));
  if (run.empty() && !chunks_.empty()) {
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
  }
  return 1;
}

bool operator==(const AttributeMap& a, const AttributeMap& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace paxoscp::kvstore
