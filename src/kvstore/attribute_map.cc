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

/// Index of the first of the non-empty, key-ordered `parts` whose last key
/// is >= `key`; past the end, the last one.
template <typename Parts, typename LastKey>
size_t Covering(const Parts& parts, std::string_view key, LastKey last_key) {
  auto it = std::partition_point(
      parts.begin(), parts.end(),
      [&](const auto& part) { return last_key(part) < key; });
  if (it == parts.end()) --it;
  return static_cast<size_t>(it - parts.begin());
}

/// Splits `v`, one element over its capacity, in two halves: `v` keeps the
/// lower and the upper is returned. `*index`, a position in `v`, is rebased
/// into the half that now holds it, and `*part` (the position of `v` in its
/// parent) advances by one when that is the upper half.
template <typename V>
V SplitHalves(V& v, size_t* index, size_t* part) {
  const size_t half = v.size() / 2;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(half);
  V upper(std::make_move_iterator(mid), std::make_move_iterator(v.end()));
  v.erase(mid, v.end());
  if (*index >= half) {
    *index -= half;
    ++*part;
  }
  return upper;
}

}  // namespace

template <typename T>
T& AttributeMap::Ref<T>::Mutable() {
  // Copy-on-write check. A count of 1 means this handle is the only owner,
  // and only a copy of whatever holds this handle could raise the count
  // again; a map is not mutated while another thread copies it, so no
  // other thread can. The (sequentially consistent) load synchronizes with
  // the decrement of whoever dropped the previous handle, so their reads of
  // the object happen before the write that follows. MultiVersionStore::
  // MergeWrite relies on this at both levels (see the comment there).
  if (box_->refs != 1) *this = Ref(box_->value);
  return box_->value;
}

AttributeMap::AttributeMap(std::initializer_list<value_type> init) {
  if (init.size() <= kLeafCapacity) {  // one inline run, one allocation
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
  return empty() ? end() : IteratorAt({}, 0);
}

size_t AttributeMap::size() const {
  size_t n = inline_.size();
  for (const Node& node : nodes_) {
    for (const Leaf& leaf : *node) n += leaf->size();
  }
  return n;
}

AttributeMap::Path AttributeMap::PathTo(std::string_view key) const {
  if (nodes_.empty()) return {};
  const size_t node = Covering(
      nodes_, key,
      [](const Node& n) -> const std::string& { return n->back()->back().first; });
  const size_t leaf = Covering(
      *nodes_[node], key,
      [](const Leaf& l) -> const std::string& { return l->back().first; });
  return {node, leaf};
}

const AttributeMap::Run& AttributeMap::RunAt(Path path) const {
  return nodes_.empty() ? inline_ : *(*nodes_[path.node])[path.leaf];
}

AttributeMap::Run& AttributeMap::MutableRunAt(Path path) {
  return nodes_.empty() ? inline_
                        : nodes_[path.node].Mutable()[path.leaf].Mutable();
}

AttributeMap::const_iterator AttributeMap::IteratorAt(Path path,
                                                      size_t index) const {
  const_iterator it;
  const Run& run = RunAt(path);
  it.cur_ = run.data() + index;
  it.run_end_ = run.data() + run.size();
  if (nodes_.empty()) return it;
  const Leaves& leaves = *nodes_[path.node];
  it.next_leaf_ = leaves.data() + path.leaf + 1;
  it.leaves_end_ = leaves.data() + leaves.size();
  it.next_node_ = nodes_.data() + path.node + 1;
  it.nodes_end_ = nodes_.data() + nodes_.size();
  return it;
}

AttributeMap::const_iterator AttributeMap::find(std::string_view key) const {
  const Path path = PathTo(key);
  const Run& run = RunAt(path);
  const auto it = LowerBound(run, key);
  if (it == run.end() || it->first != key) return end();
  return IteratorAt(path, static_cast<size_t>(it - run.begin()));
}

const std::string& AttributeMap::at(std::string_view key) const {
  const const_iterator it = find(key);
  if (it == end()) throw std::out_of_range("AttributeMap::at: no such key");
  return it->second;
}

std::string& AttributeMap::Slot(std::string_view key, std::string* owned_key) {
  Path path = PathTo(key);
  Run& run = MutableRunAt(path);
  const auto it = LowerBound(run, key);
  if (it != run.end() && it->first == key) return it->second;
  size_t index = static_cast<size_t>(it - run.begin());
  run.emplace(it,
              owned_key != nullptr ? std::move(*owned_key) : std::string(key),
              std::string());
  if (run.size() <= kLeafCapacity) return run[index].second;

  // Overflow: the inline run first becomes the only leaf of the only node.
  // The full leaf splits in two halves, and so does its node if that leaves
  // it over capacity. Everything on the path is unshared by now.
  if (nodes_.empty()) {
    nodes_.emplace_back(Leaves{});
    nodes_.back().Mutable().emplace_back(std::exchange(inline_, Run()));
  }
  Leaves& leaves = nodes_[path.node].Mutable();
  const size_t full_leaf = path.leaf;
  Run upper = SplitHalves(leaves[full_leaf].Mutable(), &index, &path.leaf);
  leaves.emplace(leaves.begin() + static_cast<std::ptrdiff_t>(full_leaf) + 1,
                 std::move(upper));
  if (leaves.size() > kNodeCapacity) {
    const size_t full_node = path.node;
    Leaves upper_leaves = SplitHalves(leaves, &path.leaf, &path.node);
    nodes_.emplace(nodes_.begin() + static_cast<std::ptrdiff_t>(full_node) + 1,
                   std::move(upper_leaves));
  }
  return MutableRunAt(path)[index].second;
}

size_t AttributeMap::erase(std::string_view key) {
  if (find(key) == end()) return 0;  // a miss unshares nothing
  const Path path = PathTo(key);
  Run& run = MutableRunAt(path);
  run.erase(LowerBound(run, key));
  if (run.empty() && !nodes_.empty()) {
    Leaves& leaves = nodes_[path.node].Mutable();
    leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(path.leaf));
    if (leaves.empty()) {
      nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(path.node));
    }
  }
  return 1;
}

bool operator==(const AttributeMap& a, const AttributeMap& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace paxoscp::kvstore
