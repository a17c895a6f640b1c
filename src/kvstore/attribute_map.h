// AttributeMap: a row version's attributes (column name → value), sorted by
// name, with two-level copy-on-write (docs/ARCHITECTURE.md, design note D5).
//
// The store's contract makes every write a new version of the whole row, so
// the log applier copies a row and overlays a few updates for each applied
// entry. With a node-based map that copy is O(row width) allocations. Here a
// map of more than kLeafCapacity entries is a two-level tree: the map holds
// a vector of refcounted inner nodes, each a vector of up to kNodeCapacity
// refcounted sorted leaves of up to kLeafCapacity entries. Copying the map
// copies its node handles; a mutation clones only the node and the leaf it
// touches, and each only while another map still shares it. An overlay of k
// updates on a copied row therefore costs one vector of node handles plus at
// most k node and k leaf clones, at any row width, and untouched values keep
// their addresses across versions.
//
// A map that fits one leaf keeps its entries in one inline sorted vector
// instead (deep-copied like std::map), so the narrow bookkeeping rows the WAL
// and the acceptors write on every step cost no more allocations than a
// std::map of the same size.
//
// Iteration is in lexicographic key order (std::less<> over the names), as
// with the std::map this type replaced. Every iterator is const: values are
// written only through operator[] / insert_or_assign, which unshare first.
// Any mutation invalidates iterators and element references of that map
// (but never of other maps that shared its nodes or leaves).
#pragma once

#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paxoscp::kvstore {

class AttributeMap {
 public:
  using value_type = std::pair<std::string, std::string>;

  /// Most entries one leaf holds; an insert into a full leaf splits it.
  static constexpr size_t kLeafCapacity = 8;
  /// Most leaves one inner node holds; a leaf split in a full node splits
  /// the node.
  static constexpr size_t kNodeCapacity = 16;

 private:
  using Run = std::vector<value_type>;  // sorted by key

  /// Owning handle to a shared, refcounted `T` (an intrusive count, so a
  /// shared object is one allocation plus what `T` owns). Both levels use
  /// it: a leaf is a Ref<Run>, an inner node a Ref of a vector of leaves.
  template <typename T>
  class Ref {
   public:
    explicit Ref(T value) : box_(new Box{std::move(value)}) {}
    Ref(const Ref& other) noexcept : box_(other.box_) { ++box_->refs; }
    Ref(Ref&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
    Ref& operator=(Ref other) noexcept {
      std::swap(box_, other.box_);
      return *this;
    }
    ~Ref() {
      if (box_ != nullptr && --box_->refs == 0) delete box_;
    }

    const T& operator*() const { return box_->value; }
    const T* operator->() const { return &box_->value; }
    /// The object for writing: clones it first unless this handle is its
    /// only owner.
    T& Mutable();

   private:
    struct Box {
      T value;
      std::atomic<size_t> refs{1};
    };
    Box* box_;
  };

  using Leaf = Ref<Run>;              // 1..kLeafCapacity entries
  using Leaves = std::vector<Leaf>;
  using Node = Ref<Leaves>;           // 1..kNodeCapacity leaves

 public:
  /// Forward iterator over the entries in key order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AttributeMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    reference operator*() const { return *cur_; }
    pointer operator->() const { return cur_; }
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.cur_ == b.cur_;
    }

   private:
    friend class AttributeMap;

    const value_type* cur_ = nullptr;      // nullptr == end()
    const value_type* run_end_ = nullptr;  // end of the current leaf
    const Leaf* next_leaf_ = nullptr;      // next leaf of the current node
    const Leaf* leaves_end_ = nullptr;     // end of the current node's leaves
    const Node* next_node_ = nullptr;      // next node to visit
    const Node* nodes_end_ = nullptr;      // one past the last node
  };
  using iterator = const_iterator;

  AttributeMap() = default;
  /// As with std::map, the first occurrence of a duplicate key wins.
  AttributeMap(std::initializer_list<value_type> init);

  const_iterator begin() const;
  const_iterator end() const { return {}; }
  size_t size() const;
  bool empty() const { return inline_.empty() && nodes_.empty(); }

  const_iterator find(std::string_view key) const;
  size_t count(std::string_view key) const { return find(key) == end() ? 0 : 1; }
  /// Throws std::out_of_range if `key` is absent.
  const std::string& at(std::string_view key) const;

  /// Value of `key`, inserted empty if absent.
  std::string& operator[](std::string_view key) { return Slot(key, nullptr); }
  std::string& operator[](std::string&& key) { return Slot(key, &key); }
  std::string& operator[](const char* key) { return Slot(key, nullptr); }

  template <typename V>
  void insert_or_assign(std::string_view key, V&& value) {
    Slot(key, nullptr) = std::forward<V>(value);
  }

  /// Removes `key`; returns the number of entries removed (0 or 1).
  size_t erase(std::string_view key);

  friend bool operator==(const AttributeMap& a, const AttributeMap& b);

 private:
  /// Where a key lives or would live: its node and the leaf within it
  /// (both 0 while the map is one inline run).
  struct Path {
    size_t node = 0;
    size_t leaf = 0;
  };

  Path PathTo(std::string_view key) const;
  /// Entries of the leaf at `path`, or the inline run.
  const Run& RunAt(Path path) const;
  /// The same, unshared for writing at both levels.
  Run& MutableRunAt(Path path);
  const_iterator IteratorAt(Path path, size_t index) const;
  /// Value slot of `key`, inserting it if absent; the new key is moved from
  /// `*owned_key` when given, else copied from `key`.
  std::string& Slot(std::string_view key, std::string* owned_key);

  Run inline_;               // all entries while nodes_ is empty
  std::vector<Node> nodes_;  // non-empty inner nodes in key order
};

inline AttributeMap::const_iterator&
AttributeMap::const_iterator::operator++() {
  if (++cur_ != run_end_) return *this;
  if (next_leaf_ == leaves_end_) {
    if (next_node_ == nodes_end_) {
      cur_ = nullptr;
      return *this;
    }
    const Leaves& leaves = **next_node_++;
    next_leaf_ = leaves.data();
    leaves_end_ = next_leaf_ + leaves.size();
  }
  const Run& run = **next_leaf_++;
  cur_ = run.data();
  run_end_ = cur_ + run.size();
  return *this;
}

}  // namespace paxoscp::kvstore
