// AttributeMap: a row version's attributes (column name → value), sorted by
// name, with chunk-level copy-on-write (docs/ARCHITECTURE.md, design note D5).
//
// The store's contract makes every write a new version of the whole row, so
// the log applier copies a row and overlays a few updates for each applied
// entry. With a node-based map that copy is O(row width) allocations. Here a
// map of more than kChunkCapacity entries is a vector of refcounted sorted
// chunks: copying the map copies chunk handles, and a mutation clones only
// the chunk it touches, and only while another map still shares it. An
// overlay of k updates on a copied wide row therefore costs O(chunks) handle
// copies plus at most k chunk clones, and untouched values keep their
// addresses across versions.
//
// A map that fits one chunk keeps its entries in one inline sorted vector
// instead (deep-copied like std::map), so the narrow bookkeeping rows the WAL
// and the acceptors write on every step cost no more allocations than a
// std::map of the same size.
//
// Iteration is in lexicographic key order (std::less<> over the names), as
// with the std::map this type replaced. Every iterator is const: values are
// written only through operator[] / insert_or_assign, which unshare first.
// Any mutation invalidates iterators and element references of that map
// (but never of other maps that shared its chunks).
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
  struct Chunk;
  class ChunkRef;

 public:
  using value_type = std::pair<std::string, std::string>;

  /// Most entries one chunk holds; an insert into a full chunk splits it.
  static constexpr size_t kChunkCapacity = 64;

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
    const_iterator(const value_type* cur, const value_type* run_end,
                   const ChunkRef* next, const ChunkRef* last)
        : cur_(cur), run_end_(run_end), next_(next), last_(last) {}

    const value_type* cur_ = nullptr;      // nullptr == end()
    const value_type* run_end_ = nullptr;  // end of the current chunk's entries
    const ChunkRef* next_ = nullptr;       // next chunk to visit
    const ChunkRef* last_ = nullptr;       // one past the last chunk
  };
  using iterator = const_iterator;

  AttributeMap() = default;
  /// As with std::map, the first occurrence of a duplicate key wins.
  AttributeMap(std::initializer_list<value_type> init);

  const_iterator begin() const;
  const_iterator end() const { return {}; }
  size_t size() const;
  bool empty() const { return inline_.empty() && chunks_.empty(); }

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
  using Run = std::vector<value_type>;  // sorted by key

  struct Chunk {
    explicit Chunk(Run e) : entries(std::move(e)) {}
    std::atomic<size_t> refs{1};
    Run entries;  // 1..kChunkCapacity entries
  };

  /// Owning handle to a shared chunk (an intrusive refcount, so a chunk is
  /// one allocation plus its entries).
  class ChunkRef {
   public:
    explicit ChunkRef(Run entries) : chunk_(new Chunk(std::move(entries))) {}
    ChunkRef(const ChunkRef& other) : chunk_(other.chunk_) { ++chunk_->refs; }
    ChunkRef(ChunkRef&& other) noexcept
        : chunk_(std::exchange(other.chunk_, nullptr)) {}
    ChunkRef& operator=(ChunkRef other) noexcept {
      std::swap(chunk_, other.chunk_);
      return *this;
    }
    ~ChunkRef() {
      if (chunk_ != nullptr && --chunk_->refs == 0) delete chunk_;
    }

    const Run& entries() const { return chunk_->entries; }
    /// The entries for writing: clones the chunk first unless this handle
    /// is its only owner.
    Run& MutableEntries();

   private:
    Chunk* chunk_;
  };

  /// Index of the chunk that holds, or would hold, `key` (0 while the map
  /// is one inline run).
  size_t ChunkFor(std::string_view key) const;
  /// Entries of chunk `chunk`, or the inline run.
  const Run& RunAt(size_t chunk) const;
  const_iterator IteratorAt(size_t chunk, size_t index) const;
  /// The run `key` belongs in, unshared for writing; `*chunk` is its index
  /// (0 for the inline run).
  Run& MutableRunFor(std::string_view key, size_t* chunk);
  /// Value slot of `key`, inserting it if absent; the new key is moved from
  /// `*owned_key` when given, else copied from `key`.
  std::string& Slot(std::string_view key, std::string* owned_key);

  Run inline_;                   // all entries while chunks_ is empty
  std::vector<ChunkRef> chunks_;  // non-empty chunks in key order
};

inline AttributeMap::const_iterator&
AttributeMap::const_iterator::operator++() {
  if (++cur_ == run_end_) {
    if (next_ == last_) {
      cur_ = nullptr;
    } else {
      const Run& run = (next_++)->entries();
      cur_ = run.data();
      run_end_ = cur_ + run.size();
    }
  }
  return *this;
}

}  // namespace paxoscp::kvstore
