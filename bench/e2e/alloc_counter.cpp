#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace paxoscp::e2e {
namespace {

bool counting = false;
AllocCounts counts;

void* Allocate(std::size_t size) {
  if (counting) {
    ++counts.calls;
    counts.bytes += size;
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  if (counting) {
    ++counts.calls;
    counts.bytes += size;
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace

void SetAllocCounting(bool on) { counting = on; }

AllocCounts CountedAllocs() { return counts; }

}  // namespace paxoscp::e2e

using paxoscp::e2e::Allocate;
using paxoscp::e2e::AllocateAligned;

void* operator new(std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = AllocateAligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = AllocateAligned(size, align)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
