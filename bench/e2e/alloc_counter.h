// Heap-allocation counting for the traced pass: alloc_counter.cpp replaces
// the global operator new/delete of the driver binary (the library itself
// is untouched) and counts calls and bytes only while counting is on.
#pragma once

#include <cstdint>

namespace paxoscp::e2e {

struct AllocCounts {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

/// Turns counting on or off. The driver is single-threaded.
void SetAllocCounting(bool on);

/// Totals counted so far (while counting was on).
AllocCounts CountedAllocs();

}  // namespace paxoscp::e2e
