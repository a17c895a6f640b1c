// Lightweight instrumentation hooks for the schedule-order race detector
// (docs/ARCHITECTURE.md, design note D12). Shared-state layers (kvstore,
// net) record cell accesses through this header so they never include
// the detector itself; when no detector is attached the cost of a hook site
// is one thread-local load and a predictable branch — no string is built,
// no function is called.
//
// Usage at an instrumentation site:
//
//   if (sim::race::Active()) {
//     sim::race::Record(sim::race::AccessKind::kWrite, {"kv", id_, key});
//   }
//
// The initializer list's parts are joined with '/' into a cell name
// ("kv/3/account:7") only inside Record, i.e. only when a detector is
// active. Accesses recorded outside any simulator event are dropped: they
// belong to test setup / teardown code that runs sequentially by
// construction.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <type_traits>

namespace paxoscp::sim {

class RaceDetector;

namespace race {

enum class AccessKind : uint8_t { kRead, kWrite };

/// The detector attached to the simulator whose event is currently
/// executing on this thread (nullptr when detached — the common case).
/// Maintained by Simulator::Step around every event callback. constinit
/// tells every includer that the variable has no dynamic initializer, so a
/// hook site reads it directly instead of calling GCC's thread_local
/// wrapper function (through which ASan+UBSan builds on GCC 12 abort with
/// a null pointer load).
extern constinit thread_local RaceDetector* g_active_detector;

inline bool Active() { return g_active_detector != nullptr; }

/// One '/'-separated component of a cell name: a string piece or an
/// integer id. Integers are widened through int64 so every integral type
/// the layers use (GroupId, LogPos, size_t counters) converts silently.
/// Constructors are deliberately implicit: cell parts are spelled inline
/// at hook sites ({"kv", id_, key}).
struct CellPart {
  CellPart(std::string_view s) : str(s) {}
  CellPart(const char* s) : str(s) {}
  template <typename I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  CellPart(I v)
      : num(static_cast<uint64_t>(static_cast<int64_t>(v))), is_num(true) {}

  std::string_view str;
  uint64_t num = 0;
  bool is_num = false;
};

/// Records one access against the active detector. Call only after
/// checking Active() (re-checked defensively). Out-of-line: the cell-name
/// string is built here, never at a detached hook site.
void Record(AccessKind kind, std::initializer_list<CellPart> parts);

}  // namespace race
}  // namespace paxoscp::sim
