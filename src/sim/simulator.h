// Deterministic discrete-event simulator. All "time" in the system is
// virtual: events execute in (time, insertion-order) order on a single
// thread, so a whole multi-datacenter run is reproducible from a seed.
//
// Implementation (docs/ARCHITECTURE.md, design note D5): events live in a
// recycled slot pool indexed by a binary heap of slot indices keyed on
// (time, seq) — no per-event container allocations. Event handles carry a
// per-slot generation counter, so Cancel of an event that already ran (or
// whose slot was recycled) is an exact no-op instead of a tombstone that
// could skew PendingEvents(). Callbacks are InlineFunctions: scheduling does
// not heap-allocate unless a capture exceeds the inline buffer.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"

namespace paxoscp::sim {

class RaceDetector;

/// Handle for cancelling a scheduled event.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Sentinel event sequence number: "no event" (outside any callback).
inline constexpr uint64_t kNoEventSeq = UINT64_MAX;

/// Event callback. 48 inline bytes covers every callback the protocol layer
/// schedules; larger captures transparently go to the heap.
using EventFn = InlineFunction<void()>;

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The innermost live Simulator on this thread (nullptr outside any).
  /// Used by the coroutine layer to defer frame destruction through the
  /// event queue: destroying a frame from inside its own resume chain is
  /// unsafe when the compiler's symmetric transfer is not a true tail call
  /// (observed with GCC 12), so Coro destructors schedule the destroy as a
  /// zero-delay event instead.
  static Simulator* Current();

  /// Current virtual time in microseconds.
  TimeMicros Now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `when` (clamped to
  /// Now()). `tag` names the creation site for race-detector provenance
  /// (design note D12); it must be a string literal (or otherwise outlive
  /// the event) and costs nothing when no detector is attached.
  EventId ScheduleAt(TimeMicros when, EventFn fn, const char* tag = nullptr);

  /// Schedules `fn` to run `delay` microseconds from now.
  EventId ScheduleAfter(TimeMicros delay, EventFn fn,
                        const char* tag = nullptr);

  /// Cancels a pending event. No-op if it already ran or was cancelled.
  void Cancel(EventId id);

  /// Runs events until the queue is empty or `max_events` have executed.
  /// Returns the number of events executed.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= deadline. Virtual time advances to `deadline`
  /// even if the queue drains earlier. Returns events executed.
  uint64_t RunUntil(TimeMicros deadline);

  /// Executes the single next event, if any. Returns false when idle.
  bool Step();

  /// Number of pending (scheduled, not yet run, not cancelled) events.
  size_t PendingEvents() const { return live_; }

  /// Total events executed since construction.
  uint64_t EventsExecuted() const { return executed_; }

  /// Sequence number of the event currently executing on this simulator
  /// (kNoEventSeq outside any callback). Used by the coroutine layer to
  /// record promise-completion happens-before edges.
  uint64_t CurrentEventSeq() const { return current_event_seq_; }

  // --- schedule-order race detection (design note D12) ----------------

  /// Attaches a race detector: every subsequent event begin and every
  /// shared-state access recorded through sim::race hooks while this
  /// simulator's events execute is reported to `detector`. Pass nullptr
  /// to detach. The detector must outlive the attachment.
  void AttachRaceDetector(RaceDetector* detector) {
    race_detector_ = detector;
  }

  /// Records a happens-before edge from `from_seq` (an already-executed
  /// event) to the most recently scheduled event. Called by the coroutine
  /// layer right after scheduling a promise/join resume; no-op when no
  /// detector is attached or `from_seq` is kNoEventSeq.
  void NoteEdgeToLastScheduled(uint64_t from_seq) {
    if (race_detector_ != nullptr) NoteEdgeToLastScheduledSlow(from_seq);
  }

  // --- tie-shuffle exploration (design note D12) ----------------------

  /// Replaces the FIFO tie-break among equal-time events with a seeded
  /// pseudo-random permutation (seed 0 restores FIFO). Events with
  /// time >= `horizon` keep the FIFO order — shrinking the horizon is how
  /// a divergence is minimized to the first diverging time. The pending
  /// heap is rebuilt under the new order, so this may be called at any
  /// point of a run.
  void SetTieShuffle(uint64_t seed,
                     TimeMicros horizon = kMaxTimeMicros);
  uint64_t tie_shuffle_seed() const { return shuffle_seed_; }

  static constexpr TimeMicros kMaxTimeMicros =
      std::numeric_limits<TimeMicros>::max();

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// One pooled event. `generation` advances every time the slot is
  /// recycled, invalidating stale EventIds. `tag` / `parent_seq` feed the
  /// race detector's provenance and parent-spawned-child edges; they are
  /// stamped unconditionally (two stores) so attaching a detector never
  /// perturbs the schedule.
  struct Slot {
    TimeMicros time = 0;
    uint64_t seq = 0;
    EventFn fn;
    const char* tag = nullptr;
    uint64_t parent_seq = kNoEventSeq;
    uint32_t generation = 1;
    uint32_t next_free = kNoSlot;
    bool in_use = false;
    bool cancelled = false;
  };

  static EventId MakeId(uint32_t generation, uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  bool SlotLess(uint32_t a, uint32_t b) const;
  void HeapPush(uint32_t slot);
  uint32_t HeapPop();
  uint32_t AllocSlot();
  void FreeSlot(uint32_t index);
  /// Drops cancelled events off the heap top; returns the top live slot
  /// index or kNoSlot when the heap is empty.
  uint32_t PeekLive();
  void NoteEdgeToLastScheduledSlow(uint64_t from_seq);
  /// Per-(seed, time) pseudo-random rank of `seq` among its time-group:
  /// the tie-shuffle comparison key.
  uint64_t ShuffleKey(TimeMicros time, uint64_t seq) const;

  TimeMicros now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  uint64_t current_event_seq_ = kNoEventSeq;
  RaceDetector* race_detector_ = nullptr;
  uint64_t shuffle_seed_ = 0;  // 0 = FIFO tie-break (the default)
  TimeMicros shuffle_horizon_ = kMaxTimeMicros;
  Simulator* previous_current_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_;  // slot indices, min-heap on (time, seq)
  uint32_t free_head_ = kNoSlot;
};

}  // namespace paxoscp::sim
