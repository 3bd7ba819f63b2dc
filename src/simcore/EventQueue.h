#pragma once

#include <cstdint>
#include <vector>

#include "simcore/Callback.h"
#include "simcore/Time.h"

/// \file EventQueue.h
/// The pending-event set of the discrete-event simulator.
///
/// Events at equal timestamps fire in insertion order (FIFO tie-break), which
/// keeps causally ordered same-tick interactions — e.g. "packet arrives" then
/// "proxy inspects packet" — deterministic.
///
/// Storage layout (the simulator's hottest data structure):
///  - Callbacks live in a slot table indexed by a reusable slot id; each slot
///    carries a generation counter bumped on release, so an EventId from a
///    fired/cancelled event can never alias a later event in the same slot.
///    Slots are reused but never dropped, so a slot's generation only grows.
///  - The time-ordered heap holds only POD entries (when, seq, slot, gen);
///    sift operations never move callbacks.
///  - cancel() is O(1): it releases the slot and leaves a stale heap entry
///    behind, which pop()/next_time() skip and a lazy compaction purges when
///    stale entries outnumber live ones — internal memory stays bounded by
///    the peak number of concurrently pending events, not by total churn.

namespace vg::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t value{0};
  friend constexpr bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  /// Schedules \p cb to run at \p when. Returns a handle usable with cancel().
  /// Does not allocate when \p cb fits UniqueFunction's inline buffer and the
  /// slot table / heap are at capacity (the steady state of a long run).
  EventId schedule(TimePoint when, Callback cb);

  /// Cancels a pending event in O(1). Cancelling an already-fired or
  /// already-cancelled event is a no-op (the common pattern for one-of-many
  /// timers).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Fired {
    TimePoint when;
    Callback cb;
  };
  Fired pop();

  // --- introspection (bounded-memory regression tests) ----------------------
  /// Number of slots ever allocated; bounded by peak concurrent events.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// Heap entries including not-yet-purged stale ones.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen{1};
  };
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;  // insertion order; breaks timestamp ties FIFO
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool stale(const HeapEntry& e) const {
    return slots_[e.slot].gen != e.gen;
  }
  void release_slot(std::uint32_t idx);
  /// Pops stale entries off the heap top until a live one (or empty).
  void skip_stale();
  /// Purges stale entries wholesale once they dominate the heap.
  void maybe_compact();

  std::vector<HeapEntry> heap_;  // std::push_heap/pop_heap with Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_{0};
  std::size_t stale_in_heap_{0};
  std::uint64_t next_seq_{0};
};

}  // namespace vg::sim
