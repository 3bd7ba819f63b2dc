#include "simcore/EventQueue.h"

#include <algorithm>
#include <stdexcept>

namespace vg::sim {

namespace {

// EventId encoding: generation in the high 32 bits, slot index + 1 in the low
// 32 bits. Value 0 stays an always-invalid default handle.
constexpr std::uint64_t encode(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

}  // namespace

EventId EventQueue::schedule(TimePoint when, Callback cb) {
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[idx];
  slot.cb = std::move(cb);
  heap_.push_back(HeapEntry{when, next_seq_++, idx, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return EventId{encode(idx, slot.gen)};
}

void EventQueue::cancel(EventId id) {
  if (id.value == 0) return;
  const auto idx = static_cast<std::uint32_t>((id.value & 0xffffffffu) - 1);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  // Only a still-pending event can be cancelled; a fired or already-cancelled
  // one has a bumped slot generation, making this a no-op.
  if (idx >= slots_.size() || slots_[idx].gen != gen) return;
  release_slot(idx);
  --live_count_;
  ++stale_in_heap_;  // the heap entry stays behind until skipped or compacted
  maybe_compact();
}

void EventQueue::release_slot(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  slot.cb.reset();
  ++slot.gen;  // invalidates outstanding EventIds and stale heap entries
  free_slots_.push_back(idx);
}

void EventQueue::skip_stale() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_in_heap_;
  }
}

void EventQueue::maybe_compact() {
  // Rebuild only when stale entries dominate: amortized O(1) per cancel and
  // the heap never exceeds ~2x the live event count (plus a small floor).
  if (stale_in_heap_ < 64 || stale_in_heap_ * 2 < heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return stale(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_in_heap_ = 0;
}

TimePoint EventQueue::next_time() const {
  auto* self = const_cast<EventQueue*>(this);
  self->skip_stale();
  if (heap_.empty()) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return heap_.front().when;
}

EventQueue::Fired EventQueue::pop() {
  skip_stale();
  if (heap_.empty()) throw std::logic_error{"EventQueue::pop on empty queue"};
  const HeapEntry top = heap_.front();
  Fired f{top.when, std::move(slots_[top.slot].cb)};
  release_slot(top.slot);
  --live_count_;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return f;
}

}  // namespace vg::sim
