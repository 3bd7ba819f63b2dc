#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

/// \file CountingAllocator.h
/// Global operator new/delete replacement that counts allocations and the
/// heap bytes they hold, shared by the allocation-regression suite
/// (test_event_queue, test_arena, ...) and the fleet memory test.
///
/// Include this header in EXACTLY ONE translation unit per binary: it
/// *defines* the replaceable global allocation functions. Any allocation
/// anywhere in the process (including the standard library) bumps the
/// counters, which is what makes "zero allocations per event" and "peak heap
/// independent of the home count" assertable. Bytes are malloc_usable_size
/// of each block, so they include the allocator's rounding.

namespace vg::testutil {

inline std::atomic<std::size_t> g_allocations{0};
inline std::atomic<std::size_t> g_live_bytes{0};
inline std::atomic<std::size_t> g_peak_bytes{0};

/// Number of global operator new calls since process start.
inline std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Allocations that happened while running \p fn.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = allocation_count();
  fn();
  return allocation_count() - before;
}

/// Bytes held by live operator new blocks.
inline std::size_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

/// High-water mark of live_bytes() since process start or the last
/// reset_peak_bytes().
inline std::size_t peak_bytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

/// Restarts the high-water mark from the bytes live now.
inline void reset_peak_bytes() {
  g_peak_bytes.store(live_bytes(), std::memory_order_relaxed);
}

inline void* counted_new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  const std::size_t bytes = malloc_usable_size(p);
  const std::size_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

inline void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace vg::testutil

void* operator new(std::size_t size) { return vg::testutil::counted_new(size); }
void* operator new[](std::size_t size) {
  return vg::testutil::counted_new(size);
}

void operator delete(void* p) noexcept { vg::testutil::counted_delete(p); }
void operator delete[](void* p) noexcept { vg::testutil::counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept {
  vg::testutil::counted_delete(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  vg::testutil::counted_delete(p);
}
