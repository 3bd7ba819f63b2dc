#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

/// \file Arena.h
/// Per-simulation memory: a monotonic chunk arena with size-class recycling,
/// a minimal C++17-allocator handle over it, and a tag interner.
///
/// The packet hot path (TLS record vectors, in-flight packet slots, TCP
/// retransmission queues) routes every allocation through one Arena owned by
/// the trial's Simulation. Two properties matter:
///   - *No global allocator traffic in steady state.* Chunks are carved by
///     bumping; freed blocks go to power-of-two free lists and are handed
///     back out without touching malloc. Batched trials therefore stop
///     contending on the process heap (tests/test_arena.cpp enforces this).
///   - *Episode reset.* reset() rewinds the bump cursors and clears the free
///     lists but keeps every chunk mapped, so trial N+1 on the same worker
///     reuses trial N's capacity. The contract: reset only between episodes,
///     when no arena-backed object is live (TrialRunner resets before
///     constructing the next SmartHomeWorld).
///
/// Chunks go back to the global allocator only when the Arena is destroyed;
/// a fleet home's arena goes with the home when it finishes.
///
/// An Arena is single-threaded by design — each Simulation (and thus each
/// BatchRunner worker) owns or borrows its own; arenas are never shared
/// across threads.

namespace vg::sim {

class Arena {
 public:
  /// Granularity floor: every block can hold a free-list link.
  static constexpr std::size_t kMinBlock = 16;
  /// Blocks up to this size are recycled through free lists; larger blocks
  /// are bump-only and reclaimed wholesale at reset().
  static constexpr std::size_t kMaxBinned = 16 * 1024;
  static constexpr std::size_t kDefaultChunk = 64 * 1024;

  Arena() = default;
  /// \p chunk sets the growth granularity (rounded up per oversized request).
  /// A fleet home allocates tens of kilobytes of packet state; an 8 KiB chunk
  /// fits that closer than the 64 KiB default.
  explicit Arena(std::size_t chunk) : chunk_(chunk < kMinBlock ? kMinBlock : chunk) {}
  ~Arena() {
    for (Chunk* c = chunks_; c != nullptr;) {
      Chunk* next = c->next;
      ::operator delete(static_cast<void*>(c));
      c = next;
    }
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns storage for \p bytes aligned to \p align (<= alignof(max_align_t);
  /// stricter alignments fall back to the global allocator, which this
  /// codebase never needs).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    if (align > alignof(std::max_align_t)) {
      return ::operator new(bytes, std::align_val_t{align});
    }
    const std::size_t cls = size_class(bytes);
    if (cls < kBinCount) {
      if (FreeBlock* b = bins_[cls]) {
        bins_[cls] = b->next;
        used_ += std::size_t{kMinBlock} << cls;
        return b;
      }
      return bump(std::size_t{kMinBlock} << cls);
    }
    return bump(round_up(bytes, alignof(std::max_align_t)));
  }

  /// Recycles a binned block; oversized blocks wait for reset().
  void deallocate(void* p, std::size_t bytes,
                  std::size_t align = alignof(std::max_align_t)) noexcept {
    if (align > alignof(std::max_align_t)) {
      ::operator delete(p, std::align_val_t{align});
      return;
    }
    const std::size_t cls = size_class(bytes);
    if (cls < kBinCount) {
      auto* b = static_cast<FreeBlock*>(p);
      b->next = bins_[cls];
      bins_[cls] = b;
      used_ -= std::size_t{kMinBlock} << cls;
    }
  }

  /// Rewinds to empty while keeping every chunk mapped. Only valid between
  /// episodes: any object still backed by this arena dangles afterwards.
  void reset() noexcept {
    for (auto& bin : bins_) bin = nullptr;
    cursor_chunk_ = chunks_;
    cursor_ = cursor_chunk_ != nullptr ? cursor_chunk_->begin() : nullptr;
    cursor_end_ = cursor_chunk_ != nullptr ? cursor_chunk_->end() : nullptr;
    used_ = 0;
  }

  /// Bytes currently handed out (binned blocks count at bin granularity).
  [[nodiscard]] std::size_t used_bytes() const { return used_; }
  /// Total chunk capacity acquired from the global allocator so far.
  [[nodiscard]] std::size_t reserved_bytes() const { return reserved_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  struct alignas(std::max_align_t) Chunk {
    Chunk* next{nullptr};
    std::size_t capacity{0};
    [[nodiscard]] std::byte* begin() {
      return reinterpret_cast<std::byte*>(this + 1);
    }
    [[nodiscard]] std::byte* end() { return begin() + capacity; }
  };

  /// bins_[i] recycles blocks of exactly kMinBlock << i bytes.
  static constexpr std::size_t kBinCount = 11;  // 16 B .. 16 KiB
  static_assert((std::size_t{kMinBlock} << (kBinCount - 1)) == kMaxBinned);

  static constexpr std::size_t round_up(std::size_t n, std::size_t a) {
    return (n + a - 1) & ~(a - 1);
  }

  /// Index of the smallest bin holding \p bytes; kBinCount when oversized.
  static std::size_t size_class(std::size_t bytes) {
    if (bytes > kMaxBinned) return kBinCount;
    std::size_t cls = 0;
    std::size_t cap = kMinBlock;
    while (cap < bytes) {
      cap <<= 1;
      ++cls;
    }
    return cls;
  }

  void* bump(std::size_t bytes) {
    if (static_cast<std::size_t>(cursor_end_ - cursor_) < bytes) {
      next_chunk(bytes);
    }
    void* p = cursor_;
    cursor_ += bytes;
    used_ += bytes;
    return p;
  }

  /// Advances to the next chunk able to hold \p bytes, appending a new one
  /// when the retained list is exhausted (the only global allocation).
  void next_chunk(std::size_t bytes) {
    Chunk* c = cursor_chunk_ != nullptr ? cursor_chunk_->next : chunks_;
    while (c != nullptr && c->capacity < bytes) c = c->next;
    if (c == nullptr) {
      std::size_t cap = chunk_;
      while (cap < bytes) cap <<= 1;
      void* raw = ::operator new(sizeof(Chunk) + cap);
      c = ::new (raw) Chunk{};
      c->capacity = cap;
      // Append: reset() replays chunks in acquisition order.
      if (tail_ != nullptr) {
        tail_->next = c;
      } else {
        chunks_ = c;
      }
      tail_ = c;
      reserved_ += cap;
      ++chunk_count_;
    }
    cursor_chunk_ = c;
    cursor_ = c->begin();
    cursor_end_ = c->end();
  }

  Chunk* chunks_{nullptr};
  Chunk* tail_{nullptr};
  Chunk* cursor_chunk_{nullptr};
  std::byte* cursor_{nullptr};
  std::byte* cursor_end_{nullptr};
  FreeBlock* bins_[kBinCount]{};
  std::size_t used_{0};
  std::size_t reserved_{0};
  std::size_t chunk_count_{0};
  std::size_t chunk_{kDefaultChunk};
};

/// C++17 allocator over an Arena. A null arena falls back to the global
/// allocator — that *is* the "heap semantics" mode: containers behave exactly
/// as with std::allocator, which the packet-parity tests exploit to compare
/// arena and seed behaviour on identical types.
template <class T>
class ArenaAlloc {
 public:
  using value_type = T;
  // Full propagation: assignments and swaps carry the arena with the buffer,
  // and copies (e.g. a Packet pushed into a retransmission queue) stay on the
  // same arena as the source.
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAlloc() noexcept = default;
  explicit ArenaAlloc(Arena* arena) noexcept : arena_(arena) {}
  template <class U>
  ArenaAlloc(const ArenaAlloc<U>& other) noexcept : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T), alignof(T));
    } else {
      ::operator delete(p);
    }
  }

  [[nodiscard]] ArenaAlloc select_on_container_copy_construction() const {
    return *this;
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <class U>
  friend bool operator==(const ArenaAlloc& a, const ArenaAlloc<U>& b) noexcept {
    return a.arena_ == b.arena();
  }

 private:
  Arena* arena_{nullptr};
};

/// Constructs a T in arena storage (global allocator when \p arena is null).
/// Pairs with arena_delete; used for in-flight packet slots on links.
template <class T, class... Args>
T* arena_new(Arena* arena, Args&&... args) {
  void* mem = arena != nullptr ? arena->allocate(sizeof(T), alignof(T))
                               : ::operator new(sizeof(T));
  return ::new (mem) T(std::forward<Args>(args)...);
}

template <class T>
void arena_delete(Arena* arena, T* p) noexcept {
  if (p == nullptr) return;
  p->~T();
  if (arena != nullptr) {
    arena->deallocate(p, sizeof(T), alignof(T));
  } else {
    ::operator delete(p);
  }
}

/// Interns tag strings to stable storage for the lifetime of the pool.
/// Tags form a small closed set ("heartbeat", "voice-cmd-end:<id>", ...), so
/// repeated interning of the same content is a hash probe returning a
/// pointer-identical view — no allocation, no copy. String literals never
/// need interning (static storage); the pool exists for tags built at
/// runtime, which would otherwise dangle once TlsRecord::tag became a view.
class TagPool {
 public:
  std::string_view intern(std::string_view tag) {
    auto it = pool_.find(tag);
    if (it == pool_.end()) it = pool_.emplace(tag).first;
    return std::string_view{*it};
  }

  [[nodiscard]] std::size_t size() const { return pool_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Node-based set: element addresses are stable across rehash, so returned
  // views stay valid for the pool's lifetime.
  std::unordered_set<std::string, Hash, std::equal_to<>> pool_;
};

}  // namespace vg::sim
