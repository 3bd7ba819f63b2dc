#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/Host.h"
#include "netsim/Node.h"
// Defines the counting global operator new/delete for this binary: every
// allocation anywhere in the process bumps the counter, so "zero allocations
// per event" below really means zero.
#include "testutil/CountingAllocator.h"
#include "simcore/Arena.h"

namespace vg {
namespace {

using namespace vg::net;

// ---------------------------------------------------------------------------
// Arena: bump allocation, bin recycling, episode reset
// ---------------------------------------------------------------------------

TEST(Arena, BinnedBlocksAreRecycled) {
  sim::Arena arena;
  void* p1 = arena.allocate(48);  // 64-byte class
  arena.deallocate(p1, 48);
  void* p2 = arena.allocate(64);  // same class: must reuse the freed block
  EXPECT_EQ(p1, p2);
  // A different class bumps fresh storage instead.
  void* p3 = arena.allocate(128);
  EXPECT_NE(p2, p3);
}

TEST(Arena, SteadyChurnNeedsOnlyOneChunk) {
  sim::Arena arena;
  for (int i = 0; i < 100'000; ++i) {
    void* p = arena.allocate(1024);
    arena.deallocate(p, 1024);
  }
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.reserved_bytes(), sim::Arena::kDefaultChunk);
}

TEST(Arena, OversizeRequestGrowsChunkToFit) {
  sim::Arena arena;
  void* p = arena.allocate(256 * 1024);  // > kMaxBinned and > kDefaultChunk
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.reserved_bytes(), 256u * 1024u);
  // Oversize blocks are bump-only: deallocate is a no-op until reset.
  arena.deallocate(p, 256 * 1024);
  EXPECT_GT(arena.used_bytes(), 0u);
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
}

TEST(Arena, ResetKeepsChunksMapped) {
  sim::Arena arena;
  // Force a couple of chunks into existence.
  for (int i = 0; i < 40; ++i) (void)arena.allocate(4096);
  const std::size_t reserved = arena.reserved_bytes();
  const std::size_t chunks = arena.chunk_count();
  ASSERT_GT(chunks, 1u);

  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);

  // Replaying the same episode reuses the retained chunks: no new memory.
  const std::size_t allocs = testutil::allocations_during([&] {
    for (int i = 0; i < 40; ++i) (void)arena.allocate(4096);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

// ---------------------------------------------------------------------------
// ArenaAlloc: the allocator handle
// ---------------------------------------------------------------------------

TEST(ArenaAlloc, NullArenaFallsBackToGlobalAllocator) {
  // Heap semantics: a default-constructed handle behaves like std::allocator.
  std::vector<int, sim::ArenaAlloc<int>> v;
  const std::size_t allocs = testutil::allocations_during([&] {
    for (int i = 0; i < 100; ++i) v.push_back(i);
  });
  EXPECT_GT(allocs, 0u);
  EXPECT_EQ(v.size(), 100u);
}

TEST(ArenaAlloc, ArenaVectorDoesNotTouchGlobalAllocator) {
  sim::Arena arena;
  // Warm pass: acquires the arena's first chunk and populates the growth-size
  // bins; every block frees back into the arena when the vector dies.
  {
    std::vector<int, sim::ArenaAlloc<int>> warm{sim::ArenaAlloc<int>{&arena}};
    for (int i = 0; i < 2'000; ++i) warm.push_back(i);
  }
  std::vector<int, sim::ArenaAlloc<int>> v{sim::ArenaAlloc<int>{&arena}};
  const std::size_t allocs = testutil::allocations_during([&] {
    for (int i = 0; i < 2'000; ++i) v.push_back(i);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(v.size(), 2'000u);
}

TEST(ArenaAlloc, CopiesStayOnTheSourceArena) {
  sim::Arena arena;
  RecordVec a{sim::ArenaAlloc<TlsRecord>{&arena}};
  a.push_back(TlsRecord{});
  RecordVec b = a;  // select_on_container_copy_construction keeps the arena
  EXPECT_EQ(b.get_allocator().arena(), &arena);
  RecordVec c = std::move(a);
  EXPECT_EQ(c.get_allocator().arena(), &arena);
}

// ---------------------------------------------------------------------------
// TagPool: interning
// ---------------------------------------------------------------------------

TEST(TagPool, InternedTagsArePointerIdentical) {
  sim::TagPool pool;
  const std::string runtime_built = "voice-cmd-end:" + std::to_string(123);
  const std::string_view v1 = pool.intern(runtime_built);
  const std::string_view v2 = pool.intern("voice-cmd-end:123");
  EXPECT_EQ(v1.data(), v2.data());
  EXPECT_EQ(pool.size(), 1u);

  const std::string_view other = pool.intern("activation:7");
  EXPECT_NE(other.data(), v1.data());
  EXPECT_EQ(pool.size(), 2u);

  // Re-interning known content is a pure hash probe.
  const std::size_t allocs = testutil::allocations_during(
      [&] { (void)pool.intern("voice-cmd-end:123"); });
  EXPECT_EQ(allocs, 0u);
}

TEST(Simulation, ArenaFactoryWiresPacketsAndHeapModeDoesNot) {
  sim::Simulation with_arena{1};
  ASSERT_NE(with_arena.arena_ptr(), nullptr);
  Packet p = with_arena.make<Packet>();
  EXPECT_EQ(p.records.get_allocator().arena(), with_arena.arena_ptr());

  sim::Simulation heap{1, sim::Simulation::Options{/*use_arena=*/false}};
  EXPECT_EQ(heap.arena_ptr(), nullptr);
  Packet q = heap.make<Packet>();
  EXPECT_EQ(q.records.get_allocator().arena(), nullptr);
}

// ---------------------------------------------------------------------------
// The headline regression: steady-state TCP forwarding allocates nothing
// ---------------------------------------------------------------------------

struct TcpPair {
  sim::Simulation sim;
  Network net{sim};
  Host a{net, "a", IpAddress(10, 0, 0, 1)};
  Host b{net, "b", IpAddress(10, 0, 0, 2)};
  TcpConnection* client{nullptr};
  std::uint64_t records_seen{0};
  std::uint64_t bytes_seen{0};

  explicit TcpPair(std::uint64_t seed = 7) : sim(seed) { init(); }
  TcpPair(std::uint64_t seed, sim::Arena* arena) : sim(seed, arena) { init(); }

  void init() {
    Link& l = net.add_link(a, b, sim::milliseconds(5));
    a.attach(l);
    b.attach(l);
    b.tcp().listen(443, [this](TcpConnection& c) {
      TcpCallbacks cbs;
      cbs.on_record = [this](const TlsRecord& r) {
        ++records_seen;
        bytes_seen += r.length;
      };
      c.set_callbacks(std::move(cbs));
    });
    client = &a.tcp().connect(Endpoint{b.ip(), 443}, TcpCallbacks{});
    sim.run_all();  // handshake
  }

  /// One traffic round: n records sent 10 ms apart, run to quiescence.
  void round(int n) {
    for (int i = 0; i < n; ++i) {
      sim.after(sim::milliseconds(10 * (i + 1)), [this, i] {
        TlsRecord r;
        r.length = 1200;
        r.tls_seq = seq_++;
        r.tag = (i % 2 == 0) ? "voice-audio" : "stream-meta";
        client->send_record(std::move(r));
      });
    }
    sim.run_all();
  }

 private:
  std::uint64_t seq_{0};
};

TEST(ArenaRegression, SteadyStateTcpForwardingIsAllocationFree) {
  TcpPair w;
  ASSERT_TRUE(w.client->established());
  // Warm-up at the measured burst size: grows the event queue's slot table,
  // the connection's deque/vector capacities and the arena's free bins to
  // their steady-state footprint.
  for (int i = 0; i < 6; ++i) w.round(256);
  const std::uint64_t seen_before = w.records_seen;

  const std::size_t allocs =
      testutil::allocations_during([&] { w.round(256); });

  EXPECT_EQ(allocs, 0u) << "steady-state send/deliver/ack cycle hit the "
                           "global allocator " << allocs << " times";
  EXPECT_EQ(w.records_seen, seen_before + 256);
}

TEST(ArenaRegression, HeapModeStillAllocatesPerPacket) {
  // Sanity check that the regression above is measuring something real: the
  // identical workload in heap (seed-semantics) mode does allocate.
  sim::Simulation heap{7, sim::Simulation::Options{/*use_arena=*/false}};
  Network net{heap};
  Host a{net, "a", IpAddress(10, 0, 0, 1)};
  Host b{net, "b", IpAddress(10, 0, 0, 2)};
  Link& l = net.add_link(a, b, sim::milliseconds(5));
  a.attach(l);
  b.attach(l);
  b.tcp().listen(443, [](TcpConnection&) {});
  TcpConnection* client = &a.tcp().connect(Endpoint{b.ip(), 443}, TcpCallbacks{});
  heap.run_all();
  ASSERT_TRUE(client->established());

  std::uint64_t seq = 0;
  auto burst = [&] {
    for (int i = 0; i < 64; ++i) {
      heap.after(sim::milliseconds(10 * (i + 1)), [&, i] {
        TlsRecord r;
        r.length = 1200;
        r.tls_seq = seq++;
        r.tag = "voice-audio";
        client->send_record(std::move(r));
      });
    }
    heap.run_all();
  };
  for (int i = 0; i < 6; ++i) burst();  // same warm-up discipline
  const std::size_t allocs = testutil::allocations_during(burst);
  EXPECT_GT(allocs, 0u);
}

TEST(ArenaRegression, EpisodeResetReturnsToCapacityBaseline) {
  sim::Arena arena;
  auto episode = [&arena] {
    TcpPair w{11, &arena};
    w.round(128);
    EXPECT_EQ(w.records_seen, 128u);
  };

  episode();  // episode 0 acquires whatever capacity the workload needs
  arena.reset();
  const std::size_t reserved = arena.reserved_bytes();
  const std::size_t chunks = arena.chunk_count();
  EXPECT_EQ(arena.used_bytes(), 0u);
  ASSERT_GT(chunks, 0u);

  // Every later identical episode runs inside the retained chunks: reset
  // reclaims everything, and the arena never grows again.
  for (int i = 0; i < 3; ++i) {
    episode();
    arena.reset();
    EXPECT_EQ(arena.used_bytes(), 0u) << "episode " << i;
    EXPECT_EQ(arena.reserved_bytes(), reserved) << "episode " << i;
    EXPECT_EQ(arena.chunk_count(), chunks) << "episode " << i;
  }
}

}  // namespace
}  // namespace vg
