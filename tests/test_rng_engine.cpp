// sim::LazyMt19937_64 against the standard engine it replaces: the same
// output for every seed, whatever the number of draws made so far, through
// every sim::Rng method — and no allocation on any draw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

#include "simcore/Rng.h"
#include "testutil/CountingAllocator.h"

namespace vg::sim {
namespace {

using testutil::allocations_during;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

// Past three full twists of the 312-word state.
constexpr int kDrawsPerSeed = 1000;

/// The edge seeds (0, 1, all ones, the standard default 5489) followed by
/// \p n - 4 splitmix64-spread ones.
std::vector<std::uint64_t> test_seeds(std::size_t n) {
  std::vector<std::uint64_t> seeds{0, 1, kU64Max, 5489};
  std::uint64_t z = 0;
  while (seeds.size() < n) {
    z += 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    seeds.push_back(x ^ (x >> 31));
  }
  return seeds;
}

TEST(LazyMtEngine, MatchesStandardEngineWordForWord) {
  static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
  static_assert(LazyMt19937_64::max() == std::mt19937_64::max());
  static_assert(std::is_same_v<LazyMt19937_64::result_type,
                               std::mt19937_64::result_type>);
  std::vector<std::uint64_t> got(kDrawsPerSeed);
  std::size_t mismatched_seeds = 0;
  std::size_t allocations = 0;
  for (std::uint64_t seed : test_seeds(2000)) {
    LazyMt19937_64 engine{seed};
    allocations += allocations_during([&] {
      for (auto& word : got) word = engine();
    });
    std::mt19937_64 ref{seed};
    bool same = true;
    for (std::uint64_t word : got) same &= word == ref();
    if (!same) {
      ++mismatched_seeds;
      ADD_FAILURE() << "seed " << seed << " diverges from the standard engine";
    }
  }
  EXPECT_EQ(mismatched_seeds, 0u);
  EXPECT_EQ(allocations, 0u);
}

/// One call of every sim::Rng method, each checked against the same standard
/// distribution drawn from \p ref. \p i varies the arguments so the integer
/// draws cover lo == hi, small, power-of-two, wider-than-32-bit and full
/// ranges. Returns the number of calls whose results differ.
int mismatches_over_every_method(Rng& rng, std::mt19937_64& ref, int i,
                                 std::vector<int>& deck,
                                 std::vector<int>& ref_deck,
                                 const std::vector<double>& weights) {
  auto ref_uniform_int = [&ref](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(ref);
  };
  auto ref_uniform = [&ref](double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(ref);
  };
  static constexpr std::int64_t kRanges[][2] = {
      {7, 7}, {-5, 5}, {0, 63}, {1000, 500000}, {-(1LL << 40), 1LL << 41},
      {kI64Min, kI64Max}, {0, kI64Max}};
  const auto& range = kRanges[i % 7];
  const double mean = 0.25 + (i % 5);

  int bad = 0;
  bad += rng.uniform() != ref_uniform(0.0, 1.0);
  bad += rng.uniform(-3.5, 12.25) != ref_uniform(-3.5, 12.25);
  bad += rng.uniform_int(range[0], range[1]) != ref_uniform_int(range[0], range[1]);
  bad += rng.normal(mean, 0.5) != std::normal_distribution<double>{mean, 0.5}(ref);
  bad += rng.lognormal(-0.2, 0.6) !=
         std::lognormal_distribution<double>{-0.2, 0.6}(ref);
  bad += rng.exponential_mean(mean) !=
         std::exponential_distribution<double>{1.0 / mean}(ref);
  bad += rng.chance(0.3) != (ref_uniform(0.0, 1.0) < 0.3);

  const std::size_t n = 1 + static_cast<std::size_t>(i % 17);
  bad += rng.index(n) !=
         static_cast<std::size_t>(ref_uniform_int(0, static_cast<std::int64_t>(n) - 1));
  bad += rng.pick(deck) !=
         deck[static_cast<std::size_t>(
             ref_uniform_int(0, static_cast<std::int64_t>(deck.size()) - 1))];

  double total = 0.0;
  for (double w : weights) total += w;
  double x = ref_uniform(0.0, total);
  std::size_t ref_pick = weights.size() - 1;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    x -= weights[k];
    if (x < 0.0) {
      ref_pick = k;
      break;
    }
  }
  bad += rng.weighted_index(weights) != ref_pick;

  rng.shuffle(deck);
  for (std::size_t k = ref_deck.size(); k > 1; --k) {
    std::swap(ref_deck[k - 1],
              ref_deck[static_cast<std::size_t>(
                  ref_uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
  }
  bad += deck != ref_deck;
  return bad;
}

// Every method after every prefix length 0..50: the lazy seed chain is still
// being extended over those draws, so each prefix leaves the engine in a
// different partly seeded state.
TEST(LazyMtEngine, EveryRngMethodMatchesAfterEveryPrefix) {
  const std::vector<double> weights{0.5, 0.0, 2.0, 1.25, 3.0};
  std::vector<int> deck(12);
  std::vector<int> ref_deck(12);
  int mismatches = 0;
  std::size_t allocations = 0;
  for (int prefix = 0; prefix <= 50; ++prefix) {
    for (std::uint64_t seed : test_seeds(24)) {
      Rng rng{seed};
      std::mt19937_64 ref{seed};
      for (int k = 0; k < 12; ++k) deck[k] = ref_deck[k] = k;
      allocations += allocations_during([&] {
        for (int k = 0; k < prefix; ++k) {
          mismatches +=
              rng.uniform() != std::uniform_real_distribution<double>{0.0, 1.0}(ref);
        }
        // A round draws at least 24 engine words, so 45 rounds run past
        // three full twists.
        for (int round = 0; round < 45; ++round) {
          mismatches += mismatches_over_every_method(rng, ref, prefix + round,
                                                     deck, ref_deck, weights);
        }
      });
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(allocations, 0u);
}

// A registry stream is the engine above seeded with hash_name: its draws are
// the standard engine's for that seed, and drawing allocates nothing once
// the stream exists.
TEST(LazyMtEngine, RegistryStreamsDrawWithoutAllocating) {
  RngRegistry registry{1};
  Rng& jitter = registry.stream("net.link.jitter");
  std::mt19937_64 ref{RngRegistry::hash_name(1, "net.link.jitter")};
  int mismatches = 0;
  const std::size_t allocations = allocations_during([&] {
    for (int k = 0; k < kDrawsPerSeed; ++k) {
      mismatches += jitter.uniform_int(-2'000'000, 2'000'000) !=
                    std::uniform_int_distribution<std::int64_t>{-2'000'000,
                                                                2'000'000}(ref);
    }
  });
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace vg::sim
