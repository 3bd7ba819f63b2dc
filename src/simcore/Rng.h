#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

/// \file Rng.h
/// Deterministic, named random-number streams.
///
/// Every stochastic component of the simulation draws from a stream obtained
/// by name from the RngRegistry. Streams are seeded from (root seed, name), so
/// adding a new component never perturbs the draws of existing ones — a
/// property the experiment benches rely on for reproducible tables.

namespace vg::sim {

/// MT19937-64 with exactly the output sequence of the standard library's
/// 64-bit Mersenne Twister for the same seed, and the same result_type, min()
/// and max(), so every standard distribution reads identical bits from it.
///
/// The difference is what a stream pays before it has drawn much. The
/// standard engine runs the whole init_genrand64 seed chain (312 steps) in
/// its constructor and twists all 312 state words at the first draw. Here
/// the constructor stores only the seed; each draw extends the seed chain
/// just as far as that draw reads (the first draw needs 157 words, each of
/// the next 155 draws one more) and then twists the one word it outputs, in
/// place. The in-place twist reads each word in the state the batch twist
/// would, so the sequence is the standard one: a stream drawn once costs 156
/// chain steps and one twist instead of 312 of each. The state is inline
/// (2.5 KB) and the engine never allocates.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  // State words at or past chain_ are not yet defined, so a copy would read
  // indeterminate values; a stream is also meant to have one owner.
  LazyMt19937_64(const LazyMt19937_64&) = delete;
  LazyMt19937_64& operator=(const LazyMt19937_64&) = delete;

  result_type operator()() {
    if (chain_ < kN) [[unlikely]] extend_chain();
    const std::uint32_t k = pos_;
    const std::uint32_t next = k + 1 == kN ? 0 : k + 1;
    const std::uint32_t mid = k < kN - kM ? k + kM : k + kM - kN;
    const result_type y = (x_[k] & kUpperMask) | (x_[next] & kLowerMask);
    result_type z = x_[mid] ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
    x_[k] = z;
    pos_ = next;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kN = 312;
  static constexpr std::uint32_t kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  /// Runs the seed chain up to the last word the next draw reads. Out of
  /// line: it runs only during a stream's first 156 draws.
  void extend_chain();

  std::array<result_type, kN> x_;  // words [0, chain_) are defined
  std::uint32_t pos_{0};           // the next word to twist and output
  std::uint32_t chain_{1};         // seed-chain words computed so far
};

/// A single deterministic random stream (LazyMt19937_64 behind a convenience
/// API).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>{0.0, 1.0}(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  /// Lognormal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Exponential with the given mean (not rate).
  double exponential_mean(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Picks a uniformly random index in [0, n). Throws std::invalid_argument
  /// when n is 0.
  std::size_t index(std::size_t n);

  /// Picks a uniformly random element of \p v. Throws std::invalid_argument
  /// when \p v is empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  /// Picks an index according to non-negative weights (at least one positive).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  LazyMt19937_64 engine_;
};

/// Hands out named Rng streams derived from a single root seed.
class RngRegistry {
 public:
  explicit RngRegistry(std::uint64_t root_seed) : root_seed_(root_seed) {}

  /// Returns the stream for \p name, creating it on first use. The stream's
  /// seed depends only on (root seed, name). A stream never moves once
  /// created, so the returned reference stays valid, and keeps naming the
  /// same stream, for the registry's lifetime.
  Rng& stream(std::string_view name);

  [[nodiscard]] std::uint64_t root_seed() const { return root_seed_; }

  /// Stable 64-bit hash used for stream seeding (FNV-1a + splitmix64 finish).
  static std::uint64_t hash_name(std::uint64_t seed, std::string_view name);

 private:
  std::uint64_t root_seed_;
  std::unordered_map<std::string, Rng> streams_;
};

/// A component's hold on one named stream. The stream is looked up by name at
/// the first draw and held from then on, so a per-packet or per-reading draw
/// pays no lookup, and a stream that is never drawn is never created. The
/// held reference stays valid as long as the registry (see
/// RngRegistry::stream); a handle must only ever be used with one registry.
class RngHandle {
 public:
  /// The stream \p name of \p registry, looked up on the first call only.
  Rng& get(RngRegistry& registry, std::string_view name) {
    if (rng_ == nullptr) [[unlikely]] rng_ = &registry.stream(name);
    return *rng_;
  }

  /// As above for a name built at run time: \p make_name() runs on the first
  /// call only, so the name is built once instead of at every draw.
  template <class MakeName>
    requires std::is_invocable_v<MakeName&>
  Rng& get(RngRegistry& registry, MakeName&& make_name) {
    if (rng_ == nullptr) [[unlikely]] rng_ = &registry.stream(make_name());
    return *rng_;
  }

 private:
  Rng* rng_{nullptr};
};

}  // namespace vg::sim
