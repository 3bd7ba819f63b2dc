#include "simcore/Rng.h"

#include <stdexcept>
#include <utility>

namespace vg::sim {

void LazyMt19937_64::extend_chain() {
  // Draw pos_ of the first round reads words pos_ + 1 and, before the
  // halfway point, pos_ + kM; past it the second operand is an already
  // twisted word.
  const std::uint32_t need = pos_ + kM + 1 < kN ? pos_ + kM + 1 : kN;
  for (; chain_ < need; ++chain_) {
    const result_type prev = x_[chain_ - 1];
    x_[chain_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + chain_;
  }
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument{"index: empty range"};
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"weighted_index: negative weight"};
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"weighted_index: all weights zero"};
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: x landed exactly on total
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t RngRegistry::hash_name(std::uint64_t seed, std::string_view name) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return splitmix64(h);
}

Rng& RngRegistry::stream(std::string_view name) {
  std::string key{name};
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_.try_emplace(std::move(key), hash_name(root_seed_, name)).first;
  }
  return it->second;
}

}  // namespace vg::sim
