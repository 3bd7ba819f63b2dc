#include "radio/PropagationCache.h"

#include <bit>
#include <cstring>

namespace vg::radio {

namespace {

/// splitmix64-style mix over the six position doubles, bit-exact.
std::uint64_t hash_key(const double (&key)[6]) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (double d : key) {
    std::uint64_t x;
    std::memcpy(&x, &d, sizeof x);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    h = (h ^ x) * 0x94d049bb133111ebULL;
  }
  return h ^ (h >> 31);
}

}  // namespace

PropagationCache::PropagationCache(const FloorPlan& plan, PathLossParams params,
                                   std::size_t slots)
    : plan_(plan), params_(params), plan_epoch_(plan.epoch()) {
  slots_ = std::vector<Slot>(std::bit_ceil(slots < 2 ? std::size_t{2} : slots));
  mask_ = slots_.size() - 1;
}

double PropagationCache::mean_rssi(Vec3 tx, Vec3 rx) {
  if (plan_.epoch() != plan_epoch_) {
    plan_epoch_ = plan_.epoch();
    ++epoch_;
  }
  const double key[6] = {tx.x, tx.y, tx.z, rx.x, rx.y, rx.z};
  Slot& s = slots_[hash_key(key) & mask_];
  if (s.epoch == epoch_ && std::memcmp(s.key, key, sizeof key) == 0) {
    ++hits_;
    return s.mean;
  }
  ++misses_;
  std::memcpy(s.key, key, sizeof key);
  s.epoch = epoch_;
  s.mean = radio::mean_rssi(plan_, params_, tx, rx);
  return s.mean;
}

double PropagationCache::sample_rssi(Vec3 tx, Vec3 rx, sim::Rng& rng) {
  double rssi = mean_rssi(tx, rx);
  rssi += rng.normal(0.0, params_.shadowing_sigma_db);
  rssi += rng.uniform(-params_.orientation_spread_db,
                      params_.orientation_spread_db);
  return rssi;
}

double PropagationCache::averaged_rssi(Vec3 tx, Vec3 rx, sim::Rng& rng, int n) {
  const double mean = mean_rssi(tx, rx);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    double rssi = mean;
    rssi += rng.normal(0.0, params_.shadowing_sigma_db);
    rssi += rng.uniform(-params_.orientation_spread_db,
                        params_.orientation_spread_db);
    acc += rssi;
  }
  return acc / n;
}

}  // namespace vg::radio
