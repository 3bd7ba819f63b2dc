#pragma once

#include <cstdint>
#include <vector>

#include "radio/Propagation.h"

/// \file PropagationCache.h
/// Memoized radio path loss. The deterministic half of an RSSI sample —
/// mean_rssi's log-distance term plus the wall/floor attenuation walk — is by
/// far its expensive part, and both the Figs. 8-9 measurement protocol
/// (16 samples averaged per location) and the decision module's repeated
/// queries at a stationary device recompute it for the same (tx, rx) pair
/// over and over. PropagationCache keys that mean on
/// (tx, rx, plan epoch, cache epoch) and recomputes only on a miss.
///
/// Bit-identity: a cached hit returns the exact double a fresh mean_rssi
/// call would produce (the value is memoized, never re-derived), and the
/// noise terms draw from the caller's RNG in the same order as the uncached
/// functions, so sample streams are byte-identical at fixed seed (the parity
/// suite enforces this).
///
/// Invalidation: the cache watches FloorPlan::epoch() for plan edits and
/// exposes invalidate() for coarse external events (e.g. the owner's device
/// being picked up or put down). Moving endpoints need no invalidation at
/// all — the position is part of the key — so a walking carrier simply
/// misses; the direct-mapped table bounds memory no matter how many distinct
/// positions a walk produces.

namespace vg::radio {

class PropagationCache {
 public:
  /// \p slots is rounded up to a power of two; the table is direct-mapped
  /// (a colliding key overwrites), so memory stays fixed after construction.
  PropagationCache(const FloorPlan& plan, PathLossParams params,
                   std::size_t slots = 512);

  /// Deterministic mean RSSI between \p tx and \p rx, memoized.
  double mean_rssi(Vec3 tx, Vec3 rx);

  /// One noisy instantaneous measurement (same RNG draw order as
  /// radio::sample_rssi).
  double sample_rssi(Vec3 tx, Vec3 rx, sim::Rng& rng);

  /// The Figs. 8-9 measurement protocol: \p n samples averaged. The mean is
  /// computed once and reused across the sample loop instead of re-walking
  /// the floor plan \p n times.
  double averaged_rssi(Vec3 tx, Vec3 rx, sim::Rng& rng, int n = 16);

  /// Drops every cached entry (epoch bump; O(1)).
  void invalidate() { ++epoch_; }

  [[nodiscard]] const FloorPlan& plan() const { return plan_; }
  [[nodiscard]] const PathLossParams& params() const { return params_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Slot {
    double key[6];          // tx.x, tx.y, tx.z, rx.x, rx.y, rx.z
    std::uint64_t epoch{0};  // 0 = empty
    double mean{0};
  };

  const FloorPlan& plan_;
  PathLossParams params_;
  std::vector<Slot> slots_;
  std::size_t mask_;
  /// Combined local + plan generation the live entries belong to.
  std::uint64_t epoch_{1};
  std::uint64_t plan_epoch_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace vg::radio
