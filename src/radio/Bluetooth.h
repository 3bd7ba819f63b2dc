#pragma once

#include <functional>
#include <string>

#include "radio/Propagation.h"
#include "radio/PropagationCache.h"
#include "simcore/Simulation.h"

/// \file Bluetooth.h
/// The Bluetooth layer VoiceGuard leans on: smart speakers advertise
/// (discoverable, as commercial speakers are), phones/watches scan and read
/// the speaker's RSSI. A scan is not instantaneous — BLE scan windows mean
/// 0.2-1.2 s before the advertiser is heard — and that latency is a major
/// component of the Fig. 7 end-to-end delay.

namespace vg::radio {

/// A fixed transmitter (the smart speaker's Bluetooth radio).
class BluetoothBeacon {
 public:
  BluetoothBeacon(std::string id, Vec3 position)
      : id_(std::move(id)), position_(position) {}

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] Vec3 position() const { return position_; }
  void set_position(Vec3 p) { position_ = p; }

 private:
  std::string id_;
  Vec3 position_;
};

struct ScanParams {
  /// Scan latency model: uniform window in [min, max] until the beacon's next
  /// advertisement lands in the scan window.
  sim::Duration min_latency = sim::milliseconds(200);
  sim::Duration max_latency = sim::milliseconds(900);
  /// Android reports integer dB values.
  bool quantize = true;
  /// Slots in the scanner's direct-mapped path-loss memo (PropagationCache;
  /// 64 bytes each, rounded up to a power of two). Purely a memory/speed
  /// trade: a hit returns the identical double a recompute would, so sample
  /// streams are byte-identical at any size. Fleet homes shrink this: they
  /// measure from a handful of positions, so the 32 KiB default table would
  /// be allocated and freed per home for almost no hits.
  std::size_t cache_slots = 512;
};

/// A scanner bound to a moving device. Position is supplied by a callable so
/// the measurement uses the device's position at measurement time, not at
/// request time (the owner may be walking).
class BluetoothScanner {
 public:
  using PositionFn = std::function<Vec3()>;
  using MeasureCallback = std::function<void(double rssi)>;

  BluetoothScanner(sim::Simulation& sim, const FloorPlan& plan,
                   PathLossParams params, std::string name, PositionFn pos,
                   ScanParams scan = {});

  /// Asynchronously measures \p beacon's RSSI; \p cb fires after the scan
  /// latency with one instantaneous (noisy) reading.
  void measure(const BluetoothBeacon& beacon, MeasureCallback cb);

  /// Synchronous reading with no scan latency — the continuously-scanning
  /// mode used by the threshold app and the floor tracker (they sample every
  /// 0.5 s / 0.2 s while already scanning).
  double measure_now(const BluetoothBeacon& beacon);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// The scanner's memoized path-loss state: readings at a repeated
  /// (beacon, device) position pair reuse the deterministic mean instead of
  /// re-walking the floor plan (bit-identical; see PropagationCache.h).
  [[nodiscard]] PropagationCache& propagation_cache() { return cache_; }

 private:
  sim::Simulation& sim_;
  std::string name_;
  PositionFn pos_;
  ScanParams scan_;
  PropagationCache cache_;
  sim::RngHandle rssi_rng_;
  sim::RngHandle scan_rng_;
};

}  // namespace vg::radio
