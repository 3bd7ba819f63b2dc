#include "radio/Bluetooth.h"

#include <cmath>

namespace vg::radio {

BluetoothScanner::BluetoothScanner(sim::Simulation& sim, const FloorPlan& plan,
                                   PathLossParams params, std::string name,
                                   PositionFn pos, ScanParams scan)
    : sim_(sim),
      name_(std::move(name)),
      pos_(std::move(pos)),
      scan_(scan),
      cache_(plan, params, scan.cache_slots) {}

double BluetoothScanner::measure_now(const BluetoothBeacon& beacon) {
  auto& rng = rssi_rng_.get(sim_.rngs(), [this] { return "radio.rssi." + name_; });
  double rssi = cache_.sample_rssi(beacon.position(), pos_(), rng);
  if (scan_.quantize) rssi = std::round(rssi);
  return rssi;
}

void BluetoothScanner::measure(const BluetoothBeacon& beacon, MeasureCallback cb) {
  auto& rng = scan_rng_.get(sim_.rngs(), [this] { return "radio.scan." + name_; });
  const sim::Duration latency{
      rng.uniform_int(scan_.min_latency.ns(), scan_.max_latency.ns())};
  sim_.after(latency, [this, &beacon, cb = std::move(cb)] {
    cb(measure_now(beacon));
  });
}

}  // namespace vg::radio
