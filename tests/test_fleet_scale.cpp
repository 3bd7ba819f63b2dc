/// Large-population fleet smoke (ctest label: fleet-big). The default size
/// keeps an asan build comfortable; CI's fleet-big presets scale it up via
/// VG_FLEET_BIG_HOMES (push: 20k, nightly: larger) without recompiling.
///
/// What scale adds over test_fleet.cpp's six-home parity matrix: thousands
/// of homes built, run and destroyed back to back on each shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "fleet/AggregateStats.h"
#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/ScenarioLoader.h"

namespace vg::fleet {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::uint64_t parsed = std::strtoull(v, nullptr, 10);
  return parsed == 0 ? fallback : parsed;
}

std::uint64_t big_homes() { return env_u64("VG_FLEET_BIG_HOMES", 2000); }

constexpr const char* kBigScn = R"([scenario]
name = fleet-big
kind = home
seed = 77
speaker = echo_dot

[home]
testbed = apartment
owners = 2

[schedule]
command = 10 legit
command = 25 attack
command = 40 legit
drain_s = 120

[faults]
link = lan flap 15 2

[population]
homes = 1000000
command_jitter_s = 1.5
attack_flip = 0.2
)";

WorldTemplate big_template() {
  return WorldTemplate{scenario::ScenarioLoader::load(kBigScn)};
}

TEST(FleetScale, ShardedRunMatchesSerialAtPopulationScale) {
  const WorldTemplate tmpl = big_template();
  const std::uint64_t homes = big_homes();
  const AggregateStats serial = run_fleet_serial(tmpl, 0, homes);
  EXPECT_EQ(serial.counters().homes, homes);

  FleetConfig cfg;
  cfg.homes = homes;
  cfg.shards = 8;
  const AggregateStats fleet = run_fleet(tmpl, cfg);
  EXPECT_TRUE(fleet == serial)
      << homes << " homes: fingerprint " << fleet.fingerprint() << " != "
      << serial.fingerprint();
}

TEST(FleetScale, OneWorkerAndAWholePoolAgree) {
  const WorldTemplate tmpl = big_template();
  // One worker runs the four shards back to back; the pool runs them side
  // by side, merging in shard order either way — stats must not move.
  const std::uint64_t homes = std::min<std::uint64_t>(big_homes(), 5000);
  FleetConfig pool;
  pool.homes = homes;
  pool.shards = 4;
  FleetConfig one;
  one.homes = homes;
  one.shards = 4;
  one.workers = 1;
  EXPECT_TRUE(run_fleet(tmpl, pool) == run_fleet(tmpl, one));
}

}  // namespace
}  // namespace vg::fleet
