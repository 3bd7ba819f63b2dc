/// The fleet subsystem (src/fleet/): WorldTemplate derivation, integer-exact
/// AggregateStats merging, and the parity invariant that makes the whole
/// design trustworthy — run_fleet over any shard count / worker count /
/// residency cap is bit-identical to the serial fold over the same homes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/AggregateStats.h"
#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/Generator.h"
#include "scenario/ScenarioLoader.h"
#include "scenario/Serialize.h"
#include "workload/ScenarioRun.h"
#include "workload/World.h"

namespace vg::fleet {
namespace {

/// A small scripted home under a light fault plan with jitter and attack
/// flips — every fleet mechanism (derivation, faults, decisions) exercised.
constexpr const char* kPopulated = R"([scenario]
name = fleet-base
kind = home
seed = 1234
speaker = echo_dot

[home]
testbed = apartment
deployment = 1
owners = 2

[guard]
mode = voiceguard

[schedule]
command = 10 legit
command = 25 attack
command = 41 legit
drain_s = 75

[faults]
link = lan flap 15 2

[population]
homes = 6
command_jitter_s = 1.5
attack_flip = 0.3
)";

scenario::ScenarioSpec populated_spec() {
  return scenario::ScenarioLoader::load(kPopulated);
}

// ---------------------------------------------------------------------------
// AggregateStats: integer-exact fold/merge and percentile extraction.

TEST(AggregateStats, MergeEqualsSingleFoldExactly) {
  workload::ChaosResult r;
  r.spikes = 3;
  r.released = 2;
  r.blocked = 1;
  r.commands_executed = 2;

  AggregateStats whole;
  AggregateStats left;
  AggregateStats right;
  for (int i = 0; i < 10; ++i) {
    AggregateStats& half = i < 5 ? left : right;
    whole.add_home(r, 100 + i, 3, 1);
    half.add_home(r, 100 + i, 3, 1);
    const double lat = 0.050 * (i + 1);
    whole.add_latency(lat);
    half.add_latency(lat);
    const double rssi = -60.0 - i;
    whole.add_rssi(rssi);
    half.add_rssi(rssi);
  }
  AggregateStats merged;
  merged.merge(left);
  merged.merge(right);
  EXPECT_TRUE(merged == whole);
  EXPECT_EQ(merged.fingerprint(), whole.fingerprint());

  // Merge order must not matter either (commutativity).
  AggregateStats reversed;
  reversed.merge(right);
  reversed.merge(left);
  EXPECT_TRUE(reversed == whole);

  EXPECT_EQ(whole.counters().homes, 10u);
  EXPECT_EQ(whole.counters().commands, 30u);
  EXPECT_EQ(whole.counters().spikes, 30u);
  EXPECT_EQ(whole.latency_samples(), 10u);
  EXPECT_EQ(whole.rssi_samples(), 10u);
}

TEST(AggregateStats, PercentilesReadTheHistogramEdges) {
  AggregateStats s;
  EXPECT_DOUBLE_EQ(s.latency_percentiles().p50, 0.0);  // no samples

  // 100 samples at 10 ms, 1 at 500 ms: p50 in the first bin, p99 too (the
  // 100th of 101 ranks), but the max lands in the 500 ms bin.
  for (int i = 0; i < 100; ++i) s.add_latency(0.010);
  s.add_latency(0.500);
  const auto p = s.latency_percentiles();
  EXPECT_DOUBLE_EQ(p.p50, 0.025);  // upper edge of bin [0, 25 ms)
  EXPECT_DOUBLE_EQ(p.p95, 0.025);
  EXPECT_DOUBLE_EQ(p.p99, 0.025);
  EXPECT_NEAR(s.mean_latency_s(), (100 * 0.010 + 0.500) / 101.0, 1e-9);

  AggregateStats tail;
  for (int i = 0; i < 50; ++i) tail.add_latency(0.010);
  for (int i = 0; i < 50; ++i) tail.add_latency(0.480);
  EXPECT_DOUBLE_EQ(tail.latency_percentiles().p50, 0.025);
  EXPECT_DOUBLE_EQ(tail.latency_percentiles().p95, 0.500);  // bin [475, 500)
}

TEST(AggregateStats, OutOfRangeSamplesLandInOverflowBins) {
  AggregateStats s;
  s.add_latency(9999.0);             // past the last latency bin
  s.add_rssi(-200.0);                // below the RSSI window
  s.add_rssi(50.0);                  // above it
  EXPECT_EQ(s.latency_hist()[AggregateStats::kLatencyBins], 1u);
  EXPECT_EQ(s.latency_samples(), 1u);
  EXPECT_EQ(s.rssi_samples(), 2u);
  // Fingerprint must see them (two objects differing only here differ).
  AggregateStats t;
  EXPECT_NE(s.fingerprint(), t.fingerprint());
}

// ---------------------------------------------------------------------------
// WorldTemplate: derivation properties.

TEST(WorldTemplate, RejectsNonScriptedScenarios) {
  const scenario::ScenarioSpec capture = scenario::ScenarioLoader::load(
      "[scenario]\nname = cap\n[schedule]\ncommands = 4\n");
  EXPECT_THROW(WorldTemplate{capture}, std::invalid_argument);
}

TEST(WorldTemplate, HomeZeroIsTheBaseSpecVerbatim) {
  const WorldTemplate tmpl{populated_spec()};
  EXPECT_EQ(tmpl.homes(), 6u);
  const scenario::ScenarioSpec h0 = tmpl.home_spec(0);
  EXPECT_EQ(h0.seed, tmpl.base().seed);
  EXPECT_EQ(h0.name, "fleet-base");
  EXPECT_FALSE(h0.population.enabled());  // derived specs are single homes
  scenario::ScenarioSpec base = tmpl.base();
  base.population = {};
  EXPECT_TRUE(h0 == base);
}

TEST(WorldTemplate, DerivedSeedsAreDistinctAndStable) {
  const WorldTemplate tmpl{populated_spec()};
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.push_back(tmpl.home_seed(i));
    EXPECT_EQ(tmpl.home_seed(i), seeds.back());  // stable under re-query
  }
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]) << "homes " << a << " and " << b;
    }
  }
}

TEST(WorldTemplate, JitterOnlyGrowsGapsAndstaysLoaderValid) {
  const scenario::ScenarioSpec base = populated_spec();
  const WorldTemplate tmpl{base};
  for (std::uint64_t i = 1; i < tmpl.homes(); ++i) {
    const scenario::ScenarioSpec spec = tmpl.home_spec(i);
    EXPECT_EQ(spec.name, "fleet-base-h" + std::to_string(i));
    EXPECT_EQ(spec.faults.name, spec.name);
    ASSERT_EQ(spec.schedule.commands.size(), base.schedule.commands.size());
    for (std::size_t c = 0; c < spec.schedule.commands.size(); ++c) {
      EXPECT_GE(spec.schedule.commands[c].at.ns(),
                base.schedule.commands[c].at.ns());
      if (c > 0) {
        const auto base_gap = base.schedule.commands[c].at.ns() -
                              base.schedule.commands[c - 1].at.ns();
        const auto gap = spec.schedule.commands[c].at.ns() -
                         spec.schedule.commands[c - 1].at.ns();
        EXPECT_GE(gap, base_gap);
      }
    }
    // The drain gap past the last command is preserved, so the derived spec
    // survives the loader's own validation on a round-trip.
    const scenario::ScenarioSpec reparsed =
        scenario::ScenarioLoader::load(scenario::write_scn(spec));
    EXPECT_TRUE(reparsed == spec) << scenario::write_scn(spec);
  }
}

TEST(WorldTemplate, ZeroKnobPopulationsDeriveUnjitteredTwins) {
  scenario::ScenarioSpec base = populated_spec();
  base.population.command_jitter_s = 0.0;
  base.population.attack_flip = 0.0;
  const WorldTemplate tmpl{base};
  const scenario::ScenarioSpec h3 = tmpl.home_spec(3);
  ASSERT_EQ(h3.schedule.commands.size(), base.schedule.commands.size());
  for (std::size_t c = 0; c < h3.schedule.commands.size(); ++c) {
    EXPECT_EQ(h3.schedule.commands[c].at, base.schedule.commands[c].at);
    EXPECT_EQ(h3.schedule.commands[c].attack,
              base.schedule.commands[c].attack);
  }
  EXPECT_NE(h3.seed, base.seed);  // the world seed still diverges
}

// ---------------------------------------------------------------------------
// Calibration artifacts: capture → install round-trips exactly.

TEST(CalibrationArtifacts, InstallThenRecaptureRoundTrips) {
  const scenario::ScenarioSpec spec = populated_spec();
  const workload::WorldConfig cfg = workload::world_config_from_spec(spec);

  workload::SmartHomeWorld calibrated{cfg};
  calibrated.calibrate();
  const workload::CalibrationArtifacts art = calibrated.calibration_artifacts();
  ASSERT_FALSE(art.thresholds.empty());

  workload::SmartHomeWorld injected{cfg};
  injected.calibrate_from(art);
  const workload::CalibrationArtifacts back = injected.calibration_artifacts();
  ASSERT_EQ(back.thresholds.size(), art.thresholds.size());
  for (std::size_t i = 0; i < art.thresholds.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.thresholds[i], art.thresholds[i]);
  }
  ASSERT_EQ(back.tracker_fits.size(), art.tracker_fits.size());
  for (std::size_t t = 0; t < art.tracker_fits.size(); ++t) {
    ASSERT_EQ(back.tracker_fits[t].size(), art.tracker_fits[t].size());
    for (std::size_t f = 0; f < art.tracker_fits[t].size(); ++f) {
      EXPECT_EQ(back.tracker_fits[t][f].label, art.tracker_fits[t][f].label);
      EXPECT_DOUBLE_EQ(back.tracker_fits[t][f].slope,
                       art.tracker_fits[t][f].slope);
      EXPECT_DOUBLE_EQ(back.tracker_fits[t][f].intercept,
                       art.tracker_fits[t][f].intercept);
    }
  }
}

TEST(CalibrationArtifacts, InstallRejectsMismatchedShapes) {
  const scenario::ScenarioSpec spec = populated_spec();
  const workload::WorldConfig cfg = workload::world_config_from_spec(spec);
  workload::SmartHomeWorld world{cfg};
  workload::CalibrationArtifacts art;  // empty: wrong device count
  EXPECT_THROW(world.calibrate_from(art), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The parity invariant (label: threaded — run_fleet drives BatchRunner).

TEST(FleetParity, ShardAndResidencyCountsNeverChangeTheStats) {
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  EXPECT_EQ(serial.counters().homes, tmpl.homes());
  EXPECT_EQ(serial.counters().commands, 3 * tmpl.homes());
  EXPECT_GT(serial.counters().events, 0u);
  EXPECT_GT(serial.latency_samples(), 0u);
  EXPECT_GT(serial.rssi_samples(), 0u);

  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const std::uint64_t resident : {0ull, 1ull, 3ull}) {
      FleetConfig cfg;
      cfg.shards = shards;
      cfg.max_resident = resident;
      const AggregateStats fleet = run_fleet(tmpl, cfg);
      EXPECT_TRUE(fleet == serial)
          << shards << " shard(s), max_resident " << resident
          << ": fingerprint " << fleet.fingerprint() << " != "
          << serial.fingerprint();
    }
  }
}

TEST(FleetParity, ExplicitRangesMatchTheContiguousSplit) {
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  FleetConfig cfg;
  cfg.shards = 3;
  cfg.ranges = {{4, 6}, {0, 1}, {1, 4}};  // unordered, uneven — still a partition
  const AggregateStats fleet = run_fleet(tmpl, cfg);
  EXPECT_TRUE(fleet == serial);
}

TEST(FleetParity, GeneratedPopulationsHoldParityToo) {
  // The first generated seed that carries a population, checked end to end —
  // the same shape the fuzzer's registered population check exercises.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const scenario::ScenarioSpec spec = scenario::Generator::generate(seed);
    if (!spec.scripted() || !spec.population.enabled()) continue;
    const WorldTemplate tmpl{spec};
    const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.max_resident = 2;
    const AggregateStats fleet = run_fleet(tmpl, cfg);
    EXPECT_TRUE(fleet == serial) << "seed " << seed;
    return;
  }
  FAIL() << "no generated seed in [1, 64] carried a population";
}

// ---------------------------------------------------------------------------
// Wake calendar + hibernation: scheduling is invisible in the stats.

TEST(FleetParity, HibernationNeverChangesTheStats) {
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  // Aggressive (hibernate at any forward gap), default, and never: all three
  // must be bit-identical — hibernation is memory-only.
  FleetConfig eager;
  eager.shards = 2;
  eager.hibernate_gap = sim::Duration{1};
  WakeTelemetry eager_tel;
  EXPECT_TRUE(run_fleet(tmpl, eager, &eager_tel) == serial);
  EXPECT_GT(eager_tel.hibernations, 0u);

  FleetConfig never;
  never.shards = 2;
  never.hibernate_gap = sim::Duration{0};
  WakeTelemetry never_tel;
  EXPECT_TRUE(run_fleet(tmpl, never, &never_tel) == serial);
  EXPECT_EQ(never_tel.hibernations, 0u);
  EXPECT_EQ(never_tel.trim_bytes, 0u);

  // The scheduler telemetry itself is deterministic for a fixed config: the
  // same wake sequence ran under both hibernation policies.
  EXPECT_EQ(eager_tel.wakes, never_tel.wakes);
  EXPECT_EQ(eager_tel.epochs_skipped, never_tel.epochs_skipped);
}

TEST(WakeCalendar, SkipsIdleEpochsAcrossALongDrain) {
  // Commands end by ~50 s but the drain stretches to 300 s: the round-robin
  // loop would grind ~25 empty epochs per home, the calendar must skip them
  // — and still produce bit-identical stats.
  scenario::ScenarioSpec spec = populated_spec();
  spec.schedule.drain = sim::seconds(300);
  const WorldTemplate tmpl{spec};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  FleetConfig cfg;
  cfg.shards = 2;
  WakeTelemetry tel;
  EXPECT_TRUE(run_fleet(tmpl, cfg, &tel) == serial);
  // Drain maintenance (keepalives, heartbeats) still wakes homes every few
  // epochs, so not every idle epoch is skippable — but a meaningful share is.
  EXPECT_GT(tel.epochs_skipped, 5u * tmpl.homes());
  EXPECT_GT(tel.wakes, 0u);
  // Skipping must actually shrink the wake count below the epoch-grid total
  // (>= 31 epochs per home over a 300 s drain).
  EXPECT_LT(tel.wakes, 31u * tmpl.homes());
}

TEST(WakeCalendar, HouseHomesSkipEpochsAndHibernateToo) {
  // The two-floor house carries the stair motion sensor. It samples only
  // while someone moves, so an idle house home leaves empty epochs for the
  // calendar to skip and long enough gaps to hibernate in, like an
  // apartment home. A sensor that polled for the whole run would put an
  // event into every epoch and keep both counters at zero.
  scenario::ScenarioSpec spec = populated_spec();
  spec.home.testbed = scenario::Testbed::kHouse;
  spec.schedule.drain = sim::hours(1);
  spec.population.homes = 3;
  const WorldTemplate tmpl{spec};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  FleetConfig cfg;
  cfg.shards = 2;
  WakeTelemetry tel;
  EXPECT_TRUE(run_fleet(tmpl, cfg, &tel) == serial);
  EXPECT_GT(tel.epochs_skipped, 0u);
  EXPECT_GT(tel.hibernations, 0u);
}

TEST(WakeCalendar, EarliestPossibleEndIsHandled) {
  // One command at offset 0 with the minimum legal drain: the home's end
  // lands before most of the epoch grid, so next_wake clamps to end_ almost
  // immediately. Parity must survive the clamp.
  scenario::ScenarioSpec spec = populated_spec();
  spec.schedule.commands.resize(1);
  spec.schedule.commands[0].at = sim::Duration{0};
  spec.schedule.drain = sim::seconds(30);
  const WorldTemplate tmpl{spec};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  FleetConfig cfg;
  cfg.shards = 3;
  cfg.max_resident = 2;
  EXPECT_TRUE(run_fleet(tmpl, cfg) == serial);
}

TEST(WakeCalendar, TelemetryReportsTheResolvedRunShape) {
  const WorldTemplate tmpl{populated_spec()};
  FleetConfig cfg;
  cfg.shards = 2;  // 6 homes -> ranges of 3
  WakeTelemetry tel;
  (void)run_fleet(tmpl, cfg, &tel);
  EXPECT_GE(tel.workers, 1u);
  EXPECT_EQ(tel.resident_cap, 3u);  // max_resident 0 = whole shard range

  FleetConfig capped;
  capped.shards = 2;
  capped.max_resident = 2;
  WakeTelemetry capped_tel;
  (void)run_fleet(tmpl, capped, &capped_tel);
  EXPECT_EQ(capped_tel.resident_cap, 2u);
}

TEST(FleetParity, WakeBatchSizeNeverChangesTheStats) {
  // wake_batch is a locality knob: a popped home may run several consecutive
  // horizons before re-entering the heap. Whatever the batch, the horizons
  // executed per home are the same, so stats AND wake telemetry must match.
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  WakeTelemetry reference_tel;
  FleetConfig reference;
  reference.shards = 2;
  reference.wake_batch = 1;  // the strict earliest-wake-first order
  EXPECT_TRUE(run_fleet(tmpl, reference, &reference_tel) == serial);

  for (const std::uint32_t batch : {0u, 3u, 1000u}) {
    FleetConfig cfg;
    cfg.shards = 2;
    cfg.wake_batch = batch;
    WakeTelemetry tel;
    EXPECT_TRUE(run_fleet(tmpl, cfg, &tel) == serial)
        << "wake_batch " << batch;
    EXPECT_EQ(tel.wakes, reference_tel.wakes) << "wake_batch " << batch;
    EXPECT_EQ(tel.epochs_skipped, reference_tel.epochs_skipped)
        << "wake_batch " << batch;
  }
}

TEST(FleetParity, PinnedWorkersAreBitIdentical) {
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  FleetConfig cfg;
  cfg.shards = 4;
  cfg.pin_threads = true;  // placement hint only; results must not move
  EXPECT_TRUE(run_fleet(tmpl, cfg) == serial);
}

TEST(ParkedFleet, ParkThenFinishMatchesSerialExactly) {
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  ParkedFleet parked{tmpl, tmpl.homes()};
  EXPECT_EQ(parked.count(), tmpl.homes());
  // Hibernating a parked home must actually give memory back: the arena
  // holds boot + calibration + command traffic it no longer needs.
  EXPECT_GT(parked.trim_bytes(), 0u);
  EXPECT_TRUE(parked.finish() == serial);
}

// ---------------------------------------------------------------------------
// FleetConfig validation: every rejection names its constraint.

void expect_invalid(const FleetConfig& cfg, std::uint64_t homes,
                    const std::string& substr) {
  try {
    validate_fleet_config(cfg, homes);
    FAIL() << "expected invalid_argument containing \"" << substr << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(substr), std::string::npos)
        << e.what();
  }
}

TEST(FleetConfigValidation, RejectsEveryMalformedShape) {
  FleetConfig ok;
  EXPECT_NO_THROW(validate_fleet_config(ok, 10));

  expect_invalid(ok, 0, "at least 1 home");
  expect_invalid(ok, FleetConfig::kMaxHomes + 1, "exceeds");

  FleetConfig zero_shards;
  zero_shards.shards = 0;
  expect_invalid(zero_shards, 10, "shards must be >= 1");

  FleetConfig wrong_count;
  wrong_count.shards = 2;
  wrong_count.ranges = {{0, 10}};
  expect_invalid(wrong_count, 10, "exactly one [begin, end) per shard");

  FleetConfig inverted;
  inverted.ranges = {{5, 5}};
  expect_invalid(inverted, 10, "empty or inverted");

  FleetConfig oob;
  oob.ranges = {{0, 11}};
  expect_invalid(oob, 10, "exceeds the population");

  FleetConfig overlap;
  overlap.shards = 2;
  overlap.ranges = {{0, 6}, {5, 10}};
  expect_invalid(overlap, 10, "overlapping");

  FleetConfig gap;
  gap.shards = 2;
  gap.ranges = {{0, 4}, {5, 10}};
  expect_invalid(gap, 10, "every home must run exactly once");

  FleetConfig partition;
  partition.shards = 2;
  partition.ranges = {{5, 10}, {0, 5}};
  EXPECT_NO_THROW(validate_fleet_config(partition, 10));
}

TEST(FleetConfigValidation, RunFleetRejectsBadConfigsBeforeRunning) {
  const WorldTemplate tmpl{populated_spec()};
  FleetConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(run_fleet(tmpl, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace vg::fleet
