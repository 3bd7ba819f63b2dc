/// The fleet subsystem (src/fleet/): WorldTemplate derivation, integer-exact
/// AggregateStats merging, the parity invariant that makes the whole design
/// trustworthy — run_fleet over any shard or worker count is bit-identical to
/// the serial fold over the same homes — and a run's memory, which must not
/// grow with the number of homes.

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
// Defines the counting global operator new/delete for this binary: the
// memory test reads its live and peak heap bytes.
#include "testutil/CountingAllocator.h"

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

TEST(FleetParity, ShardAndWorkerCountsNeverChangeTheStats) {
  const WorldTemplate tmpl{populated_spec()};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  EXPECT_EQ(serial.counters().homes, tmpl.homes());
  EXPECT_EQ(serial.counters().commands, 3 * tmpl.homes());
  EXPECT_GT(serial.counters().events, 0u);
  EXPECT_GT(serial.latency_samples(), 0u);
  EXPECT_GT(serial.rssi_samples(), 0u);

  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const unsigned workers : {0u, 1u, 3u}) {
      FleetConfig cfg;
      cfg.shards = shards;
      cfg.workers = workers;
      const AggregateStats fleet = run_fleet(tmpl, cfg);
      EXPECT_TRUE(fleet == serial)
          << shards << " shard(s), " << workers
          << " worker(s): fingerprint " << fleet.fingerprint() << " != "
          << serial.fingerprint();
    }
  }
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
    const AggregateStats fleet = run_fleet(tmpl, cfg);
    EXPECT_TRUE(fleet == serial) << "seed " << seed;
    return;
  }
  FAIL() << "no generated seed in [1, 64] carried a population";
}

TEST(FleetParity, LongIdleDrainHoldsParity) {
  // Commands end by ~50 s but the drain stretches to 300 s of keep-alives
  // and heartbeats.
  scenario::ScenarioSpec spec = populated_spec();
  spec.schedule.drain = sim::seconds(300);
  const WorldTemplate tmpl{spec};
  FleetConfig cfg;
  cfg.shards = 2;
  EXPECT_TRUE(run_fleet(tmpl, cfg) == run_fleet_serial(tmpl, 0, tmpl.homes()));
}

TEST(FleetParity, HouseHomesHoldParity) {
  // The two-floor house carries the stair motion sensor, which samples only
  // while someone moves.
  scenario::ScenarioSpec spec = populated_spec();
  spec.home.testbed = scenario::Testbed::kHouse;
  spec.schedule.drain = sim::hours(1);
  spec.population.homes = 3;
  const WorldTemplate tmpl{spec};
  FleetConfig cfg;
  cfg.shards = 2;
  EXPECT_TRUE(run_fleet(tmpl, cfg) == run_fleet_serial(tmpl, 0, tmpl.homes()));
}

TEST(FleetPins, FingerprintsAreLiterals) {
  // Every other fleet test compares run_fleet against run_fleet_serial in one
  // build. Both share FleetHome and its path-loss memo, so a change that
  // moves both paths alike passes all of them; these literals catch it.
  EXPECT_EQ(run_fleet_serial(WorldTemplate{populated_spec()}, 0, 6).fingerprint(),
            7337366986388926627ull);

  // A two-hour drain: hours of heartbeats and keep-alives per home after the
  // last command, the idle steady state of a deployed population.
  scenario::ScenarioSpec idle = populated_spec();
  idle.schedule.drain = sim::hours(2);
  const WorldTemplate idle_tmpl{idle};
  const AggregateStats idle_serial = run_fleet_serial(idle_tmpl, 0, 6);
  EXPECT_EQ(idle_serial.fingerprint(), 17174347238474782464ull);
  FleetConfig cfg;
  cfg.shards = 2;
  EXPECT_TRUE(run_fleet(idle_tmpl, cfg) == idle_serial);

  // The house population of HouseHomesHoldParity.
  scenario::ScenarioSpec house = populated_spec();
  house.home.testbed = scenario::Testbed::kHouse;
  house.schedule.drain = sim::hours(1);
  house.population.homes = 3;
  EXPECT_EQ(run_fleet_serial(WorldTemplate{house}, 0, 3).fingerprint(),
            16458032666658526802ull);
}

TEST(FleetParity, EarliestPossibleEndIsHandled) {
  // One command at offset 0 with the minimum legal drain: each home ends
  // shortly after its boot deadline.
  scenario::ScenarioSpec spec = populated_spec();
  spec.schedule.commands.resize(1);
  spec.schedule.commands[0].at = sim::Duration{0};
  spec.schedule.drain = sim::seconds(30);
  const WorldTemplate tmpl{spec};
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  FleetConfig cfg;
  cfg.shards = 3;
  EXPECT_TRUE(run_fleet(tmpl, cfg) == serial);
}

// ---------------------------------------------------------------------------
// Run shape: the pool starts no thread it cannot give a shard to.

TEST(FleetRun, StartsNoMoreWorkersThanShardsOrHomes) {
  const WorldTemplate tmpl{populated_spec()};  // 6 homes
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers = 16;
  WakeTelemetry tel;
  EXPECT_TRUE(run_fleet(tmpl, cfg, &tel) == serial);
  EXPECT_EQ(tel.workers, 2u);

  // More shards than homes: two shards are empty, so six threads suffice.
  FleetConfig wide;
  wide.shards = 8;
  wide.workers = 16;
  WakeTelemetry wide_tel;
  EXPECT_TRUE(run_fleet(tmpl, wide, &wide_tel) == serial);
  EXPECT_EQ(wide_tel.workers, 6u);

  FleetConfig automatic;
  automatic.shards = 2;
  WakeTelemetry auto_tel;
  (void)run_fleet(tmpl, automatic, &auto_tel);
  EXPECT_GE(auto_tel.workers, 1u);
  EXPECT_LE(auto_tel.workers, 2u);
}

// ---------------------------------------------------------------------------
// Memory: a shard holds one live home, so a run's heap does not grow with
// its home count.

TEST(FleetMemory, PeakHeapIsIndependentOfTheHomeCount) {
  scenario::ScenarioSpec spec = populated_spec();
  spec.population.homes = 512;
  const WorldTemplate tmpl{spec};
  // Warm-up: anything a first home allocates once per process stays out of
  // the measurements below.
  (void)run_fleet_serial(tmpl, 0, 1);

  const auto peak_heap = [](const auto& run) {
    const std::size_t before = testutil::live_bytes();
    testutil::reset_peak_bytes();
    run();
    return testutil::peak_bytes() - before;
  };
  const std::size_t one_home =
      peak_heap([&] { (void)run_fleet_serial(tmpl, 0, 1); });
  const auto fleet_of = [&](std::uint64_t homes) {
    FleetConfig cfg;
    cfg.homes = homes;
    cfg.shards = 1;
    cfg.workers = 1;
    return peak_heap([&] { (void)run_fleet(tmpl, cfg); });
  };
  const std::size_t small = fleet_of(64);
  const std::size_t large = fleet_of(512);
  EXPECT_GT(one_home, 0u);
  // 448 more homes may not add even one home's footprint to the peak.
  EXPECT_LT(large, small + one_home)
      << "peak heap: 64 homes " << small << " B, 512 homes " << large
      << " B, one home " << one_home << " B";
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
}

TEST(FleetConfigValidation, RunFleetRejectsBadConfigsBeforeRunning) {
  const WorldTemplate tmpl{populated_spec()};
  FleetConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(run_fleet(tmpl, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace vg::fleet
