/// Fleet-level fault orchestration (src/fleet/FleetFaultPlan.h,
/// FleetFaultOrchestrator): validate-before-install negative paths, the
/// deterministic region/selection hashing, recovery-metric merge exactness,
/// and the parity invariant under orchestrated plans — serial and sharded
/// fleets must derive bit-identical per-home faults and stats.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "faults/FaultPlan.h"
#include "faults/PlanCheck.h"
#include "fleet/AggregateStats.h"
#include "fleet/FleetFaultOrchestrator.h"
#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/ScenarioLoader.h"
#include "scenario/ScnParser.h"
#include "scenario/Serialize.h"

namespace vg::fleet {
namespace {

// ---------------------------------------------------------------------------
// Plan construction helpers.

FleetFaultPlan valid_plan() {
  FleetFaultPlan p;
  p.name = "test-plan";
  p.regions = 4;
  p.fcm_outages.push_back({/*region=*/0, sim::seconds(10), sim::seconds(8),
                           sim::milliseconds(250), /*drop_prob=*/1.0});
  p.cloud_capacity.push_back({sim::seconds(30), sim::seconds(6),
                              /*fraction=*/0.5, /*rst_existing=*/true,
                              sim::seconds(4), sim::milliseconds(200)});
  p.wan_degrades.push_back({/*region=*/1, sim::seconds(12), sim::seconds(10),
                            sim::milliseconds(150)});
  p.restart_waves.push_back({sim::seconds(45), sim::seconds(5),
                             /*fraction=*/0.5});
  return p;
}

/// True when the fleet plan checker rejects \p p for a population of
/// \p homes homes that each also run \p base.
bool rejects(const FleetFaultPlan& p, std::uint64_t homes,
             const faults::FaultPlan& base = {}) {
  return faults::check_plan(p, homes, base).has_value();
}

// ---------------------------------------------------------------------------
// Named plan registry.

TEST(FleetFaultPlans, RegistryValidatesAndResolvesEveryNamedPlan) {
  const auto& plans = fleet_fault_plans();
  ASSERT_FALSE(plans.empty());
  EXPECT_EQ(plans.front().name, "fleet-baseline");
  EXPECT_TRUE(plans.front().empty());

  std::set<std::string> names;
  for (const FleetFaultPlan& p : plans) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate plan " << p.name;
    EXPECT_FALSE(rejects(p, 64)) << p.name;
    const FleetFaultPlan* found = fleet_fault_plan(p.name);
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(*found == p);
  }
  EXPECT_EQ(fleet_fault_plan("no-such-plan"), nullptr);
}

// ---------------------------------------------------------------------------
// faults::check_plan: malformed plans are rejected before anything is
// installed.

TEST(FleetFaultValidation, RejectsBadRegionCounts) {
  FleetFaultPlan p = valid_plan();
  p.regions = 0;
  EXPECT_TRUE(rejects(p, 64));
  p.regions = kMaxRegions + 1;
  EXPECT_TRUE(rejects(p, 64));

  // More regions than homes guarantees zero-home regions.
  p.regions = 4;
  EXPECT_TRUE(rejects(p, 3));
  EXPECT_FALSE(rejects(p, 4));
}

TEST(FleetFaultValidation, RejectsEventRegionsOutsideThePlan) {
  FleetFaultPlan p = valid_plan();
  p.fcm_outages[0].region = 4;  // regions is 4, so valid regions are 0..3
  EXPECT_TRUE(rejects(p, 64));

  p = valid_plan();
  p.wan_degrades[0].region = 99;
  EXPECT_TRUE(rejects(p, 64));
}

TEST(FleetFaultValidation, RejectsOverlappingRegionalFcmWindows) {
  FleetFaultPlan p = valid_plan();
  // Overlaps the region-0 outage at [10, 18).
  p.fcm_outages.push_back({0, sim::seconds(15), sim::seconds(5),
                           sim::Duration{}, 1.0});
  EXPECT_TRUE(rejects(p, 64));

  // The same window in another region is fine — regions are disjoint homes.
  p = valid_plan();
  p.fcm_outages.push_back({2, sim::seconds(15), sim::seconds(5),
                           sim::Duration{}, 1.0});
  EXPECT_FALSE(rejects(p, 64));
}

TEST(FleetFaultValidation, RejectsBadCapacityFractions) {
  FleetFaultPlan p = valid_plan();
  p.cloud_capacity[0].fraction = 0.0;
  EXPECT_TRUE(rejects(p, 64));
  p.cloud_capacity[0].fraction = 1.5;
  EXPECT_TRUE(rejects(p, 64));
}

TEST(FleetFaultValidation, CapacityEnvelopesIncludeTheRecoverySpread) {
  FleetFaultPlan p = valid_plan();
  // The first capacity event's envelope is [30, 30+6+4) = [30, 40): a second
  // event starting inside the spread still collides.
  p.cloud_capacity.push_back({sim::seconds(38), sim::seconds(5), 0.5, false,
                              sim::Duration{}, sim::Duration{}});
  EXPECT_TRUE(rejects(p, 64));

  p = valid_plan();
  p.cloud_capacity.push_back({sim::seconds(40), sim::seconds(5), 0.5, false,
                              sim::Duration{}, sim::Duration{}});
  EXPECT_FALSE(rejects(p, 64));
}

TEST(FleetFaultValidation, RejectsOverlappingRegionalWanWindows) {
  FleetFaultPlan p = valid_plan();
  p.wan_degrades.push_back({1, sim::seconds(20), sim::seconds(5),
                            sim::milliseconds(100)});
  EXPECT_TRUE(rejects(p, 64));

  p = valid_plan();
  p.wan_degrades.push_back({0, sim::seconds(20), sim::seconds(5),
                            sim::milliseconds(100)});
  EXPECT_FALSE(rejects(p, 64));
}

TEST(FleetFaultValidation, RejectsBadWaveFractions) {
  FleetFaultPlan p = valid_plan();
  p.restart_waves[0].fraction = 0.0;
  EXPECT_TRUE(rejects(p, 64));
  p.restart_waves[0].fraction = 2.0;
  EXPECT_TRUE(rejects(p, 64));
}

TEST(FleetFaultValidation, AgainstBaseCatchesEveryCollisionGroup) {
  faults::FaultPlan base;  // empty base never collides
  EXPECT_FALSE(rejects(valid_plan(), 64, base));

  // FCM: base window [12, 20) meets the fleet outage at [10, 18).
  base = {};
  base.fcm.push_back({sim::seconds(12), sim::seconds(8), sim::Duration{}, 0.5});
  EXPECT_TRUE(rejects(valid_plan(), 64, base));

  // Cloud: base outage [35, 45) meets the capacity envelope [30, 40).
  base = {};
  base.cloud.push_back({sim::seconds(35), sim::seconds(10), true});
  EXPECT_TRUE(rejects(valid_plan(), 64, base));

  // Brownout: base brownout inside the capacity *window* [30, 36).
  base = {};
  base.brownouts.push_back(
      {sim::seconds(32), sim::seconds(2), sim::milliseconds(100)});
  EXPECT_TRUE(rejects(valid_plan(), 64, base));

  // WAN latency spike: meets the wan_degrade window [12, 22).
  base = {};
  faults::LinkFault spike;
  spike.where = faults::LinkFault::Where::kWan;
  spike.kind = faults::LinkFault::Kind::kLatencySpike;
  spike.start = sim::seconds(15);
  spike.duration = sim::seconds(5);
  spike.extra_latency = sim::milliseconds(50);
  base.links.push_back(spike);
  EXPECT_TRUE(rejects(valid_plan(), 64, base));

  // A LAN flap in the same window is a different group — no collision.
  base = {};
  faults::LinkFault flap;
  flap.where = faults::LinkFault::Where::kLan;
  flap.kind = faults::LinkFault::Kind::kFlap;
  flap.start = sim::seconds(15);
  flap.duration = sim::seconds(5);
  base.links.push_back(flap);
  EXPECT_FALSE(rejects(valid_plan(), 64, base));
}

TEST(FleetFaultValidation, ConstructorNamesTheEntryAndTheBaseEntryItMeets) {
  // The region-0 outage [10, 18) meets the base plan's second FCM window.
  faults::FaultPlan base;
  base.fcm.push_back({sim::seconds(1), sim::seconds(2), sim::Duration{}, 0.5});
  base.fcm.push_back({sim::seconds(12), sim::seconds(8), sim::Duration{}, 0.5});
  const auto d = faults::check_plan(valid_plan(), 64, base);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->entry,
            (faults::PlanEntry{faults::PlanEntry::List::kFcmOutages, 0}));
  EXPECT_EQ(d->other, (faults::PlanEntry{faults::PlanEntry::List::kFcm, 1}));
  try {
    const FleetFaultOrchestrator orch{valid_plan(), 64, base};
    ADD_FAILURE() << "the orchestrator accepted a colliding plan";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()},
              "FleetFaultPlan: plan 'test-plan': fcm_outages[0]: fcm_outage "
              "window collides with the base [faults] window from fcm[1]");
  }
}

TEST(FleetFaultValidation, OverlapVerdictDoesNotDependOnOrder) {
  // Region 0's [20, 20) ends where [20, 30) starts, in either order.
  for (const bool empty_first : {false, true}) {
    FleetFaultPlan p;
    p.regions = 2;
    p.fcm_outages.push_back(
        {0, sim::seconds(20), sim::seconds(10), sim::Duration{}, 1.0});
    p.fcm_outages.push_back(
        {0, sim::seconds(20), sim::Duration{}, sim::Duration{}, 1.0});
    if (empty_first) std::swap(p.fcm_outages[0], p.fcm_outages[1]);
    EXPECT_FALSE(rejects(p, 4)) << empty_first;
  }
}

// ---------------------------------------------------------------------------
// Deterministic region assignment and per-home expansion.

TEST(FleetFaultOrchestration, RegionAssignmentIsDeterministicAndInRange) {
  const FleetFaultOrchestrator a{valid_plan(), 64};
  const FleetFaultOrchestrator b{valid_plan(), 64};
  std::set<std::uint32_t> seen;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::uint32_t r = a.region_of(seed);
    EXPECT_LT(r, valid_plan().regions);
    EXPECT_EQ(r, b.region_of(seed));  // pure function of (plan, seed)
    seen.insert(r);
  }
  // 200 hashed seeds over 4 regions: every region gets homes.
  EXPECT_EQ(seen.size(), valid_plan().regions);
}

TEST(FleetFaultOrchestration, ApplyIsAPureFunctionOfTheHomeSeed) {
  const FleetFaultOrchestrator a{valid_plan(), 64};
  const FleetFaultOrchestrator b{valid_plan(), 64};
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    faults::FaultPlan out_a;
    faults::FaultPlan out_b;
    const std::size_t n_a = a.apply(seed, out_a);
    const std::size_t n_b = b.apply(seed, out_b);
    EXPECT_EQ(n_a, n_b);
    EXPECT_TRUE(out_a == out_b);
    EXPECT_EQ(n_a, out_a.total_entries());
  }
}

TEST(FleetFaultOrchestration, CapacityBrownoutTouchesEveryHome) {
  // extra_latency > 0 means the load-coupled brownout lands on every home,
  // refused or not — so a capacity event always orchestrates the full fleet.
  const FleetFaultOrchestrator orch{valid_plan(), 64};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    faults::FaultPlan out;
    orch.apply(seed, out);
    EXPECT_EQ(out.brownouts.size(), 1u) << "seed " << seed;
    // Brownout latency is the configured extra scaled by the *expected* load
    // fraction, never by live cross-home state.
    EXPECT_EQ(out.brownouts[0].extra_latency,
              sim::Duration{100'000'000});  // 200 ms * 0.5
  }
}

// ---------------------------------------------------------------------------
// AggregateStats: recovery metrics merge exactly in any shard grouping.

TEST(FleetRecoveryStats, RecoveryHistogramMergesExactlyAcrossShardCounts) {
  // 64 synthetic homes folded whole, and split 2-way and 8-way: the merged
  // objects must be bit-identical to the single fold, including the max-based
  // time_to_fleet_recovery and the per-region degradation counters.
  const auto sample_ns = [](int i) {
    return static_cast<std::uint64_t>(i) * 137'000'000ull;
  };
  AggregateStats whole;
  std::vector<AggregateStats> two(2);
  std::vector<AggregateStats> eight(8);
  for (int i = 0; i < 64; ++i) {
    const bool recovered = i % 13 != 0;
    whole.add_recovery(sample_ns(i), recovered);
    two[i % 2].add_recovery(sample_ns(i), recovered);
    eight[i % 8].add_recovery(sample_ns(i), recovered);
    const auto region = static_cast<std::uint32_t>(i % 4);
    whole.add_orchestration(region, static_cast<std::uint64_t>(i % 3));
    two[i % 2].add_orchestration(region, static_cast<std::uint64_t>(i % 3));
    eight[i % 8].add_orchestration(region, static_cast<std::uint64_t>(i % 3));
  }
  AggregateStats from_two;
  for (const AggregateStats& s : two) from_two.merge(s);
  AggregateStats from_eight;
  for (const AggregateStats& s : eight) from_eight.merge(s);
  EXPECT_TRUE(from_two == whole);
  EXPECT_TRUE(from_eight == whole);
  EXPECT_EQ(from_two.fingerprint(), whole.fingerprint());
  EXPECT_EQ(from_eight.fingerprint(), whole.fingerprint());

  // Reverse merge order too (commutativity of the max and the sums).
  AggregateStats reversed;
  for (auto it = eight.rbegin(); it != eight.rend(); ++it) reversed.merge(*it);
  EXPECT_TRUE(reversed == whole);

  // The extracted metrics read the merged state exactly.
  EXPECT_EQ(whole.time_to_fleet_recovery_ns(), sample_ns(63));
  EXPECT_EQ(whole.counters().unrecovered_homes, 5u);  // i in {0,13,26,39,52}
  EXPECT_EQ(whole.recovery_samples(), 59u);
  std::uint64_t degraded = 0;
  for (const std::uint64_t d : whole.region_degraded()) degraded += d;
  EXPECT_EQ(degraded, whole.counters().orchestrated_homes);
}

TEST(FleetRecoveryStats, UnrecoveredHomesContributeNoSample) {
  AggregateStats s;
  s.add_recovery(5'000'000'000ull, false);
  EXPECT_EQ(s.recovery_samples(), 0u);
  EXPECT_EQ(s.time_to_fleet_recovery_ns(), 0u);
  EXPECT_EQ(s.counters().unrecovered_homes, 1u);
  // But the fingerprint must still see it.
  AggregateStats t;
  EXPECT_NE(s.fingerprint(), t.fingerprint());
}

// ---------------------------------------------------------------------------
// .scn loader: the [fleet_faults] section runs the orchestrator's plan
// checker with line-accurate errors, and round-trips through the canonical
// writer.

constexpr const char* kScriptedBase = R"([scenario]
name = fleet-storm
kind = home
seed = 77

[home]
testbed = apartment
deployment = 1
owners = 1

[guard]
mode = voiceguard

[schedule]
command = 10 legit
command = 25 attack
command = 41 legit
drain_s = 80

[population]
homes = 8
command_jitter_s = 1
attack_flip = 0.25
)";

constexpr const char* kFleetSection = R"(
[fleet_faults]
regions = 4
fcm_outage = 0 10 8 delay_s=0.25 drop=1
cloud_capacity = 30 6 rst fraction=0.5 spread_s=4 extra_ms=200
wan_degrade = 1 12 10 extra_ms=150
restart_wave = 45 5 fraction=0.5
reconnect_backoff = 2 cap_s=8 budget=4
fcm_retry_jitter = 0.25
fcm_retry_budget = 16
)";

scenario::ScenarioSpec storm_spec() {
  return scenario::ScenarioLoader::load(std::string{kScriptedBase} +
                                        kFleetSection);
}

void expect_scn_error(const std::string& text, const std::string& needle) {
  try {
    (void)scenario::ScenarioLoader::load(text);
    FAIL() << "expected ScnError containing '" << needle << "'";
  } catch (const scenario::ScnError& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(FleetScnLoader, FullFleetSectionRoundTripsThroughTheWriter) {
  const scenario::ScenarioSpec spec = storm_spec();
  EXPECT_EQ(spec.fleet_faults.regions, 4u);
  EXPECT_EQ(spec.fleet_faults.total_events(), 4u);
  EXPECT_TRUE(spec.fleet_faults.resilience.any());
  EXPECT_EQ(spec.fleet_faults.name, "fleet-storm");  // mirrors the spec name

  const std::string out = scenario::write_scn(spec);
  const scenario::ScenarioSpec reparsed = scenario::ScenarioLoader::load(out);
  EXPECT_TRUE(reparsed == spec);
  EXPECT_EQ(scenario::write_scn(reparsed), out);  // fixed point
}

TEST(FleetScnLoader, FleetSectionNeedsAPopulation) {
  std::string text{kScriptedBase};
  const auto pop = text.find("[population]");
  ASSERT_NE(pop, std::string::npos);
  text.resize(pop);  // strip the population section
  expect_scn_error(text + kFleetSection, "needs a [population]");
}

TEST(FleetScnLoader, RejectsMoreRegionsThanHomes) {
  std::string text = std::string{kScriptedBase} + kFleetSection;
  const auto homes = text.find("homes = 8");
  ASSERT_NE(homes, std::string::npos);
  text.replace(homes, 9, "homes = 3");
  expect_scn_error(text, "zero-home regions");
}

TEST(FleetScnLoader, RejectsEventRegionsOutsideThePlan) {
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nregions = 2\nfcm_outage = 2 10 5\n",
                   "region");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nwan_degrade = 1 10 5\n",
                   "region");  // default regions = 1
}

TEST(FleetScnLoader, RejectsOverlappingRegionalWindows) {
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nregions = 2\n"
                       "fcm_outage = 0 10 10\nfcm_outage = 0 15 10\n",
                   "overlap");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nregions = 2\n"
                       "wan_degrade = 1 10 10\nwan_degrade = 1 12 3\n",
                   "overlap");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\n"
                       "cloud_capacity = 10 10 rst spread_s=10\n"
                       "cloud_capacity = 25 5 norst\n",
                   "overlap");
}

TEST(FleetScnLoader, RejectsBadFractionsAndJitter) {
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\ncloud_capacity = 10 5 rst fraction=0\n",
                   "fraction");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nrestart_wave = 10 5 fraction=1.5\n",
                   "fraction");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nfcm_retry_jitter = 1\n",
                   "fcm_retry_jitter");
}

TEST(FleetScnLoader, RejectsFleetWindowsCollidingWithBaseFaults) {
  // The base [faults] applies to every home, so a fleet fcm window may meet
  // it in any region — the loader rejects the collision with both lines.
  std::string text{kScriptedBase};
  const auto pop = text.find("[population]");
  ASSERT_NE(pop, std::string::npos);
  text.insert(pop, "[faults]\nfcm = 12 10 drop=0.5\n\n");
  expect_scn_error(text + kFleetSection, "collides with the base [faults]");
}

TEST(FleetScnLoader, PinsTheLineOfEveryFaultRuleRejection) {
  // Lines 1-7; each case's lines start at line 8.
  const std::string head =
      "[scenario]\nname = x\n[home]\nowners = 1\n[schedule]\n"
      "command = 10 legit\ndrain_s = 60\n";
  struct Case {
    const char* lines;
    int line;
    const char* message;
  };
  const Case cases[] = {
      {"[faults]\nlink = lan flap 60 30\nlink = lan flap 65 2\n", 10,
       "link-fault window starting at 65.000000 s overlaps the one from "
       "line 9"},
      {"[faults]\ncloud = 10 20 rst\ncloud = 25 5 rst\n", 10,
       "cloud-outage window starting at 25.000000 s overlaps the one from "
       "line 9"},
      {"[faults]\nbrownout = 10 20 extra_ms=100\n"
       "brownout = 15 5 extra_ms=50\n",
       10,
       "cloud-brownout window starting at 15.000000 s overlaps the one from "
       "line 9"},
      {"[faults]\nfcm = 10 20\nfcm = 15 1\n", 10,
       "fcm-fault window starting at 15.000000 s overlaps the one from "
       "line 9"},
      {"[faults]\ndevice = 0 10 0\ndevice = 0 500 5\n", 10,
       "device-fault window starting at 500.000000 s overlaps the one from "
       "line 9"},
      {"[faults]\ndevice = 1 10 5\n", 9,
       "device index 1 out of range (1 owner devices)"},
      {"[faults]\nrestart = 30\nrestart = 30\n", 10,
       "duplicate guard restart instant"},
      {"[faults]\nfcm = 12 10 drop=0.5\n[population]\nhomes = 4\n"
       "[fleet_faults]\nfcm_outage = 0 10 8\n",
       13, "fcm_outage window collides with the base [faults] window from "
           "line 9"},
      {"[faults]\ncloud = 30 10 rst\n[population]\nhomes = 4\n"
       "[fleet_faults]\ncloud_capacity = 20 5 rst spread_s=10\n",
       13, "cloud_capacity window collides with the base [faults] window from "
           "line 9"},
      {"[faults]\nbrownout = 22 2 extra_ms=100\n[population]\nhomes = 4\n"
       "[fleet_faults]\ncloud_capacity = 20 5 rst extra_ms=50\n",
       13, "cloud_capacity brownout window collides with the base [faults] "
           "window from line 9"},
      {"[faults]\nlink = wan latency 12 5 extra_ms=100\n[population]\n"
       "homes = 4\n[fleet_faults]\nwan_degrade = 0 10 5\n",
       13, "wan_degrade window collides with the base [faults] window from "
           "line 9"},
      {"[population]\nhomes = 2\n[fleet_faults]\nregions = 3\n", 11,
       "3 regions exceed the population's 2 homes"},
      {"[population]\nhomes = 2\n[fleet_faults]\nregions = 2\n"
       "fcm_outage = 2 10 5\n",
       12, "region 2 out of range (2 regions)"},
      {"[population]\nhomes = 2\n[fleet_faults]\nwan_degrade = 1 10 5\n", 11,
       "region 1 out of range (1 regions)"},
      {"[population]\nhomes = 2\n[fleet_faults]\nregions = 2\n"
       "fcm_outage = 0 10 10\nfcm_outage = 0 15 10\n",
       13, "regional fcm-outage window starting at 15.000000 s overlaps the "
           "one from line 12"},
      {"[population]\nhomes = 2\n[fleet_faults]\n"
       "cloud_capacity = 10 10 rst spread_s=10\ncloud_capacity = 25 5 norst\n",
       12, "cloud-capacity window starting at 25.000000 s overlaps the one "
           "from line 11"},
      {"[population]\nhomes = 2\n[fleet_faults]\nregions = 2\n"
       "wan_degrade = 1 10 10\nwan_degrade = 1 12 3\n",
       13, "regional wan-degrade window starting at 12.000000 s overlaps the "
           "one from line 12"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.lines);
    try {
      (void)scenario::ScenarioLoader::load(head + c.lines);
      ADD_FAILURE() << "expected ScnError containing '" << c.message << "'";
    } catch (const scenario::ScnError& e) {
      EXPECT_EQ(e.line(), c.line) << e.what();
      EXPECT_NE(std::string{e.what()}.find(c.message), std::string::npos)
          << "got: " << e.what();
    }
  }
}

TEST(FleetScnLoader, OverlapVerdictDoesNotDependOnLineOrder) {
  // Region 0's [20, 20) ends where [20, 30) starts: no overlap, in either
  // order.
  const std::string head =
      "[scenario]\nname = x\n[home]\nowners = 1\n[schedule]\n"
      "command = 10 legit\ndrain_s = 60\n[population]\nhomes = 4\n"
      "[fleet_faults]\nregions = 2\n";
  for (const char* outages : {"fcm_outage = 0 20 10\nfcm_outage = 0 20 0\n",
                              "fcm_outage = 0 20 0\nfcm_outage = 0 20 10\n"}) {
    SCOPED_TRACE(outages);
    EXPECT_EQ(scenario::ScenarioLoader::load(head + outages)
                  .fleet_faults.fcm_outages.size(),
              2u);
  }
}

TEST(FleetScnLoader, ForbiddenOutsideScriptedHomePopulations) {
  expect_scn_error(
      "[scenario]\nname = cap\n[schedule]\ncommands = 4\n"
      "[fleet_faults]\nregions = 2\n",
      "fleet_faults");
}

// ---------------------------------------------------------------------------
// Integration: orchestrated populations keep bit-exact serial/sharded parity
// and every home recovers before the horizon.

TEST(FleetFaultIntegration, OrchestratedParityAcrossShardLayouts) {
  const WorldTemplate tmpl{storm_spec()};
  ASSERT_NE(tmpl.orchestrator(), nullptr);
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());
  // Pinned as a literal: sharded-vs-serial parity alone would pass a change
  // that moves every layout the same way.
  EXPECT_EQ(serial.fingerprint(), 8031962011589378937ull);

  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const unsigned workers : {0u, 1u}) {
      FleetConfig cfg;
      cfg.shards = shards;
      cfg.workers = workers;
      const AggregateStats fleet = run_fleet(tmpl, cfg);
      EXPECT_TRUE(fleet == serial)
          << shards << " shards, " << workers
          << " worker(s): fingerprint " << fleet.fingerprint() << " != "
          << serial.fingerprint();
    }
  }
}

TEST(FleetFaultIntegration, StormOrchestratesAndEveryHomeRecovers) {
  const WorldTemplate tmpl{storm_spec()};
  const AggregateStats stats = run_fleet_serial(tmpl, 0, tmpl.homes());

  // The capacity brownout touches every home, so the whole fleet counts as
  // orchestrated; the rst refusals force real session re-establishment.
  EXPECT_EQ(stats.counters().orchestrated_homes, tmpl.homes());
  EXPECT_GT(stats.counters().orchestrated_faults, 0u);
  EXPECT_EQ(stats.counters().unrecovered_homes, 0u);
  EXPECT_EQ(stats.recovery_samples(), tmpl.homes());

  // Degradation counters cover exactly the orchestrated homes, region by
  // region.
  std::uint64_t degraded = 0;
  for (const std::uint64_t d : stats.region_degraded()) degraded += d;
  EXPECT_EQ(degraded, stats.counters().orchestrated_homes);
}

TEST(FleetFaultIntegration, ResiliencePolicyReachesTheHomes) {
  // Same capacity crunch with and without the resilience policy: the backoff
  // scales the post-refusal reconnect waits, so each affected home's final
  // establishment — and with it the recovery histogram — must shift. This is
  // proof the policy is actually plumbed from the template into each home.
  // The storm's restart wave is dropped for this comparison: a power cycle
  // after the crunch would re-establish every session at wave-driven times
  // and wash the backoff shift out of the recorded stats.
  std::string text = std::string{kScriptedBase} + kFleetSection;
  const std::string wave = "restart_wave = 45 5 fraction=0.5\n";
  text.replace(text.find(wave), wave.size(), "");
  const scenario::ScenarioSpec with = scenario::ScenarioLoader::load(text);
  scenario::ScenarioSpec without = with;
  without.fleet_faults.resilience = {};

  const AggregateStats a = run_fleet_serial(WorldTemplate{with}, 0, 8);
  const AggregateStats b = run_fleet_serial(WorldTemplate{without}, 0, 8);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // The backoff only slows the refused homes down, never faster, and in both
  // runs every home still recovers before the horizon.
  EXPECT_GE(a.time_to_fleet_recovery_ns(), b.time_to_fleet_recovery_ns());
  EXPECT_EQ(a.counters().unrecovered_homes, 0u);
  EXPECT_EQ(b.counters().unrecovered_homes, 0u);
}

}  // namespace
}  // namespace vg::fleet
