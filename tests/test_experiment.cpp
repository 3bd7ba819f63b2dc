#include <gtest/gtest.h>

#include "workload/Experiment.h"

namespace vg::workload {
namespace {

/// A shortened (20-hour) version of the §V-B3 protocol. The full 7-day runs
/// live in the bench binaries; this guards the machinery and the headline
/// quality bar.
TEST(Experiment, ShortRunReproducesPaperShape) {
  WorldConfig cfg;
  cfg.testbed = WorldConfig::TestbedKind::kHouse;
  cfg.speaker = WorldConfig::SpeakerType::kEchoDot;
  cfg.owner_count = 2;
  cfg.seed = 2023;
  SmartHomeWorld world{cfg};
  world.calibrate();

  ExperimentConfig ecfg;
  ecfg.duration = sim::hours(20);
  ecfg.episode_mean = sim::minutes(18);
  ExperimentDriver driver{world, ecfg};
  driver.run();

  ASSERT_GE(driver.outcomes().size(), 25u);
  EXPECT_GT(driver.legit_issued(), 10u);
  EXPECT_GT(driver.malicious_issued(), 5u);

  const auto m = driver.confusion();
  // Paper headline: accuracy > 97 %, recall ~100 %. A short run has few
  // samples, so require a slightly softer bar.
  EXPECT_GE(m.accuracy(), 0.90) << m.to_string();
  EXPECT_GE(m.recall(), 0.90) << m.to_string();
  // Owners were rarely blocked.
  EXPECT_LE(m.fp, m.tn / 5 + 2) << m.to_string();
}

TEST(Experiment, OutcomesCarryGroundTruth) {
  WorldConfig cfg;
  cfg.testbed = WorldConfig::TestbedKind::kApartment;
  cfg.speaker = WorldConfig::SpeakerType::kEchoDot;
  cfg.owner_count = 1;
  cfg.seed = 5;
  SmartHomeWorld world{cfg};
  world.calibrate();

  ExperimentConfig ecfg;
  ecfg.duration = sim::hours(6);
  ecfg.episode_mean = sim::minutes(15);
  ExperimentDriver driver{world, ecfg};
  driver.run();

  ASSERT_FALSE(driver.outcomes().empty());
  for (const auto& o : driver.outcomes()) {
    EXPECT_GT(o.id, 0u);
    EXPECT_FALSE(o.issuer.empty());
    if (o.malicious) {
      EXPECT_EQ(o.issuer, "attacker");
    } else {
      EXPECT_NE(o.issuer, "attacker");
    }
  }
  EXPECT_EQ(driver.outcomes().size(),
            driver.legit_issued() + driver.malicious_issued());
}

}  // namespace
}  // namespace vg::workload

namespace vg::workload {
namespace {

TEST(Experiment, DeterministicForFixedSeed) {
  using Outcomes = std::vector<std::tuple<std::uint64_t, bool, bool>>;
  auto run_once = [](std::uint64_t& events) {
    WorldConfig cfg;
    cfg.testbed = WorldConfig::TestbedKind::kApartment;
    cfg.owner_count = 1;
    cfg.seed = 77;
    SmartHomeWorld world{cfg};
    world.calibrate();
    ExperimentConfig ecfg;
    ecfg.duration = sim::hours(6);
    ecfg.episode_mean = sim::minutes(15);
    ExperimentDriver driver{world, ecfg};
    driver.run();
    events = world.sim().executed_events();
    Outcomes out;
    for (const auto& o : driver.outcomes()) {
      out.emplace_back(o.id, o.malicious, o.executed);
    }
    return out;
  };
  std::uint64_t events_a = 0;
  std::uint64_t events_b = 0;
  const auto a = run_once(events_a);
  const auto b = run_once(events_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(events_a, events_b);

  // Pinned as literals (id, malicious, executed), like the golden .vgt
  // corpus: a change that moves both runs the same way still fails here.
  const Outcomes want = {
      {1, true, false},
      {2, false, true},
      {3, false, true},
      {4, false, true},
      {5, false, true},
      {6, true, false},
      {7, false, true},
      {8, true, false},
      {9, false, true},
      {10, false, true},
      {11, false, true},
      {12, false, true},
      {13, false, true},
      {14, true, false},
      {15, true, false},
      {16, true, false},
      {17, false, true},
      {18, true, false},
      {19, false, true},
  };
  EXPECT_EQ(a, want);
  EXPECT_EQ(events_a, 17211u);
}

TEST(Experiment, NightRoutineKeepsOwnersOutOfTheLegitAreaOvernight) {
  WorldConfig cfg;
  cfg.testbed = WorldConfig::TestbedKind::kHouse;
  cfg.deployment = 2;
  cfg.owner_count = 2;
  cfg.seed = 88;
  SmartHomeWorld world{cfg};
  world.calibrate();

  ExperimentConfig ecfg;
  ecfg.duration = sim::days(1);
  ecfg.episode_mean = sim::minutes(25);
  ecfg.night_routine = true;
  ExperimentDriver driver{world, ecfg};
  driver.run();

  // Every night outcome is an attack (owners sleep), and the owners were
  // upstairs/away at issue time.
  int night_outcomes = 0;
  for (const auto& o : driver.outcomes()) {
    const double hour = std::fmod(o.when.seconds() / 3600.0, 24.0);
    if (hour >= 23.0 || hour < 7.0) {
      ++night_outcomes;
      EXPECT_TRUE(o.malicious) << "night command from " << o.issuer;
    }
  }
  EXPECT_EQ(driver.night_attacks(), static_cast<std::uint64_t>(night_outcomes));
  // The daytime protocol still ran.
  EXPECT_GT(driver.legit_issued(), 0u);
}

TEST(Experiment, AttackPolicyNeverFiresWithOwnerInLegitArea) {
  WorldConfig cfg;
  cfg.testbed = WorldConfig::TestbedKind::kApartment;
  cfg.owner_count = 2;
  cfg.seed = 91;
  SmartHomeWorld world{cfg};
  world.calibrate();

  ExperimentConfig ecfg;
  ecfg.duration = sim::hours(12);
  ecfg.episode_mean = sim::minutes(12);
  ExperimentDriver driver{world, ecfg};
  driver.run();

  // The recorded whereabouts of malicious commands never include the
  // speaker's room.
  const std::string& room =
      world.testbed().speaker_room(world.config().deployment);
  for (const auto& o : driver.outcomes()) {
    if (!o.malicious) continue;
    EXPECT_EQ(o.owner_whereabouts.find(room), std::string::npos)
        << o.owner_whereabouts;
  }
}

}  // namespace
}  // namespace vg::workload
