/// Unit tests for the home substrate: people, devices, PIR sensor, FCM.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "home/Fcm.h"
#include "home/MobileDevice.h"
#include "home/MotionSensor.h"
#include "home/Person.h"
#include "home/Testbed.h"
#include "testutil/PolledMotionSensor.h"

namespace vg::home {
namespace {

// ---------------------------------------------------------------------------
// Person
// ---------------------------------------------------------------------------

TEST(Person, PositionInterpolatesDuringWalk) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 1.1}};
  p.walk_to({10, 0, 1.1}, 2.0);  // 5 seconds of walking
  EXPECT_TRUE(p.moving());
  sim.run_until(sim::TimePoint{} + sim::from_seconds(2.5));
  const auto mid = p.position();
  EXPECT_NEAR(mid.x, 5.0, 1e-9);
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_NEAR(p.position().x, 10.0, 1e-9);
  EXPECT_FALSE(p.moving());
}

TEST(Person, FollowPathVisitsWaypointsAndCallsDone) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  bool done = false;
  p.follow_path({{3, 0, 0}, {3, 4, 0}}, 1.0, [&] { done = true; });
  sim.run_all();
  EXPECT_TRUE(done);
  EXPECT_NEAR(p.position().y, 4.0, 1e-9);
  // Total walk took distance/speed = 7 s.
  EXPECT_NEAR(sim.now().seconds(), 7.0, 1e-6);
}

TEST(Person, NewWalkCancelsPrevious) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  bool first_done = false, second_done = false;
  p.walk_to({100, 0, 0}, 1.0, [&] { first_done = true; });
  sim.run_until(sim::TimePoint{} + sim::seconds(2));
  p.walk_to({0, 5, 0}, 1.0, [&] { second_done = true; });
  sim.run_all();
  EXPECT_FALSE(first_done);  // superseded
  EXPECT_TRUE(second_done);
  EXPECT_NEAR(p.position().y, 5.0, 1e-9);
}

TEST(Person, TeleportStopsMovement) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  bool done = false;
  p.walk_to({10, 0, 0}, 1.0, [&] { done = true; });
  sim.run_until(sim::TimePoint{} + sim::seconds(1));
  p.teleport({7, 7, 7});
  sim.run_all();
  EXPECT_FALSE(done);
  EXPECT_FALSE(p.moving());
  EXPECT_NEAR(p.position().z, 7.0, 1e-9);
}

TEST(Person, WalkFromCurrentMidpointPosition) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  p.walk_to({10, 0, 0}, 1.0);
  sim.run_until(sim::TimePoint{} + sim::seconds(4));
  // Redirect mid-walk: new segment starts at (4,0,0).
  p.walk_to({4, 3, 0}, 1.0);
  sim.run_until(sim.now() + sim::seconds(3));
  EXPECT_NEAR(p.position().x, 4.0, 1e-9);
  EXPECT_NEAR(p.position().y, 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// MotionSensor
// ---------------------------------------------------------------------------

struct SensorFixture : ::testing::Test {
  sim::Simulation sim{3};
  Person p{sim, "p", {-2, 1, 1.5}};
  MotionSensor::Options opts;
  radio::Rect region{0, 0, 2, 2};

  int events = 0;

  void arm(MotionSensor& s) {
    s.watch(p);
    s.subscribe([this] { ++events; });
    s.start();
  }
};

TEST_F(SensorFixture, FiresOncePerCrossing) {
  MotionSensor s{sim, region, opts};
  arm(s);
  p.walk_to({4, 1, 1.5}, 1.0);  // crosses the region once
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_EQ(events, 1);
  EXPECT_EQ(s.activations(), 1u);
}

TEST_F(SensorFixture, StationaryPersonInsideDoesNotFire) {
  p.teleport({1, 1, 1.5});
  MotionSensor s{sim, region, opts};
  arm(s);
  sim.run_until(sim::TimePoint{} + sim::seconds(5));
  EXPECT_EQ(events, 0);
}

TEST_F(SensorFixture, SecondCrossingAfterCooldownFires) {
  MotionSensor s{sim, region, opts};
  arm(s);
  p.walk_to({4, 1, 1.5}, 1.0, [this] {
    sim.after(sim::seconds(5), [this] { p.walk_to({-2, 1, 1.5}, 1.0); });
  });
  sim.run_until(sim::TimePoint{} + sim::seconds(30));
  EXPECT_EQ(events, 2);
}

TEST_F(SensorFixture, ZRangeFiltersOtherFloors) {
  MotionSensor::Options zopts;
  zopts.z_min = 1.0;
  zopts.z_max = 3.0;
  MotionSensor s{sim, region, zopts};
  arm(s);
  // Person "walks across the stairwell footprint" on the upper floor.
  p.teleport({-2, 1, 3.9});
  p.walk_to({4, 1, 3.9}, 1.0);
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_EQ(events, 0);
  // Now through the covered band.
  p.teleport({-2, 1, 2.0});
  p.walk_to({4, 1, 2.0}, 1.0);
  sim.run_until(sim.now() + sim::seconds(10));
  EXPECT_EQ(events, 1);
}

TEST_F(SensorFixture, TriggerLatencyDelaysEvent) {
  MotionSensor s{sim, region, opts};
  s.watch(p);
  sim::TimePoint fired;
  s.subscribe([&] { fired = sim.now(); });
  s.start();
  p.walk_to({4, 1, 1.5}, 2.0);  // enters region at t=1s
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_GE((fired - sim::TimePoint{}).seconds(), 1.0 + 0.35 - 0.05);
}

TEST_F(SensorFixture, StationaryPersonCostsAtMostOneEventPerHour) {
  // A polled sensor runs 18,000 samples an hour here; a sleeping one stops
  // after the first sample that finds nobody moving.
  MotionSensor s{sim, region, opts};
  arm(s);
  EXPECT_LE(sim.run_until(sim.now() + sim::hours(1)), 1u);
  EXPECT_EQ(events, 0);
}

TEST_F(SensorFixture, SensorDestroyedBeforeItsPeopleLeavesThemSafeToMove) {
  {
    MotionSensor s{sim, region, opts};
    arm(s);
    p.walk_to({4, 1, 1.5}, 1.0);
    // Mid-walk: a sample is pending when the sensor goes away.
    sim.run_until(sim.now() + sim::milliseconds(500));
  }
  p.teleport({-2, 1, 1.5});
  p.walk_to({4, 1, 1.5}, 1.0);
  sim.run_until(sim.now() + sim::seconds(10));
  EXPECT_FALSE(p.moving());
  EXPECT_EQ(events, 0);
}

TEST(MotionSensor, PersonDestroyedBeforeTheSensorIsForgotten) {
  sim::Simulation sim{3};
  MotionSensor s{sim, {0, 0, 2, 2}};
  Person stays{sim, "stays", {-2, 1, 1.5}};
  s.watch(stays);
  s.start();
  stays.walk_to({4, 1, 1.5}, 1.0);  // keeps the sensor sampling throughout
  {
    Person leaves{sim, "leaves", {-3, 1, 1.5}};
    s.watch(leaves);
    leaves.walk_to({-2.5, 1, 1.5}, 1.0);  // arrives after 0.5 s
    sim.run_until(sim.now() + sim::seconds(1));
  }
  sim.run_until(sim.now() + sim::seconds(10));
  EXPECT_EQ(s.activations(), 1u);
}

TEST(MotionSensor, RejectsANonPositivePollInterval) {
  sim::Simulation sim{3};
  MotionSensor::Options opts;
  opts.poll_interval = sim::Duration{0};
  EXPECT_THROW((MotionSensor{sim, {0, 0, 2, 2}, opts}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MotionSensor against the polled reference
//
// The sleeping sensor must report exactly what a sensor sampling every tick
// of its grid reports. Each seeded script runs both in one Simulation over
// the same people: a toy two-floor house (floors at z = 1.1 and 3.9) whose
// stair core is covered over the band between the floors.
//
// Two script shapes are known to make the two differ, and the generator
// avoids both (no caller in src/ produces either):
//  - a teleport into the covered volume made by code running exactly on a
//    tick, between run_until calls. The polled sensor sampled that tick
//    before the teleport, the woken one samples it after, so the two learn
//    that the person is inside one tick apart, and a walk starting within
//    that tick fires on different ticks (or only in one of them).
//    Teleports into the volume here come from scheduled events, or from
//    code running off the grid.
//  - a second motion change landing exactly on the first tick after a wake,
//    from an event queued after the polled sensor queued that tick's sample
//    but before the wake (scheduled exactly one interval ahead of the tick).
//    The two samples then run on opposite sides of the change. Scheduled
//    changes here are queued more than one interval ahead.
// ---------------------------------------------------------------------------

constexpr double kGround = 1.1;
constexpr double kUpper = 3.9;
constexpr radio::Rect kStairCore{0, 0, 2, 4};
constexpr radio::Vec3 kBottomLanding{1, -0.6, kGround};
constexpr radio::Vec3 kTopLanding{1, 4.6, kUpper};

struct ScriptRun {
  std::vector<std::int64_t> sleeping_fired_ns;  // subscriber callback times
  std::vector<std::int64_t> polled_fired_ns;
  std::uint64_t sleeping_activations = 0;
  std::uint64_t polled_activations = 0;
  std::uint64_t suppressed = 0;        // entries the cooldown swallowed
  std::uint64_t on_tick_changes = 0;   // motion changes exactly on a tick
};

/// A motion change with its parameters drawn when it is made, applied later.
struct Change {
  std::function<void()> apply;
  bool into_coverage = false;  // a teleport into the covered volume
};

/// One seeded script: 1-3 people, 6-19 motion changes (teleports to floor
/// height and into the stair core, multi-segment floor walks, stair walks
/// as one path or as chained walk_to legs, fast back-and-forth crossings of
/// the stair core at band height, some ending inside it), 0-120 s idle gaps,
/// changes at random times and exactly on grid ticks, applied between
/// run_until calls or from events scheduled more than one interval ahead
/// (some followed by a second change of the same person within two ticks).
ScriptRun run_differential_script(std::uint64_t seed) {
  sim::Rng rng{seed};
  sim::Simulation sim{seed};
  MotionSensor::Options opts;
  opts.poll_interval = sim::milliseconds(rng.pick<std::int64_t>({100, 200, 200, 350}));
  opts.cooldown = sim::milliseconds(rng.pick<std::int64_t>({0, 2000, 2000, 5000}));
  opts.z_min = kGround + 0.3;
  opts.z_max = kUpper - 0.3;
  const sim::Duration tick = opts.poll_interval;

  // The house spans [-4, 8] x [-4, 8].
  auto floor_spot = [&rng](double z) {
    return radio::Vec3{rng.uniform(-4, 8), rng.uniform(-4, 8), z};
  };
  auto random_floor = [&rng] { return rng.chance(0.5) ? kGround : kUpper; };
  auto band_height = [&] { return rng.uniform(opts.z_min + 0.1, opts.z_max - 0.1); };
  auto covered_spot = [&] {
    return radio::Vec3{rng.uniform(0.2, 1.8), rng.uniform(0.2, 3.8), band_height()};
  };

  std::vector<std::unique_ptr<Person>> people;
  const std::size_t n = 1 + rng.index(3);
  for (std::size_t i = 0; i < n; ++i) {
    people.push_back(std::make_unique<Person>(sim, "p" + std::to_string(i),
                                              floor_spot(random_floor())));
  }

  ScriptRun out;
  MotionSensor sleeping{sim, kStairCore, opts};
  testutil::PolledMotionSensor polled{sim, kStairCore, opts};
  for (auto& p : people) {
    sleeping.watch(*p);
    polled.watch(*p);
  }
  sleeping.subscribe([&] { out.sleeping_fired_ns.push_back(sim.now().ns()); });
  polled.subscribe([&] { out.polled_fired_ns.push_back(sim.now().ns()); });

  auto anyone = [&] { return people[rng.index(people.size())].get(); };
  auto make_change = [&](Person* who) -> Change {
    const double speed = rng.uniform(0.5, 1.6);
    switch (rng.index(4)) {
      case 0: {
        const bool inside = rng.chance(0.3);
        const radio::Vec3 to = inside ? covered_spot() : floor_spot(random_floor());
        return {[who, to] { who->teleport(to); }, inside};
      }
      case 1: {
        const double z = random_floor();
        std::vector<radio::Vec3> path;
        for (std::size_t k = 1 + rng.index(4); k > 0; --k) {
          path.push_back(floor_spot(z));
        }
        return {[who, path, speed] { who->follow_path(path, speed); }};
      }
      case 2: {
        const bool up = rng.chance(0.5);
        const radio::Vec3 from = up ? kBottomLanding : kTopLanding;
        const radio::Vec3 to = up ? kTopLanding : kBottomLanding;
        const radio::Vec3 target = floor_spot(up ? kUpper : kGround);
        const double stair_speed = rng.uniform(0.4, 1.0);
        if (rng.chance(0.5)) {
          return {[who, from, to, target, speed] {
            who->follow_path({from, to, target}, speed);
          }};
        }
        // Chained legs, the shape SmartHomeWorld::move_person uses.
        return {[who, from, to, target, speed, stair_speed] {
          who->walk_to(from, speed, [who, to, target, speed, stair_speed] {
            who->walk_to(to, stair_speed, [who, target, speed] {
              who->walk_to(target, speed);
            });
          });
        }};
      }
      default: {
        // Back and forth across the stair core at band height: entries a
        // cooldown apart or closer. The turning points lie beside the core;
        // a third of the walks then stop inside it.
        const double y = rng.uniform(0.2, 3.8);
        const double z = band_height();
        std::vector<radio::Vec3> path;
        for (std::size_t k = 2 + rng.index(5); k > 0; --k) {
          path.push_back({k % 2 == 0 ? -0.6 : 2.6, y, z});
        }
        if (rng.chance(0.3)) path.push_back({1.0, y, z});
        return {[who, path, speed] { who->follow_path(path, speed * 2); }};
      }
    }
  };

  const sim::TimePoint start =
      sim::TimePoint{} + sim::milliseconds(rng.uniform_int(0, 3000));
  // The first tick at or after t (before start, the grid does not exist).
  auto tick_at_or_after = [&](sim::TimePoint t) {
    const std::int64_t k = ((t - start).ns() + tick.ns() - 1) / tick.ns();
    return start + tick * std::max<std::int64_t>(k, 0);
  };
  auto is_tick = [&](sim::TimePoint t) {
    return t >= start && (t - start).ns() % tick.ns() == 0;
  };

  if (rng.chance(0.3)) make_change(anyone()).apply();  // moving at start
  sim.run_until(start);
  sleeping.start();
  polled.start();

  for (std::size_t c = 6 + rng.index(14); c > 0; --c) {
    const sim::TimePoint now = sim.now();
    sim::TimePoint at = now;
    if (!rng.chance(0.15)) {
      at = at + sim::Duration{rng.uniform_int(0, sim::seconds(120).ns())};
    }
    const bool on_tick = rng.chance(0.4);
    if (on_tick) at = tick_at_or_after(at);
    Person* who = anyone();
    Change change = make_change(who);
    if (rng.chance(0.5)) {
      // From code between run_until calls, as ExperimentDriver and the
      // calibration walks move people; never a teleport into the covered
      // volume exactly on a tick (the first shape above).
      if (change.into_coverage && is_tick(at)) at = at + sim::Duration{1};
      sim.run_until(at);
      out.on_tick_changes += is_tick(sim.now()) ? 1 : 0;
      change.apply();
    } else {
      // From an event scheduled more than one interval ahead, as the fleet
      // scripts pre-schedule their teleports.
      at = std::max(at, now + tick + sim::Duration{1});
      if (on_tick) at = tick_at_or_after(at);
      out.on_tick_changes += is_tick(at) ? 1 : 0;
      sim.at(at, std::move(change.apply));
      if (rng.chance(0.3)) {
        // The same person changes course again within two ticks.
        sim::TimePoint again = at + sim::Duration{rng.uniform_int(0, 2 * tick.ns())};
        if (rng.chance(0.4)) again = tick_at_or_after(again);
        out.on_tick_changes += is_tick(again) ? 1 : 0;
        sim.at(again, std::move(make_change(who).apply));
      }
    }
  }
  sim.run_until(sim.now() + sim::minutes(3));

  out.sleeping_activations = sleeping.activations();
  out.polled_activations = polled.activations();
  out.suppressed = polled.suppressed();
  return out;
}

TEST(MotionSensorDifferential, MatchesThePolledSensorOnSeededScripts) {
  constexpr std::uint64_t kScripts = 2000;
  std::uint64_t fired = 0, suppressed = 0, on_tick = 0;
  for (std::uint64_t seed = 1; seed <= kScripts; ++seed) {
    const ScriptRun r = run_differential_script(seed);
    ASSERT_EQ(r.sleeping_fired_ns, r.polled_fired_ns) << "seed " << seed;
    ASSERT_EQ(r.sleeping_activations, r.polled_activations) << "seed " << seed;
    fired += r.polled_fired_ns.size();
    suppressed += r.suppressed;
    on_tick += r.on_tick_changes;
  }
  // The scripts must reach every behaviour they claim to: activations,
  // cooldown collisions and on-tick motion changes.
  EXPECT_GT(fired, kScripts);
  EXPECT_GT(suppressed, kScripts / 10);
  EXPECT_GT(on_tick, kScripts);
}

/// The two shapes named above, built by hand: both sensors watch one person
/// in the toy house, \p script moves them, and the subscriber times of the
/// sleeping and the polled sensor come back in that order.
std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>> run_named_shape(
    radio::Vec3 start, const std::function<void(sim::Simulation&, Person&)>& script) {
  sim::Simulation sim{1};
  MotionSensor::Options opts;
  opts.z_min = kGround + 0.3;
  opts.z_max = kUpper - 0.3;
  Person p{sim, "p", start};
  MotionSensor sleeping{sim, kStairCore, opts};
  testutil::PolledMotionSensor polled{sim, kStairCore, opts};
  std::vector<std::int64_t> sleeping_ns, polled_ns;
  sleeping.watch(p);
  polled.watch(p);
  sleeping.subscribe([&] { sleeping_ns.push_back(sim.now().ns()); });
  polled.subscribe([&] { polled_ns.push_back(sim.now().ns()); });
  sleeping.start();
  polled.start();
  script(sim, p);
  sim.run_until(sim.now() + sim::seconds(30));
  return {sleeping_ns, polled_ns};
}

TEST(MotionSensorDifferential, TheNamedShapesAreWhereTheSensorsDiffer) {
  // Keeps the documented boundary of the equivalence honest. Should the
  // sensors ever agree on these shapes, drop them from the list above and
  // from DESIGN.md.
  const sim::TimePoint tick5 = sim::TimePoint{} + sim::seconds(1);

  // 1. Teleport into the covered volume by code running on a tick, then a
  //    walk inside it: the woken sensor samples that tick after the move,
  //    the polled one sampled it before and sees the walk a tick later.
  const auto [woken1, polled1] =
      run_named_shape({-2, 1, kGround}, [&](sim::Simulation& sim, Person& p) {
        sim.run_until(tick5);
        p.teleport({1, 2, 2.5});
        p.walk_to({1, 3, 2.5}, 1.0);
      });
  EXPECT_EQ(woken1, (std::vector<std::int64_t>{sim::milliseconds(1350).ns()}));
  EXPECT_EQ(polled1, (std::vector<std::int64_t>{sim::milliseconds(1550).ns()}));

  // 2. A teleport queued on a tick exactly one interval ahead (after the
  //    polled sensor queued its next sample), then a walk into the volume
  //    that wakes the sleeping sensor before that tick: the polled sample
  //    sees the walker inside, the woken one sees the teleport first.
  const auto [woken2, polled2] = run_named_shape(
      {-0.05, 2, 2.5}, [&](sim::Simulation& sim, Person& p) {
        sim.run_until(tick5);
        sim.at(tick5 + sim::milliseconds(200), [&p] { p.teleport({-2, 1, kGround}); });
        sim.run_until(tick5 + sim::milliseconds(100));
        p.walk_to({4, 2, 2.5}, 1.0);
      });
  EXPECT_TRUE(woken2.empty());
  EXPECT_EQ(polled2, (std::vector<std::int64_t>{sim::milliseconds(1550).ns()}));
}

// ---------------------------------------------------------------------------
// MobileDevice
// ---------------------------------------------------------------------------

TEST(MobileDevice, PutDownOverridesCarrier) {
  sim::Simulation sim{5};
  Testbed tb = Testbed::two_floor_house();
  Person owner{sim, "o", tb.location(1).pos};
  MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "phone",
                     [&] { return owner.position(); }};
  EXPECT_FALSE(phone.is_placed());
  phone.put_down(tb.location(33).pos);
  owner.teleport(tb.location(5).pos);
  EXPECT_TRUE(phone.is_placed());
  EXPECT_NEAR(phone.position().x, tb.location(33).pos.x, 1e-9);
  phone.pick_up();
  EXPECT_NEAR(phone.position().x, tb.location(5).pos.x, 1e-9);
}

TEST(MobileDevice, MeasureRequestIncludesScanAndUplinkLatency) {
  sim::Simulation sim{5};
  Testbed tb = Testbed::two_floor_house();
  Person owner{sim, "o", tb.location(1).pos};
  MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "phone",
                     [&] { return owner.position(); }};
  radio::BluetoothBeacon beacon{"spk", tb.speaker_position(1)};
  sim::TimePoint reported;
  double rssi = 0;
  phone.handle_measure_request(beacon, [&](double r) {
    rssi = r;
    reported = sim.now();
  });
  sim.run_all();
  const double t = (reported - sim::TimePoint{}).seconds();
  EXPECT_GE(t, 0.2 + 0.04);  // scan min + uplink min
  EXPECT_LE(t, 0.9 + 0.18);
  EXPECT_LT(rssi, 5.0);
  EXPECT_GT(rssi, -20.0);
}

TEST(MobileDevice, TokenDerivedFromName) {
  sim::Simulation sim{5};
  Testbed tb = Testbed::apartment();
  Person owner{sim, "o", tb.location(1).pos};
  MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "pixel-5",
                     [&] { return owner.position(); }};
  EXPECT_EQ(phone.fcm_token(), "fcm:pixel-5");
}

// ---------------------------------------------------------------------------
// FCM
// ---------------------------------------------------------------------------

TEST(Fcm, DeliversPayloadToRegisteredDevice) {
  sim::Simulation sim{7};
  FcmService fcm{sim};
  std::string got;
  fcm.register_device("tok", [&](const std::string& p) { got = p; });
  fcm.push("tok", "measure:42");
  sim.run_all();
  EXPECT_EQ(got, "measure:42");
}

TEST(Fcm, ReRegistrationReplacesHandler) {
  sim::Simulation sim{7};
  FcmService fcm{sim};
  int first = 0, second = 0;
  fcm.register_device("tok", [&](const std::string&) { ++first; });
  fcm.register_device("tok", [&](const std::string&) { ++second; });
  fcm.push("tok", "x");
  sim.run_all();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Fcm, InFlightPushUsesHandlerAtSendTime) {
  sim::Simulation sim{7};
  FcmService fcm{sim};
  int first = 0, second = 0;
  fcm.register_device("tok", [&](const std::string&) { ++first; });
  fcm.push("tok", "x");
  // Re-register while the push is in flight: the in-flight push was already
  // addressed to the old app instance.
  fcm.register_device("tok", [&](const std::string&) { ++second; });
  sim.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

}  // namespace
}  // namespace vg::home
