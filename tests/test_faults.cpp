/// The fault-injection subsystem in isolation: link fault windows (flap,
/// Gilbert-Elliott burst, latency spike), FCM degradation windows, device
/// no-response faults, and the FaultInjector's validation / boundary log.
/// The end-to-end chaos matrix lives in test_chaos.cpp.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>

#include "faults/FaultInjector.h"
#include "faults/PlanCheck.h"
#include "home/Fcm.h"
#include "home/MobileDevice.h"
#include "home/Person.h"
#include "home/Testbed.h"
#include "voiceguard/Decision.h"
#include "workload/World.h"

namespace vg::faults {
namespace {

/// A bare link endpoint that records when each packet arrived.
struct RecorderNode : net::NetNode {
  sim::Simulation& sim;
  std::string id;
  std::vector<sim::TimePoint> arrivals;

  RecorderNode(sim::Simulation& s, std::string n) : sim(s), id(std::move(n)) {}
  void receive(net::Packet, net::Link&) override {
    arrivals.push_back(sim.now());
  }
  [[nodiscard]] std::string name() const override { return id; }
};

constexpr sim::TimePoint kEpoch{};

struct LinkFixture : ::testing::Test {
  sim::Simulation sim{11};
  net::Network net{sim};
  RecorderNode a{sim, "a"}, b{sim, "b"};
  net::Link& link = net.add_link(a, b, sim::milliseconds(10));

  void send_at(double t_s) {
    sim.at(kEpoch + sim::from_seconds(t_s), [this] {
      net::Packet p;
      link.send_from(a, std::move(p));
    });
  }
};

TEST_F(LinkFixture, FlapDropsExactlyInsideWindow) {
  // [start, end): the packet at 1.0 is the first casualty, the one at 3.0 the
  // first survivor.
  link.add_flap(kEpoch + sim::seconds(1), kEpoch + sim::seconds(3));
  for (double t : {0.5, 1.0, 2.0, 3.0, 3.5}) send_at(t);
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(link.dropped_packets(), 2u);
  EXPECT_EQ(link.flap_dropped(), 2u);
  EXPECT_EQ(link.burst_dropped(), 0u);
}

TEST_F(LinkFixture, LatencySpikeDelaysButPreservesFifo) {
  // +500 ms inside [1, 2) on a 10 ms link. The packet sent just after the
  // window must still arrive after the spiked one sent just before the edge:
  // the per-direction FIFO clamp forbids reordering at the boundary.
  link.add_latency_spike(kEpoch + sim::seconds(1), kEpoch + sim::seconds(2),
                         sim::milliseconds(500));
  send_at(0.9);   // normal: ~0.910
  send_at(1.0);   // spiked: ~1.510
  send_at(1.9);   // spiked: ~2.410
  send_at(1.95);  // spiked, behind the previous one
  send_at(2.0);   // normal again (~2.010) but clamped behind 2.410+
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 5u);
  for (std::size_t i = 1; i < b.arrivals.size(); ++i) {
    EXPECT_LE(b.arrivals[i - 1], b.arrivals[i]) << "reordered at " << i;
  }
  EXPECT_LT(b.arrivals[0].seconds(), 1.0);
  EXPECT_GE(b.arrivals[1].seconds(), 1.5);
  EXPECT_GE(b.arrivals[4], b.arrivals[3]);
  EXPECT_EQ(link.dropped_packets(), 0u);
}

TEST_F(LinkFixture, WindowValidationRejectsReversedBounds) {
  EXPECT_THROW(link.add_flap(kEpoch + sim::seconds(2), kEpoch + sim::seconds(1)),
               std::invalid_argument);
  EXPECT_THROW(link.add_burst_loss(kEpoch + sim::seconds(2),
                                   kEpoch + sim::seconds(1), {}),
               std::invalid_argument);
  EXPECT_THROW(link.add_latency_spike(kEpoch + sim::seconds(2),
                                      kEpoch + sim::seconds(1),
                                      sim::milliseconds(100)),
               std::invalid_argument);
}

TEST(LinkBurst, GilbertElliottPatternIsSeedDeterministic) {
  // Two sims with the same seed must drop exactly the same packets: the burst
  // chain draws only from the dedicated "net.link.burst" stream.
  const auto run = [](std::uint64_t seed) {
    sim::Simulation sim{seed};
    net::Network net{sim};
    RecorderNode a{sim, "a"}, b{sim, "b"};
    net::Link& link = net.add_link(a, b, sim::milliseconds(10));
    net::GilbertElliott ge;
    ge.p_enter_bad = 0.4;
    ge.p_exit_bad = 0.3;
    link.add_burst_loss(kEpoch + sim::seconds(1), kEpoch + sim::seconds(60),
                        ge);
    for (int i = 0; i < 200; ++i) {
      sim.at(kEpoch + sim::from_seconds(1.05 + 0.25 * i), [&a, &link] {
        net::Packet p;
        link.send_from(a, std::move(p));
      });
    }
    sim.run_all();
    std::vector<double> times;
    times.reserve(b.arrivals.size());
    for (const auto t : b.arrivals) times.push_back(t.seconds());
    return std::pair{times, link.burst_dropped()};
  };

  const auto [times1, dropped1] = run(101);
  const auto [times2, dropped2] = run(101);
  EXPECT_EQ(times1, times2);
  EXPECT_EQ(dropped1, dropped2);
  // With p_enter_bad 0.4 / loss_bad 1.0 the window must eat a real share, but
  // never everything.
  EXPECT_GT(dropped1, 10u);
  EXPECT_LT(dropped1, 200u);
  EXPECT_EQ(times1.size() + dropped1, 200u);
}

TEST(FcmFault, DropWindowDropsThenRecovers) {
  sim::Simulation sim{5};
  home::FcmService fcm{sim};
  int got = 0;
  fcm.register_device("tok", [&](const std::string&) { ++got; });
  fcm.add_fault_window(sim.now(), sim.now() + sim::seconds(1), sim::Duration{},
                       /*drop_prob=*/1.0);
  fcm.push("tok", "in-window");
  sim.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fcm.pushes_dropped(), 1u);

  sim.run_until(kEpoch + sim::seconds(2));  // window over
  fcm.push("tok", "after-window");
  sim.run_all();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fcm.pushes_dropped(), 1u);
  EXPECT_EQ(fcm.pushes_sent(), 2u);
}

TEST(FcmFault, DelayWindowDefersDelivery) {
  sim::Simulation sim{6};
  home::FcmService fcm{sim};
  double delivered_at = -1.0;
  fcm.register_device("tok", [&](const std::string&) {
    delivered_at = sim.now().seconds();
  });
  fcm.add_fault_window(sim.now(), sim.now() + sim::seconds(10),
                       sim::seconds(3), /*drop_prob=*/0.0);
  fcm.push("tok", "slow");
  sim.run_all();
  // Sampled latency in [0.18, 5] plus the 3 s penalty.
  EXPECT_GE(delivered_at, 3.18);
  EXPECT_LE(delivered_at, 8.01);
  EXPECT_EQ(fcm.pushes_dropped(), 0u);
}

TEST(FcmFault, WindowValidationRejectsReversedBounds) {
  sim::Simulation sim{7};
  home::FcmService fcm{sim};
  EXPECT_THROW(fcm.add_fault_window(sim.now() + sim::seconds(1), sim.now(),
                                    sim::Duration{}, 0.0),
               std::invalid_argument);
}

TEST(DeviceFault, UnresponsiveDeviceTimesOutThenRecovers) {
  sim::Simulation sim{21};
  home::Testbed tb = home::Testbed::two_floor_house();
  radio::BluetoothBeacon beacon{"spk", tb.speaker_position(1)};
  home::FcmService fcm{sim};
  guard::RssiDecisionModule module{sim, fcm, beacon};
  const auto spk = tb.speaker_position(1);
  home::Person owner{sim, "owner",
                     {spk.x - 1.5, spk.y + 1.0, tb.plan().device_height(0)}};
  home::MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "phone",
                           [&] { return owner.position(); }};
  module.register_device(phone, -8.0);

  const auto query = [&] {
    bool done = false, verdict = false;
    module.query([&](bool legit) {
      verdict = legit;
      done = true;
    });
    while (!done && sim.pending_events() > 0) sim.step(1);
    EXPECT_TRUE(done);
    return verdict;
  };

  phone.set_responsive(false);
  EXPECT_FALSE(query());  // owner is right there, but the app is dead
  EXPECT_EQ(phone.ignored_requests(), 1u);
  ASSERT_EQ(module.history().size(), 1u);
  ASSERT_EQ(module.history()[0].reports.size(), 1u);
  EXPECT_TRUE(module.history()[0].reports[0].timed_out);

  phone.set_responsive(true);
  EXPECT_TRUE(query());
  EXPECT_EQ(phone.ignored_requests(), 1u);
}

TEST(FaultInjectorValidation, RejectsBadPlansBeforeInstallingAnything) {
  sim::Simulation sim{3};
  net::Network net{sim};
  RecorderNode a{sim, "a"}, b{sim, "b"};
  net::Link& lan = net.add_link(a, b, sim::milliseconds(2));
  home::FcmService fcm{sim};
  FaultInjector::Targets targets;
  targets.lan = &lan;
  targets.fcm = &fcm;
  FaultInjector inj{sim, targets};

  {  // References a link that is not wired.
    FaultPlan p;
    p.links.push_back({LinkFault::Where::kWan, LinkFault::Kind::kFlap,
                       sim::seconds(1), sim::seconds(1), {}, {}});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // Negative start.
    FaultPlan p;
    p.links.push_back({LinkFault::Where::kLan, LinkFault::Kind::kFlap,
                       sim::seconds(-1), sim::seconds(1), {}, {}});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // Negative latency spike.
    FaultPlan p;
    p.links.push_back({LinkFault::Where::kLan, LinkFault::Kind::kLatencySpike,
                       sim::seconds(1), sim::seconds(1), {},
                       sim::milliseconds(-5)});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // drop_prob out of [0, 1].
    FaultPlan p;
    p.fcm.push_back({sim::Duration{}, sim::seconds(1), sim::Duration{}, 1.5});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // Device index with no devices wired.
    FaultPlan p;
    p.devices.push_back({0, sim::seconds(1), sim::Duration{}});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // Cloud / guard targets missing.
    FaultPlan p;
    p.cloud.push_back({sim::seconds(1), sim::seconds(1), true});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
    p = FaultPlan{};
    p.restarts.push_back({sim::seconds(1)});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }

  // Validation rejected every plan before installing it: nothing fires.
  sim.run_all();
  EXPECT_EQ(inj.injected(), 0u);
  EXPECT_TRUE(inj.log().empty());
  EXPECT_EQ(lan.dropped_packets(), 0u);

  // And the empty plan is trivially valid.
  EXPECT_NO_THROW(inj.arm(FaultPlan{}));
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultInjectorValidation, RejectsOverlappingWindows) {
  sim::Simulation sim{4};
  net::Network net{sim};
  RecorderNode a{sim, "a"}, b{sim, "b"}, c{sim, "c"};
  net::Link& lan = net.add_link(a, b, sim::milliseconds(2));
  net::Link& wan = net.add_link(b, c, sim::milliseconds(10));
  home::FcmService fcm{sim};
  home::Testbed tb = home::Testbed::two_floor_house();
  home::Person owner{sim, "owner", {0, 0, tb.plan().device_height(0)}};
  home::MobileDevice dev{sim, tb.plan(), radio::PathLossParams{}, "phone",
                         [&] { return owner.position(); }};
  FaultInjector::Targets targets;
  targets.lan = &lan;
  targets.wan = &wan;
  targets.fcm = &fcm;
  targets.devices.push_back(&dev);
  FaultInjector inj{sim, targets};

  const auto flap = [](LinkFault::Where where, double start_s, double dur_s) {
    return LinkFault{where, LinkFault::Kind::kFlap, sim::from_seconds(start_s),
                     sim::from_seconds(dur_s), {}, {}};
  };

  {  // Two flaps on the same link colliding mid-window.
    FaultPlan p;
    p.links.push_back(flap(LinkFault::Where::kLan, 1, 5));
    p.links.push_back(flap(LinkFault::Where::kLan, 4, 5));
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // The same windows are fine when they sit on different links, or on the
    // same link as different fault kinds (a flap under a latency spike is a
    // meaningful scenario; two flaps double-toggle the link).
    FaultPlan p;
    p.links.push_back(flap(LinkFault::Where::kLan, 1, 5));
    p.links.push_back(flap(LinkFault::Where::kWan, 4, 5));
    p.links.push_back({LinkFault::Where::kLan, LinkFault::Kind::kLatencySpike,
                       sim::seconds(2), sim::seconds(6), {},
                       sim::milliseconds(100)});
    EXPECT_NO_THROW(inj.arm(p));
  }
  {  // Touching windows are half-open and therefore legal.
    FaultPlan p;
    p.links.push_back(flap(LinkFault::Where::kLan, 100, 2));
    p.links.push_back(flap(LinkFault::Where::kLan, 102, 2));
    EXPECT_NO_THROW(inj.arm(p));
  }
  {  // Overlapping FCM degradation windows.
    FaultPlan p;
    p.fcm.push_back({sim::seconds(1), sim::seconds(10), sim::Duration{}, 0.1});
    p.fcm.push_back({sim::seconds(5), sim::seconds(10), sim::Duration{}, 0.2});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // A device fault with duration 0 never recovers, so any later window on
    // the same device is unreachable.
    FaultPlan p;
    p.devices.push_back({0, sim::seconds(1), sim::Duration{}});
    p.devices.push_back({0, sim::seconds(50), sim::seconds(1)});
    EXPECT_THROW(inj.arm(p), std::invalid_argument);
  }
  {  // ...but an identical schedule on another timeline slot is fine once the
    // first fault has a finite window.
    FaultPlan p;
    p.devices.push_back({0, sim::seconds(1), sim::seconds(10)});
    p.devices.push_back({0, sim::seconds(50), sim::seconds(1)});
    EXPECT_NO_THROW(inj.arm(p));
  }

  // Nothing the validator rejected was installed.
  EXPECT_EQ(inj.injected(), 0u);
}

TEST(FaultPlanCheck, NamesTheOffendingEntryAndTheOneItOverlaps) {
  const auto flap = [](double start_s, double dur_s) {
    return LinkFault{LinkFault::Where::kLan, LinkFault::Kind::kFlap,
                     sim::from_seconds(start_s), sim::from_seconds(dur_s), {},
                     {}};
  };
  FaultPlan p;
  p.name = "p";
  p.links = {flap(4, 5), flap(20, 1), flap(1, 5)};
  const auto d = check_plan(p, 0);
  ASSERT_TRUE(d.has_value());
  // Sorted by start, [4, 9) is the window that starts inside [1, 6).
  EXPECT_EQ(d->entry, (PlanEntry{PlanEntry::List::kLinks, 0}));
  EXPECT_EQ(d->other, (PlanEntry{PlanEntry::List::kLinks, 2}));
  EXPECT_EQ(to_string(*d),
            "links[0]: link-fault window starting at 4.000000 s overlaps the "
            "one from links[2]");

  sim::Simulation sim{5};
  FaultInjector inj{sim, {}};
  try {
    inj.arm(p);
    ADD_FAILURE() << "arm() accepted an overlapping plan";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()},
              "FaultInjector: plan 'p': " + to_string(*d));
  }
}

TEST(FaultPlanCheck, OverlapVerdictDoesNotDependOnOrder) {
  // [30, 30) ends where [30, 40) starts, whichever is listed first.
  for (const bool empty_first : {false, true}) {
    FaultPlan p;
    p.links.push_back({LinkFault::Where::kWan, LinkFault::Kind::kFlap,
                       sim::seconds(30), sim::seconds(10), {}, {}});
    p.links.push_back({LinkFault::Where::kWan, LinkFault::Kind::kFlap,
                       sim::seconds(30), sim::Duration{}, {}, {}});
    if (empty_first) std::swap(p.links[0], p.links[1]);
    EXPECT_FALSE(check_plan(p, 0).has_value()) << empty_first;
  }
}

TEST(FaultPlanCheck, RejectsWindowsEndingPastTheTimeCap) {
  // Window ends are checked against 2^62 ns without computing start +
  // duration, so C++-built plans with times near int64's limit are rejected
  // instead of wrapping.
  const sim::Duration cap{kMaxPlanNs};
  const sim::Duration max{std::numeric_limits<std::int64_t>::max()};
  const sim::Duration ns{1};
  const auto flap = [](sim::Duration start, sim::Duration dur) {
    return LinkFault{LinkFault::Where::kLan, LinkFault::Kind::kFlap, start,
                     dur, {}, {}};
  };
  const auto verdict = [](const auto& plan, auto... args) {
    const auto d = check_plan(plan, args...);
    return d ? to_string(*d) : std::string{"ok"};
  };

  FaultPlan p;
  p.links = {flap(max, max)};
  EXPECT_EQ(verdict(p, 0),
            "links[0]: link-fault window ends past the 2^62 ns time cap");
  p.links = {flap(cap, ns)};
  EXPECT_EQ(verdict(p, 0),
            "links[0]: link-fault window ends past the 2^62 ns time cap");
  p.links = {flap(cap - ns, ns)};  // ends exactly at the cap
  EXPECT_EQ(verdict(p, 0), "ok");
  p.links.clear();
  p.fcm = {FcmFault{ns, max, {}, 0.0}};
  EXPECT_EQ(verdict(p, 0),
            "fcm[0]: fcm-fault window ends past the 2^62 ns time cap");
  p.fcm.clear();
  // Down from the cap on, for good: the window opens at the cap, so fine.
  p.devices = {DeviceFault{0, cap, sim::Duration{}}};
  EXPECT_EQ(verdict(p, 1), "ok");
  p.devices = {DeviceFault{0, cap, ns}};
  EXPECT_EQ(verdict(p, 1),
            "devices[0]: device-fault window ends past the 2^62 ns time cap");
  p.devices.clear();
  p.restarts = {GuardRestart{max}};
  EXPECT_EQ(verdict(p, 0),
            "restarts[0]: guard restart past the 2^62 ns time cap");

  // A capacity envelope counts its recovery spread, a wave its stagger.
  fleet::FleetFaultPlan fp;
  fp.cloud_capacity.push_back({cap / 2, cap / 2, 0.5, true, ns, {}});
  EXPECT_EQ(verdict(fp, 1, FaultPlan{}),
            "cloud_capacity[0]: cloud-capacity window ends past the 2^62 ns "
            "time cap");
  fp.cloud_capacity.clear();
  fp.restart_waves.push_back({max, max, 0.5});
  EXPECT_EQ(verdict(fp, 1, FaultPlan{}),
            "restart_waves[0]: restart wave ends past the 2^62 ns time cap");
  fp.restart_waves.clear();
  // A base window its own check rejects cannot make the collision check
  // wrap either.
  fp.fcm_outages.push_back(
      {0, sim::seconds(10), sim::seconds(5), sim::Duration{}, 1.0});
  FaultPlan base;
  base.fcm = {FcmFault{max, max, {}, 0.0}};
  EXPECT_EQ(verdict(fp, 1, base), "ok");
}

TEST(FaultInjectorLog, BoundariesFireInOrderAndReachTheObserver) {
  sim::Simulation sim{4};
  net::Network net{sim};
  RecorderNode a{sim, "a"}, b{sim, "b"};
  net::Link& lan = net.add_link(a, b, sim::milliseconds(2));
  home::FcmService fcm{sim};
  FaultInjector::Targets targets;
  targets.lan = &lan;
  targets.fcm = &fcm;
  FaultInjector inj{sim, targets};

  std::vector<FaultEvent> seen;
  inj.set_observer([&](const FaultEvent& ev) { seen.push_back(ev); });

  FaultPlan p;
  p.name = "ordered";
  p.links.push_back({LinkFault::Where::kLan, LinkFault::Kind::kFlap,
                     sim::seconds(1), sim::seconds(1), {}, {}});
  p.fcm.push_back(
      {sim::from_seconds(0.5), sim::from_seconds(2.5), sim::Duration{}, 0.25});
  inj.arm(p);
  sim.run_until(kEpoch + sim::seconds(5));

  ASSERT_EQ(inj.injected(), 4u);
  const auto& log = inj.log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].kind, FaultEvent::Kind::kFcmDegraded);
  EXPECT_EQ(log[0].param, 25u);  // drop_prob in percent
  EXPECT_EQ(log[1].kind, FaultEvent::Kind::kFlapStart);
  EXPECT_EQ(log[2].kind, FaultEvent::Kind::kFlapEnd);
  EXPECT_EQ(log[3].kind, FaultEvent::Kind::kFcmNormal);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].when, log[i].when);
  }
  ASSERT_EQ(seen.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(seen[i].kind, log[i].kind);
    EXPECT_EQ(seen[i].when, log[i].when);
  }
}

TEST(FaultInjectorLog, PlanTimesAreRelativeToArm) {
  sim::Simulation sim{8};
  net::Network net{sim};
  RecorderNode a{sim, "a"}, b{sim, "b"};
  net::Link& lan = net.add_link(a, b, sim::milliseconds(2));
  FaultInjector::Targets targets;
  targets.lan = &lan;
  FaultInjector inj{sim, targets};

  sim.run_until(kEpoch + sim::seconds(10));
  FaultPlan p;
  p.links.push_back({LinkFault::Where::kLan, LinkFault::Kind::kFlap,
                     sim::seconds(1), sim::seconds(1), {}, {}});
  inj.arm(p);  // flap is [11, 12) absolute

  for (double t : {10.5, 11.5, 12.5}) {
    sim.at(kEpoch + sim::from_seconds(t), [&a, &lan] {
      net::Packet pkt;
      lan.send_from(a, std::move(pkt));
    });
  }
  sim.run_all();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(lan.flap_dropped(), 1u);
}

TEST(FaultNames, EveryKindHasAStableName) {
  for (int k = 0; k <= 12; ++k) {
    const char* name = to_string(static_cast<FaultEvent::Kind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string{name}.size(), 0u) << "kind " << k;
  }
  FaultPlan p;
  p.name = "describable";
  p.devices.push_back({0, sim::seconds(1), sim::Duration{}});
  EXPECT_NE(p.to_string().find("describable"), std::string::npos);
}

TEST(FaultInjectorWorld, GuardRestartAbortsFlowsAndSpeakerRecovers) {
  workload::WorldConfig cfg;
  cfg.testbed = workload::WorldConfig::TestbedKind::kApartment;
  cfg.owner_count = 1;
  cfg.seed = 77;
  workload::SmartHomeWorld world{cfg};
  world.calibrate();

  FaultInjector::Targets targets;
  targets.guard = &world.guard();
  FaultInjector inj{world.sim(), targets};
  FaultPlan p;
  p.name = "restart";
  p.restarts.push_back({sim::seconds(5)});
  p.may_break_connections = true;
  inj.arm(p);

  const sim::TimePoint t0 = world.sim().now();
  world.sim().run_until(t0 + sim::seconds(120));

  EXPECT_EQ(world.guard().restarts(), 1u);
  EXPECT_EQ(world.guard().held_outstanding(), 0u);
  ASSERT_EQ(inj.injected(), 1u);
  EXPECT_EQ(inj.log()[0].kind, FaultEvent::Kind::kGuardRestart);
  // The speaker's long-lived AVS session died with the proxy state and the
  // firmware reconnected on its own.
  ASSERT_NE(world.echo(), nullptr);
  EXPECT_GE(world.echo()->reconnects(), 1u);
}

TEST(FaultInjectorWorld, CloudOutageRefusesAndResetsSessions) {
  workload::WorldConfig cfg;
  cfg.testbed = workload::WorldConfig::TestbedKind::kApartment;
  cfg.owner_count = 1;
  cfg.seed = 78;
  workload::SmartHomeWorld world{cfg};
  world.calibrate();

  FaultInjector::Targets targets;
  targets.cloud = &world.cloud();
  FaultInjector inj{world.sim(), targets};
  FaultPlan p;
  p.name = "outage";
  p.cloud.push_back({sim::seconds(5), sim::seconds(30), /*rst_existing=*/true});
  p.may_break_connections = true;
  inj.arm(p);

  const sim::TimePoint t0 = world.sim().now();
  world.sim().run_until(t0 + sim::seconds(120));

  EXPECT_GE(world.cloud().total_sessions_killed(), 1u);
  EXPECT_GE(world.cloud().total_outage_refused(), 1u);
  ASSERT_NE(world.echo(), nullptr);
  EXPECT_GE(world.echo()->reconnects(), 1u);
  ASSERT_EQ(inj.injected(), 2u);
  EXPECT_EQ(inj.log()[0].kind, FaultEvent::Kind::kCloudDown);
  EXPECT_EQ(inj.log()[0].param, 1u);  // rst_existing
  EXPECT_EQ(inj.log()[1].kind, FaultEvent::Kind::kCloudUp);
}

}  // namespace
}  // namespace vg::faults
