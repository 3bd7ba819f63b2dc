/// Tests for the §VII extension features: adaptive signature learning, the
/// composite decision framework, and multi-speaker deployments.

#include <gtest/gtest.h>

#include "cloud/CloudFarm.h"
#include "home/Testbed.h"
#include "speaker/EchoDot.h"
#include "testutil/CountingAllocator.h"
#include "voiceguard/VoiceGuard.h"  // umbrella header: compile coverage

namespace vg {
namespace {

using net::IpAddress;

// ---------------------------------------------------------------------------
// SignatureLearner unit behaviour
// ---------------------------------------------------------------------------

TEST(SignatureLearner, SeededSignatureUsedUntilEvidence) {
  guard::SignatureLearner l;
  l.seed({1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(l.signature(), (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_FALSE(l.observe({9, 9, 9, 9, 9, 9, 9, 9}));
  EXPECT_FALSE(l.observe({9, 9, 9, 9, 9, 9, 9, 9}));
  // Still the seed: only two examples.
  EXPECT_EQ(l.signature().front(), 1u);
}

TEST(SignatureLearner, ConsensusRepublishes) {
  guard::SignatureLearner l;
  l.seed({1, 2, 3, 4, 5, 6});
  const std::vector<std::uint32_t> fresh{9, 8, 7, 6, 5, 4, 3, 2};
  EXPECT_FALSE(l.observe(fresh));
  EXPECT_FALSE(l.observe(fresh));
  EXPECT_TRUE(l.observe(fresh));  // third agreeing example
  EXPECT_EQ(l.signature(), fresh);
  EXPECT_EQ(l.republished(), 1u);
}

TEST(SignatureLearner, DivergentExamplesDoNotRepublish) {
  guard::SignatureLearner l;
  l.seed({1, 2, 3, 4, 5, 6});
  // Three examples sharing only a 3-length prefix: too short to publish.
  EXPECT_FALSE(l.observe({7, 7, 7, 1, 1, 1, 1}));
  EXPECT_FALSE(l.observe({7, 7, 7, 2, 2, 2, 2}));
  EXPECT_FALSE(l.observe({7, 7, 7, 3, 3, 3, 3}));
  EXPECT_EQ(l.signature().front(), 1u);  // still the seed
}

TEST(SignatureLearner, NeverShrinksToAStrictPrefix) {
  guard::SignatureLearner l;
  const std::vector<std::uint32_t> full{1, 2, 3, 4, 5, 6, 7, 8};
  l.seed(full);
  // Examples agreeing on a strict prefix of the current signature (e.g. the
  // tail got cut by early command traffic) must not loosen the matcher.
  const std::vector<std::uint32_t> prefix{1, 2, 3, 4, 5, 6};
  l.observe(prefix);
  l.observe(prefix);
  EXPECT_FALSE(l.observe(prefix));
  EXPECT_EQ(l.signature(), full);
}

TEST(SignatureLearner, ExamplesAreTruncatedToWindowPrefix) {
  guard::SignatureLearner::Options o;
  o.example_prefix = 4;
  o.min_length = 4;
  guard::SignatureLearner l{o};
  std::vector<std::uint32_t> longer{1, 2, 3, 4, 99, 98};
  l.observe(longer);
  l.observe(longer);
  EXPECT_TRUE(l.observe(longer));
  EXPECT_EQ(l.signature(), (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(SignatureLearner, WarmObserveAllocatesNothing) {
  // Runs of three agreeing examples flip the consensus between two
  // signatures of different lengths, so every observe() below exercises the
  // ring, the in-place consensus and a republish.
  guard::SignatureLearner l;
  l.seed(guard::GuardBox::avs_signature());
  const std::vector<std::uint32_t> a{9, 8, 7, 6, 5, 4, 3, 2};
  const std::vector<std::uint32_t> b{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto observe_runs = [&l, &a, &b](int n) {
    for (int i = 0; i < n; ++i) l.observe((i / 3) % 2 == 0 ? a : b);
  };
  observe_runs(48);  // warm: every ring slot has held the longer example
  const std::uint64_t republished = l.republished();
  EXPECT_EQ(testutil::allocations_during([&] { observe_runs(48); }), 0u);
  EXPECT_EQ(l.republished(), republished + 16);
}

// ---------------------------------------------------------------------------
// Adaptive signature learning end-to-end: the speaker's establishment shape
// changes (a "firmware update"), and the guard re-learns it from
// DNS-identified connections, then re-identifies a DNS-less reconnect.
// ---------------------------------------------------------------------------

struct AdaptiveWorld {
  sim::Simulation sim{31};
  net::Network net{sim};
  net::Router router{"router"};
  cloud::CloudFarm farm;
  net::Host speaker_host{net, "speaker", IpAddress(192, 168, 1, 200)};
  guard::FixedDecisionModule decision{sim, true, sim::milliseconds(500)};
  guard::GuardBox guard;

  AdaptiveWorld()
      : farm(net, router,
             [] {
               cloud::CloudFarm::Options o;
               o.avs_migration_mean = sim::Duration{0};
               return o;
             }()),
        guard(net, "guard", decision, [] {
          guard::GuardBox::Options o;
          o.speaker_ips = {IpAddress(192, 168, 1, 200)};
          return o;
        }()) {
    net::Link& lan = net.add_link(speaker_host, guard, sim::milliseconds(2));
    speaker_host.attach(lan);
    guard.set_lan_link(lan);
    net::Link& up = net.add_link(guard, router, sim::milliseconds(2));
    guard.set_wan_link(up);
    router.add_route(speaker_host.ip(), up);
  }
};

TEST(AdaptiveSignatures, RelearnsChangedEstablishmentShape) {
  AdaptiveWorld w;
  // A "firmware update" changed the establishment sequence entirely.
  const std::vector<std::uint32_t> new_sig = {99, 45, 801, 150, 82, 150,
                                              201, 82, 150, 82};
  speaker::EchoDotModel::Options opts;
  opts.establishment_signature = new_sig;
  opts.misc_connection_mean = sim::Duration{0};
  opts.dns_on_reconnect_prob = 1.0;  // teach via DNS-identified connections
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::seconds(10));

  // Three DNS-visible (re)connections are enough for consensus.
  for (int i = 0; i < 3; ++i) {
    w.farm.migrate_avs_now();
    w.sim.run_until(w.sim.now() + sim::seconds(20));
  }
  ASSERT_TRUE(echo.connected());
  EXPECT_GE(w.guard.signature_learner().republished(), 1u);
  EXPECT_EQ(w.guard.signature_learner().signature(), new_sig);

  // Now a DNS-less reconnect: the old shipped signature would never match,
  // but the learned one re-identifies the AVS flow and updates the IP.
  // (The speaker options cannot change at runtime, so assert via the
  // matcher directly.)
  guard::SignatureMatcher m{w.guard.signature_learner().signature()};
  for (std::uint32_t len : new_sig) m.feed(len);
  EXPECT_EQ(m.state(), guard::SignatureMatcher::State::kMatched);
}

TEST(AdaptiveSignatures, DnslessReconnectReidentifiedWithNewShape) {
  AdaptiveWorld w;
  const std::vector<std::uint32_t> new_sig = {99, 45, 801, 150, 82, 150,
                                              201, 82, 150, 82};
  speaker::EchoDotModel::Options opts;
  opts.establishment_signature = new_sig;
  opts.misc_connection_mean = sim::Duration{0};
  opts.dns_on_reconnect_prob = 0.5;  // mixed: some reconnects have no DNS
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::seconds(10));

  // Enough migrations that both DNS-visible (teaching) and DNS-less
  // (re-identification) reconnects occur.
  for (int i = 0; i < 10; ++i) {
    w.farm.migrate_avs_now();
    w.sim.run_until(w.sim.now() + sim::seconds(20));
  }
  ASSERT_TRUE(echo.connected());
  ASSERT_GE(echo.dnsless_reconnects(), 1u);
  // The guard ends in sync with the farm despite the changed signature.
  EXPECT_EQ(w.guard.tracked_avs_ip(), w.farm.current_avs_ip());
  EXPECT_GE(w.guard.avs_ip_updates_from_signature(), 1u);

  // And commands still get recognized and held on the final connection.
  speaker::CommandSpec c;
  c.id = 5;
  c.words = 6;
  echo.hear_command(c);
  w.sim.run_until(w.sim.now() + sim::seconds(60));
  EXPECT_EQ(w.farm.all_executed().size(), 1u);
  EXPECT_GE(w.guard.commands_released(), 1u);
}

// ---------------------------------------------------------------------------
// Composite decision framework
// ---------------------------------------------------------------------------

struct CompositeFixture : ::testing::Test {
  sim::Simulation sim{71};
  bool footstep_present{false};
  bool gait_present{false};
  guard::PresenceOracleModule footstep{
      sim, "footstep-id", [this] { return footstep_present; },
      sim::milliseconds(300)};
  guard::PresenceOracleModule gait{
      sim, "gait-id", [this] { return gait_present; }, sim::milliseconds(900)};

  bool query(guard::DecisionModule& m) {
    bool verdict = false, done = false;
    m.query([&](bool legit) {
      verdict = legit;
      done = true;
    });
    while (!done && sim.pending_events() > 0) sim.step(1);
    EXPECT_TRUE(done);
    return verdict;
  }
};

TEST_F(CompositeFixture, AnyPolicyAcceptsIfOneSourceConfirms) {
  guard::CompositeDecisionModule combo{sim, guard::CompositeDecisionModule::Policy::kAny};
  combo.add(footstep);
  combo.add(gait);
  EXPECT_FALSE(query(combo));
  footstep_present = true;
  EXPECT_TRUE(query(combo));
  footstep_present = false;
  gait_present = true;
  EXPECT_TRUE(query(combo));
}

TEST_F(CompositeFixture, AllPolicyRequiresEverySource) {
  guard::CompositeDecisionModule combo{sim, guard::CompositeDecisionModule::Policy::kAll};
  combo.add(footstep);
  combo.add(gait);
  footstep_present = true;
  EXPECT_FALSE(query(combo));
  gait_present = true;
  EXPECT_TRUE(query(combo));
}

TEST_F(CompositeFixture, AnyPolicyConcludesEarlyOnFastPositive) {
  guard::CompositeDecisionModule combo{sim, guard::CompositeDecisionModule::Policy::kAny};
  combo.add(footstep);  // 300 ms
  combo.add(gait);      // 900 ms
  footstep_present = true;
  const sim::TimePoint start = sim.now();
  (void)query(combo);
  // Concluded on the fast positive, well before the slow source answered.
  EXPECT_LT((sim.now() - start).seconds(), 0.6);
}

TEST_F(CompositeFixture, EmptyCompositeFailsClosed) {
  guard::CompositeDecisionModule combo{sim, guard::CompositeDecisionModule::Policy::kAny};
  EXPECT_FALSE(query(combo));
}

TEST_F(CompositeFixture, LatencyBookkeepingCoversComposite) {
  guard::CompositeDecisionModule combo{sim, guard::CompositeDecisionModule::Policy::kAll};
  combo.add(footstep);
  combo.add(gait);
  footstep_present = true;
  gait_present = true;
  (void)query(combo);
  ASSERT_EQ(combo.latencies_s().size(), 1u);
  EXPECT_NEAR(combo.latencies_s()[0], 0.9, 0.05);  // bounded by the slowest
}

// ---------------------------------------------------------------------------
// Multi-speaker deployment: two Echo Dots behind one guard, each with its
// own decision module (its own Bluetooth beacon / thresholds in real life).
// ---------------------------------------------------------------------------

TEST(MultiSpeaker, PerSpeakerDecisionRouting) {
  sim::Simulation sim{81};
  net::Network net{sim};
  net::Router router{"router"};
  cloud::CloudFarm farm{net, router, [] {
                          cloud::CloudFarm::Options o;
                          o.avs_migration_mean = sim::Duration{0};
                          return o;
                        }()};
  net::Host speaker_a{net, "echo-a", IpAddress(192, 168, 1, 200)};
  net::Host speaker_b{net, "echo-b", IpAddress(192, 168, 1, 201)};

  // Speaker A's room has the owner nearby (legit); speaker B's does not.
  guard::FixedDecisionModule decision_a{sim, true, sim::milliseconds(600)};
  guard::FixedDecisionModule decision_b{sim, false, sim::milliseconds(600)};

  guard::GuardBox::Options gopts;
  gopts.speaker_ips = {speaker_a.ip(), speaker_b.ip()};
  guard::GuardBox guard{net, "guard", decision_a, gopts};
  guard.set_decision_for(speaker_b.ip(), decision_b);

  // Both speakers hang off a small LAN switch (modeled as a Router) that
  // uplinks through the guard.
  net::Router lan_switch{"switch"};
  net::Link& la = net.add_link(speaker_a, lan_switch, sim::milliseconds(1));
  net::Link& lb = net.add_link(speaker_b, lan_switch, sim::milliseconds(1));
  speaker_a.attach(la);
  speaker_b.attach(lb);
  lan_switch.add_route(speaker_a.ip(), la);
  lan_switch.add_route(speaker_b.ip(), lb);
  net::Link& lan = net.add_link(lan_switch, guard, sim::milliseconds(1));
  lan_switch.set_default_route(lan);
  guard.set_lan_link(lan);
  net::Link& up = net.add_link(guard, router, sim::milliseconds(2));
  guard.set_wan_link(up);
  router.add_route(speaker_a.ip(), up);
  router.add_route(speaker_b.ip(), up);

  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::Duration{0};
  opts.phase1.irregular_prob = 0.0;
  speaker::EchoDotModel echo_a{speaker_a, farm.dns_endpoint(),
                               [&farm] { return farm.current_avs_ip(); }, opts};
  speaker::EchoDotModel echo_b{speaker_b, farm.dns_endpoint(),
                               [&farm] { return farm.current_avs_ip(); }, opts};
  echo_a.power_on();
  echo_b.power_on();
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  ASSERT_TRUE(echo_a.connected());
  ASSERT_TRUE(echo_b.connected());

  speaker::CommandSpec ca;
  ca.id = 1;
  ca.words = 6;
  speaker::CommandSpec cb;
  cb.id = 2;
  cb.words = 6;
  echo_a.hear_command(ca);
  echo_b.hear_command(cb);
  sim.run_until(sim::TimePoint{} + sim::seconds(90));

  // Speaker A's command executed; speaker B's was blocked by ITS module.
  const auto executed = farm.all_executed();
  ASSERT_EQ(executed.size(), 1u);
  EXPECT_EQ(executed[0].command_tag, "voice-cmd-end:1");
  EXPECT_GE(guard.commands_released(), 1u);
  EXPECT_GE(guard.commands_blocked(), 1u);
  EXPECT_EQ(decision_a.legit_verdicts(), 1u);
  EXPECT_EQ(decision_b.malicious_verdicts(), 1u);
}

}  // namespace
}  // namespace vg
