/// Detailed behaviour tests of the speaker traffic models — the observable
/// facts §IV-B reports, verified at the packet level through a transparent
/// observer middlebox.

#include <gtest/gtest.h>

#include <algorithm>

#include "cloud/CloudFarm.h"
#include "netsim/MiddleBox.h"
#include "speaker/EchoDot.h"
#include "speaker/GoogleHomeMini.h"

namespace vg {
namespace {

using net::IpAddress;

cloud::CloudFarm::Options no_migration() {
  cloud::CloudFarm::Options o;
  o.avs_migration_mean = sim::Duration{0};
  return o;
}

/// A transparent wire that can turn every TCP segment from chosen cloud
/// addresses into a reset, tearing the speaker's connections to them down
/// from outside.
class Wire : public net::MiddleBox {
 public:
  using MiddleBox::MiddleBox;

  std::vector<IpAddress> reset_from;
  int resets = 0;

 protected:
  bool on_wan_packet(net::Packet& p) override {
    if (p.protocol == net::Protocol::kTcp &&
        std::ranges::find(reset_from, p.src.ip) != reset_from.end()) {
      p.tcp.flags.set(net::TcpFlag::kRst);
      ++resets;
    }
    return false;
  }
};

/// speaker -- observer wire -- router -- cloud.
struct ObservedWorld {
  sim::Simulation sim{17};
  net::Network net{sim};
  net::Router router{"router"};
  cloud::CloudFarm farm{net, router, no_migration()};
  net::Host speaker_host{net, "speaker", IpAddress(192, 168, 1, 200)};
  Wire wire{net, "wire"};

  struct Upstream {
    double t;
    std::uint32_t len;
    net::IpAddress dst;
  };
  std::vector<Upstream> upstream;

  ObservedWorld() {
    net::Link& lan = net.add_link(speaker_host, wire, sim::milliseconds(2));
    speaker_host.attach(lan);
    wire.set_lan_link(lan);
    net::Link& up = net.add_link(wire, router, sim::milliseconds(2));
    wire.set_wan_link(up);
    router.add_route(speaker_host.ip(), up);
    wire.add_observer([this](const net::Packet& p, net::Direction d) {
      if (d == net::Direction::kLanToWan &&
          p.protocol == net::Protocol::kTcp && p.payload_length() > 0) {
        upstream.push_back({sim.now().seconds(), p.payload_length(), p.dst.ip});
      }
    });
  }
};

TEST(EchoDotDetails, EmitsExactEstablishmentSignatureOnBoot) {
  ObservedWorld w;
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::Duration{0};
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::seconds(5));
  ASSERT_GE(w.upstream.size(), speaker::kAvsConnectionSignature.size());
  for (std::size_t i = 0; i < speaker::kAvsConnectionSignature.size(); ++i) {
    EXPECT_EQ(w.upstream[i].len, speaker::kAvsConnectionSignature[i])
        << "packet " << i;
  }
}

TEST(EchoDotDetails, HeartbeatsAre41BytesEvery30Seconds) {
  ObservedWorld w;
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::Duration{0};
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::minutes(3));

  std::vector<double> hb_times;
  for (const auto& u : w.upstream) {
    if (u.len == 41) hb_times.push_back(u.t);
  }
  ASSERT_GE(hb_times.size(), 5u);  // ~6 in 3 minutes
  for (std::size_t i = 1; i < hb_times.size(); ++i) {
    EXPECT_NEAR(hb_times[i] - hb_times[i - 1], 30.0, 0.5) << i;
  }
}

TEST(EchoDotDetails, CommandPhaseEndsWithAudioBurst) {
  ObservedWorld w;
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::Duration{0};
  opts.phase1.irregular_prob = 0.0;
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::seconds(10));
  const std::size_t before = w.upstream.size();

  speaker::CommandSpec c;
  c.id = 1;
  c.words = 6;  // 3.6 s utterance
  echo.hear_command(c);
  w.sim.run_until(w.sim.now() + sim::seconds(8));

  // The audio burst: >= 6 packets of 1180-1420 bytes at the end of phase 1.
  int audio = 0;
  for (std::size_t i = before; i < w.upstream.size(); ++i) {
    if (w.upstream[i].len >= 1180 && w.upstream[i].len <= 1420) ++audio;
  }
  EXPECT_GE(audio, 6);
}

TEST(EchoDotDetails, MiscConnectionsGoToOtherAmazonIps) {
  ObservedWorld w;
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::seconds(15);
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::minutes(3));

  const auto misc_ips = w.farm.other_amazon_ips();
  bool saw_misc = false;
  for (const auto& u : w.upstream) {
    for (auto ip : misc_ips) {
      if (u.dst == ip) saw_misc = true;
    }
  }
  EXPECT_TRUE(saw_misc);
  EXPECT_TRUE(echo.connected());  // main session unaffected
}

TEST(EchoDotDetails, MiscConnectionResetBeforeItsCloseTimerIsHarmless) {
  // Each misc side connection gets a close timer 2 s after it opens. Here
  // the server resets every one at once, so the stack frees the connection
  // long before its timer fires; the timer must not touch it.
  ObservedWorld w;
  w.wire.reset_from = w.farm.other_amazon_ips();
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::seconds(15);
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::minutes(3));

  EXPECT_GT(w.wire.resets, 3);
  EXPECT_TRUE(echo.connected());  // main session unaffected
  EXPECT_EQ(w.speaker_host.tcp().connection_count(), 1u);
}

TEST(EchoDotDetails, CommandWhileConnectingYieldsExactlyOneResult) {
  // A command heard in the boot window (before/while the AVS connection is
  // established) must produce exactly one interaction result, whichever way
  // it resolves.
  ObservedWorld w;
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::Duration{0};
  opts.response_timeout = sim::seconds(10);
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  speaker::CommandSpec c;
  c.id = 9;
  c.words = 4;
  echo.hear_command(c);  // wake fires ~0.6 s in; boot takes ~50 ms
  w.sim.run_until(sim::TimePoint{} + sim::seconds(30));
  ASSERT_EQ(echo.interactions().size(), 1u);
}

TEST(GhmDetails, TransportMixMatchesProbability) {
  ObservedWorld w;
  speaker::GoogleHomeMiniModel::Options opts;
  opts.quic_probability = 0.7;
  speaker::GoogleHomeMiniModel ghm{w.speaker_host, w.farm.dns_endpoint(), opts};
  ghm.power_on();
  for (int i = 0; i < 30; ++i) {
    speaker::CommandSpec c;
    c.id = static_cast<std::uint64_t>(i + 1);
    c.words = 5;
    ghm.hear_command(c);
    w.sim.run_until(w.sim.now() + sim::seconds(30));
  }
  EXPECT_EQ(ghm.quic_interactions() + ghm.tcp_interactions(), 30u);
  EXPECT_GT(ghm.quic_interactions(), 12u);  // ~21 expected
  EXPECT_GT(ghm.tcp_interactions(), 2u);    // ~9 expected
  EXPECT_EQ(w.farm.all_executed().size(), 30u);
}

TEST(GhmDetails, NoStandingConnectionWhenIdle) {
  ObservedWorld w;
  speaker::GoogleHomeMiniModel ghm{w.speaker_host, w.farm.dns_endpoint()};
  ghm.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::minutes(2));
  // No interaction -> no upstream traffic at all (on-demand connections).
  EXPECT_TRUE(w.upstream.empty());
}

TEST(CloudFarm, ExecutedListIsTimeSorted) {
  ObservedWorld w;
  speaker::EchoDotModel::Options opts;
  opts.misc_connection_mean = sim::Duration{0};
  speaker::EchoDotModel echo{w.speaker_host, w.farm.dns_endpoint(),
                             [&w] { return w.farm.current_avs_ip(); }, opts};
  echo.power_on();
  w.sim.run_until(sim::TimePoint{} + sim::seconds(5));
  for (int i = 0; i < 3; ++i) {
    speaker::CommandSpec c;
    c.id = static_cast<std::uint64_t>(i + 1);
    c.words = 4;
    echo.hear_command(c);
    w.sim.run_until(w.sim.now() + sim::seconds(40));
  }
  const auto all = w.farm.all_executed();
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].when, all[i].when);
  }
}

TEST(CloudFarm, ScheduledMigrationEventuallyHappens) {
  sim::Simulation sim{19};
  net::Network net{sim};
  net::Router router{"router"};
  cloud::CloudFarm::Options o;
  o.avs_migration_mean = sim::minutes(20);
  cloud::CloudFarm farm{net, router, o};
  sim.run_until(sim::TimePoint{} + sim::hours(4));
  // ~12 expected at a 20-minute mean.
  EXPECT_GE(farm.migrations(), 3u);
  // Zone follows the active IP.
  EXPECT_EQ(farm.zone().lookup(farm.avs_domain()).front(),
            farm.current_avs_ip());
}

}  // namespace
}  // namespace vg
