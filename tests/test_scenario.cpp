/// Unit tests for the `.scn` scenario stack: the lexical ScnParser, the
/// validate-before-install ScenarioLoader (every rejection must name the
/// offending section, key and line), and the canonical serializer whose
/// output the loader parses back into an equal spec.

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "scenario/Generator.h"
#include "scenario/Scenario.h"
#include "scenario/ScenarioLoader.h"
#include "scenario/ScnParser.h"
#include "scenario/Serialize.h"

namespace vg::scenario {
namespace {

// ---------------------------------------------------------------------------
// ScnParser: the lexical layer.

TEST(ScnParser, SplitsSectionsKeysAndLineNumbers) {
  const auto entries = parse_scn(
      "# leading comment\n"
      "[scenario]\n"
      "name = base\n"
      "\n"
      "[schedule]\n"
      "command = 10 legit   # inline comment\n"
      "command = 40 attack\n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].section, "scenario");
  EXPECT_EQ(entries[0].key, "name");
  EXPECT_EQ(entries[0].value, "base");
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[1].section, "schedule");
  EXPECT_EQ(entries[1].key, "command");
  EXPECT_EQ(entries[1].value, "10 legit");
  EXPECT_EQ(entries[1].line, 6);
  EXPECT_EQ(entries[2].value, "40 attack");
  EXPECT_EQ(entries[2].line, 7);
}

TEST(ScnParser, TokensSplitOnWhitespace) {
  const auto toks = scn_tokens("  lan \t flap  60 3 ");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "lan");
  EXPECT_EQ(toks[3], "3");
}

void expect_parse_error(const std::string& text, int line,
                        const std::string& substr) {
  try {
    parse_scn(text);
    FAIL() << "expected ScnError for: " << text;
  } catch (const ScnError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string{e.what()}.find(substr), std::string::npos)
        << "missing \"" << substr << "\" in: " << e.what();
    EXPECT_EQ(std::string{e.what()}.rfind("line " + std::to_string(line), 0),
              0u)
        << "what() must start with the line number: " << e.what();
  }
}

TEST(ScnParser, LexicalErrorsNameTheLine) {
  expect_parse_error("a = 1\n", 1, "appears before any [section] header");
  expect_parse_error("[scenario\n", 1, "malformed section header");
  expect_parse_error("[]\n", 1, "malformed section header '[]'");
  expect_parse_error("[ ]\n", 1, "empty section name");
  expect_parse_error("[scenario]\nname = ok\ngarbage\n", 3,
                     "expected 'key = value', got 'garbage'");
  expect_parse_error("[scenario]\n= 5\n", 2, "empty key");
}

// ---------------------------------------------------------------------------
// ScenarioLoader: happy paths.

constexpr const char* kScripted = R"([scenario]
name = base
kind = home
seed = 7
speaker = echo_dot

[home]
testbed = apartment
deployment = 2
owners = 3
watch = on
motion_sensor = off

[guard]
mode = monitor
fail_policy = fail-open
verdict_timeout_s = 5
hold_queue_cap = 64
fcm_max_retries = 2
fcm_retry_initial_s = 1.5

[schedule]
command = 10 legit
command = 40 attack
drain_s = 215

[faults]
link = lan flap 60 3
link = wan burst 20 12 loss_bad=0.8
link = wan latency 100 30 extra_ms=250
cloud = 150 10 norst
fcm = 30 60 delay_s=2 drop=0.5
device = 1 80 0
restart = 170
may_break_connections = on
)";

TEST(ScenarioLoader, LoadsAFullScriptedHome) {
  const ScenarioSpec spec = ScenarioLoader::load(kScripted);
  EXPECT_EQ(spec.name, "base");
  EXPECT_EQ(spec.kind, Kind::kHome);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.speaker, Speaker::kEchoDot);
  EXPECT_TRUE(spec.scripted());

  EXPECT_EQ(spec.home.testbed, Testbed::kApartment);
  EXPECT_EQ(spec.home.deployment, 2);
  EXPECT_EQ(spec.home.owners, 3);
  EXPECT_TRUE(spec.home.watch);
  EXPECT_FALSE(spec.home.motion_sensor);

  EXPECT_EQ(spec.guard.mode, guard::GuardMode::kMonitor);
  EXPECT_EQ(spec.guard.fail_policy, guard::FailPolicy::kFailOpen);
  EXPECT_EQ(spec.guard.verdict_timeout, sim::seconds(5));
  EXPECT_EQ(spec.guard.hold_queue_cap, 64);
  EXPECT_EQ(spec.guard.fcm_max_retries, 2);
  EXPECT_EQ(spec.guard.fcm_retry_initial, sim::from_seconds(1.5));

  ASSERT_EQ(spec.schedule.commands.size(), 2u);
  EXPECT_EQ(spec.schedule.commands[0].at, sim::seconds(10));
  EXPECT_FALSE(spec.schedule.commands[0].attack);
  EXPECT_EQ(spec.schedule.commands[1].at, sim::seconds(40));
  EXPECT_TRUE(spec.schedule.commands[1].attack);
  EXPECT_EQ(spec.schedule.drain, sim::seconds(215));

  // The plan inherits the scenario name (the chaos label convention).
  EXPECT_EQ(spec.faults.name, "base");
  EXPECT_TRUE(spec.faults.may_break_connections);
  ASSERT_EQ(spec.faults.links.size(), 3u);
  EXPECT_EQ(spec.faults.links[0].where, faults::LinkFault::Where::kLan);
  EXPECT_EQ(spec.faults.links[0].kind, faults::LinkFault::Kind::kFlap);
  EXPECT_EQ(spec.faults.links[0].start, sim::seconds(60));
  EXPECT_EQ(spec.faults.links[0].duration, sim::seconds(3));
  EXPECT_EQ(spec.faults.links[1].kind, faults::LinkFault::Kind::kBurst);
  EXPECT_DOUBLE_EQ(spec.faults.links[1].ge.loss_bad, 0.8);
  EXPECT_EQ(spec.faults.links[2].kind,
            faults::LinkFault::Kind::kLatencySpike);
  EXPECT_EQ(spec.faults.links[2].extra_latency, sim::milliseconds(250));
  ASSERT_EQ(spec.faults.cloud.size(), 1u);
  EXPECT_FALSE(spec.faults.cloud[0].rst_existing);
  ASSERT_EQ(spec.faults.fcm.size(), 1u);
  EXPECT_EQ(spec.faults.fcm[0].extra_delay, sim::seconds(2));
  EXPECT_DOUBLE_EQ(spec.faults.fcm[0].drop_prob, 0.5);
  ASSERT_EQ(spec.faults.devices.size(), 1u);
  EXPECT_EQ(spec.faults.devices[0].device, 1);
  EXPECT_EQ(spec.faults.devices[0].duration, sim::Duration{});  // forever
  ASSERT_EQ(spec.faults.restarts.size(), 1u);
  EXPECT_EQ(spec.faults.restarts[0].at, sim::seconds(170));
}

TEST(ScenarioLoader, LoadsACaptureLoopWithDefaults) {
  const ScenarioSpec spec = ScenarioLoader::load(
      "[scenario]\n"
      "name = cap\n"
      "kind = home\n"
      "[schedule]\n"
      "commands = 8\n");
  EXPECT_FALSE(spec.scripted());
  EXPECT_EQ(spec.schedule.loop_commands, 8);
  // Untouched knobs keep the WorldConfig-mirroring defaults.
  EXPECT_EQ(spec.schedule.boot, sim::seconds(10));
  EXPECT_DOUBLE_EQ(spec.schedule.gap_base_s, 24.0);
  EXPECT_DOUBLE_EQ(spec.schedule.gap_jitter_s, 8.0);
  EXPECT_EQ(spec.schedule.tail, sim::seconds(8));
  EXPECT_EQ(spec.home.owners, 2);
  EXPECT_EQ(spec.faults.name, "cap");
  EXPECT_TRUE(spec.faults.empty());
}

TEST(ScenarioLoader, LoadsAChainWithSpeakerOptions) {
  const ScenarioSpec echo = ScenarioLoader::load(
      "[scenario]\n"
      "name = chain-echo\n"
      "kind = chain\n"
      "speaker = echo_dot\n"
      "[schedule]\n"
      "commands = 12\n"
      "gap_base_s = 20\n"
      "gap_jitter_s = 10\n"
      "[chain]\n"
      "avs_migration_s = 90\n"
      "misc_connection_s = 120\n");
  EXPECT_EQ(echo.kind, Kind::kChain);
  EXPECT_EQ(echo.chain.avs_migration_mean, sim::seconds(90));
  ASSERT_TRUE(echo.chain.misc_connection_mean.has_value());
  EXPECT_EQ(*echo.chain.misc_connection_mean, sim::seconds(120));
  EXPECT_FALSE(echo.chain.quic_probability.has_value());

  const ScenarioSpec ghm = ScenarioLoader::load(
      "[scenario]\n"
      "name = chain-ghm\n"
      "kind = chain\n"
      "speaker = home_mini\n"
      "[schedule]\n"
      "commands = 10\n"
      "[chain]\n"
      "quic_probability = 1\n");
  ASSERT_TRUE(ghm.chain.quic_probability.has_value());
  EXPECT_DOUBLE_EQ(*ghm.chain.quic_probability, 1.0);
}

TEST(ScenarioLoader, LoadsASyntheticCaptureWithGroundTruth) {
  const ScenarioSpec spec = ScenarioLoader::load(
      "[scenario]\n"
      "name = synth\n"
      "kind = synthetic\n"
      "[capture]\n"
      "dns = avs 10.0.0.1 1000\n"
      "flow = tcp 50001 10.0.0.1 443 1100\n"
      "signature = 0 1110\n"
      "tls = 0 down 1200 1300\n"
      "spike = 0 5000 500 75\n"
      "flow = udp 40000 10.0.0.9 443 6000\n"
      "datagram = 1 up 1350 6010\n"
      "expect = 1 tcp 5000 command p-75 500 75\n");
  ASSERT_EQ(spec.capture.size(), 7u);
  EXPECT_EQ(spec.capture[0].kind, CaptureOp::Kind::kDns);
  EXPECT_EQ(spec.capture[1].kind, CaptureOp::Kind::kFlow);
  EXPECT_EQ(spec.capture[1].sport, 50001);
  EXPECT_EQ(spec.capture[3].kind, CaptureOp::Kind::kTls);
  EXPECT_FALSE(spec.capture[3].upstream);
  EXPECT_EQ(spec.capture[3].len, 1200u);
  ASSERT_EQ(spec.capture[4].lens.size(), 2u);
  EXPECT_EQ(spec.capture[4].lens[1], 75u);
  ASSERT_EQ(spec.expected.size(), 1u);
  EXPECT_EQ(spec.expected[0].flow_id, 1u);
  EXPECT_FALSE(spec.expected[0].udp);
  ASSERT_EQ(spec.expected[0].prefix.size(), 2u);
}

// ---------------------------------------------------------------------------
// ScenarioLoader: every rejection names the offending key and line, and
// nothing half-decoded escapes (load either returns or throws).

void expect_load_error(const std::string& text, int line,
                       const std::string& substr) {
  try {
    ScenarioLoader::load(text);
    FAIL() << "expected ScnError containing \"" << substr << "\"";
  } catch (const ScnError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string{e.what()}.find(substr), std::string::npos)
        << "missing \"" << substr << "\" in: " << e.what();
  }
}

TEST(ScenarioLoader, RejectsMissingOrBadName) {
  expect_load_error("", 1, "[scenario] name: missing");
  expect_load_error("[scenario]\nkind = home\n", 1,
                    "name: missing (every scenario is named)");
  expect_load_error("[scenario]\nname = not/ok\n", 2,
                    "name may only use [A-Za-z0-9._-]");
}

TEST(ScenarioLoader, RejectsUnknownSectionsKeysAndKinds) {
  expect_load_error("[scenario]\nname = x\n[bogus]\na = 1\n", 4,
                    "unknown section [bogus]");
  expect_load_error("[scenario]\nname = x\ncolor = red\n", 3,
                    "unknown key in [scenario]");
  expect_load_error("[scenario]\nname = x\nkind = castle\n", 3,
                    "unknown kind (expected home, chain or synthetic)");
  expect_load_error("[scenario]\nname = x\nspeaker = homepod\n", 3,
                    "unknown speaker (expected echo_dot or home_mini)");
}

TEST(ScenarioLoader, RejectsDuplicateKeysNamingTheFirstLine) {
  expect_load_error(
      "[scenario]\nname = x\n[home]\nowners = 2\nowners = 3\n", 5,
      "duplicate key (already set at line 4)");
}

TEST(ScenarioLoader, RejectsBadScalarTypesAndRanges) {
  const std::string head = "[scenario]\nname = x\n[home]\n";
  expect_load_error(head + "owners = three\n", 4,
                    "'three' is not an unsigned integer");
  expect_load_error(head + "owners = 9\n", 4, "owners must be in [1, 8]");
  expect_load_error(head + "deployment = 3\n", 4, "deployment must be 1 or 2");
  expect_load_error(head + "watch = maybe\n", 4,
                    "'maybe' is not a boolean (on/off/true/false)");
  expect_load_error(head + "testbed = lab\n", 4,
                    "unknown testbed (expected house, apartment or office)");
  expect_load_error(head + "owners = 2 3\n", 4, "expected a single value");

  const std::string guard = "[scenario]\nname = x\n[guard]\n";
  expect_load_error(guard + "mode = paranoid\n", 4,
                    "unknown mode (expected voiceguard, naive or monitor)");
  expect_load_error(guard + "fail_policy = shrug\n", 4,
                    "unknown policy (expected fail-closed or fail-open)");
  expect_load_error(guard + "hold_queue_cap = 100001\n", 4,
                    "hold_queue_cap must be <= 100000");
  expect_load_error(guard + "fcm_max_retries = 17\n", 4,
                    "fcm_max_retries must be <= 16");
  expect_load_error(guard + "fcm_retry_initial_s = 0\n", 4,
                    "fcm_retry_initial_s must be > 0");
  expect_load_error(guard + "verdict_timeout_s = -1\n", 4,
                    "must be >= 0, got '-1'");
}

TEST(ScenarioLoader, RejectsBrokenSchedules) {
  const std::string head = "[scenario]\nname = x\n[schedule]\n";
  expect_load_error(head + "command = 10\n", 4,
                    "expected '<at_s> <legit|attack>'");
  expect_load_error(head + "command = 10 sneaky\n", 4,
                    "expected legit or attack, got 'sneaky'");
  expect_load_error(head + "command = 1 legit\n", 4,
                    "command offsets must be >= 2 s");
  expect_load_error(head + "command = 10 legit\ncommand = 10 attack\n", 5,
                    "command offsets must be strictly increasing");
  expect_load_error(head + "command = 10 legit\ndrain_s = 39\n", 5,
                    "drain_s must be at least 30 s past the last command");
  expect_load_error(head + "commands = 0\n", 4, "commands must be in [1, 64]");
  expect_load_error(head + "commands = 65\n", 4,
                    "commands must be in [1, 64]");
  expect_load_error(head + "commands = 4\ngap_base_s = 3\n", 5,
                    "gap_base_s must be >= 4 (the recognizer's idle gap is 3 s)");
  expect_load_error(head + "commands = 4\ngap_jitter_s = -1\n", 5,
                    "gap_jitter_s must be >= 0");
  // Scripted commands and the capture loop are mutually exclusive; neither
  // present is just as fatal.
  expect_load_error(head + "command = 10 legit\ncommands = 4\n", 5,
                    "mutually exclusive");
  expect_load_error("[scenario]\nname = x\nkind = home\n", 3,
                    "kind home needs either scripted 'command' lines or a "
                    "capture loop");
}

TEST(ScenarioLoader, RejectsSectionsForeignToTheKind) {
  expect_load_error(
      "[scenario]\nname = x\n[schedule]\ncommands = 4\n[chain]\n"
      "avs_migration_s = 90\n",
      6, "[chain] is not allowed for kind home");
  expect_load_error(
      "[scenario]\nname = x\n[schedule]\ncommands = 4\n[guard]\nmode = naive\n",
      6, "[guard] is not allowed for capture-loop scenarios");
  expect_load_error(
      "[scenario]\nname = x\n[schedule]\ncommands = 4\n[faults]\nrestart = 9\n",
      6, "[faults] is not allowed for capture-loop scenarios");
  expect_load_error(
      "[scenario]\nname = x\nkind = chain\n[schedule]\ncommands = 4\n"
      "[home]\nowners = 1\n",
      7, "[home] is not allowed for kind chain");
  expect_load_error(
      "[scenario]\nname = x\nkind = chain\n[schedule]\n"
      "command = 10 legit\n",
      5, "kind chain uses a capture loop, not scripted commands");
  expect_load_error("[scenario]\nname = x\nkind = chain\n", 3,
                    "kind chain needs 'commands = N'");
  expect_load_error(
      "[scenario]\nname = x\nkind = synthetic\n[capture]\n"
      "dns = avs 10.0.0.1 0\n[schedule]\ncommands = 4\n",
      7, "[schedule] is not allowed for kind synthetic");
}

TEST(ScenarioLoader, RejectsChainOptionsOnTheWrongSpeaker) {
  expect_load_error(
      "[scenario]\nname = x\nkind = chain\nspeaker = home_mini\n"
      "[schedule]\ncommands = 4\n[chain]\nmisc_connection_s = 120\n",
      8, "misc_connection_s only applies to speaker echo_dot");
  expect_load_error(
      "[scenario]\nname = x\nkind = chain\nspeaker = echo_dot\n"
      "[schedule]\ncommands = 4\n[chain]\nquic_probability = 0.5\n",
      8, "quic_probability only applies to speaker home_mini");
}

// ---------------------------------------------------------------------------
// [population]: scripted homes only, homes mandatory, bounded knobs.

TEST(ScenarioLoader, LoadsAPopulationSection) {
  const ScenarioSpec spec = ScenarioLoader::load(
      std::string{kScripted} +
      "\n[population]\nhomes = 12\ncommand_jitter_s = 1.5\n"
      "attack_flip = 0.25\n");
  EXPECT_TRUE(spec.population.enabled());
  EXPECT_EQ(spec.population.homes, 12u);
  EXPECT_DOUBLE_EQ(spec.population.command_jitter_s, 1.5);
  EXPECT_DOUBLE_EQ(spec.population.attack_flip, 0.25);
  EXPECT_NE(spec.summary().find("population of 12 homes"), std::string::npos)
      << spec.summary();
}

TEST(ScenarioLoader, PopulationDefaultsToJitterlessSingleFlipFree) {
  const ScenarioSpec spec = ScenarioLoader::load(std::string{kScripted} +
                                                 "\n[population]\nhomes = 2\n");
  EXPECT_EQ(spec.population.homes, 2u);
  EXPECT_DOUBLE_EQ(spec.population.command_jitter_s, 0.0);
  EXPECT_DOUBLE_EQ(spec.population.attack_flip, 0.0);
}

TEST(ScenarioLoader, RejectsBrokenPopulations) {
  const std::string head = "[scenario]\nname = x\n[schedule]\n"
                           "command = 10 legit\n[population]\n";
  expect_load_error(head + "homes = 0\n", 6, "homes must be in [1, 1000000]");
  expect_load_error(head + "homes = 1000001\n", 6,
                    "homes must be in [1, 1000000]");
  expect_load_error(head + "homes = 2\ncommand_jitter_s = 11\n", 7,
                    "command_jitter_s must be in [0, 10]");
  expect_load_error(head + "homes = 2\nattack_flip = 1.5\n", 7,
                    "attack_flip must be in [0, 1]");
  expect_load_error(head + "homes = 2\nrooms = 4\n", 7,
                    "unknown key in [population]");
  expect_load_error(head + "command_jitter_s = 1\n", 6,
                    "[population] needs 'homes = N'");
}

TEST(ScenarioLoader, RejectsPopulationsOutsideScriptedHomes) {
  expect_load_error(
      "[scenario]\nname = x\n[schedule]\ncommands = 4\n[population]\n"
      "homes = 3\n",
      6, "[population] is not allowed for capture-loop scenarios");
  expect_load_error(
      "[scenario]\nname = x\nkind = chain\n[schedule]\ncommands = 4\n"
      "[population]\nhomes = 3\n",
      7, "[population] is not allowed for kind chain");
  expect_load_error(
      "[scenario]\nname = x\nkind = synthetic\n[capture]\n"
      "dns = avs 10.0.0.1 0\n[population]\nhomes = 3\n",
      7, "[population] is not allowed for kind synthetic");
}

TEST(ScnSerializer, RoundTripsThePopulationSection) {
  ScenarioSpec spec = ScenarioLoader::load(std::string{kScripted} +
                                           "\n[population]\nhomes = 40000\n"
                                           "command_jitter_s = 2.5\n"
                                           "attack_flip = 0.1\n");
  const std::string text = write_scn(spec);
  EXPECT_NE(text.find("[population]"), std::string::npos) << text;
  const ScenarioSpec reparsed = ScenarioLoader::load(text);
  EXPECT_TRUE(reparsed == spec) << text;
  EXPECT_EQ(write_scn(reparsed), text);

  // A population-free spec must not grow the section (canonical emission).
  spec.population = {};
  EXPECT_EQ(write_scn(spec).find("[population]"), std::string::npos);
}

TEST(ScenarioLoader, RejectsBrokenFaultLines) {
  const std::string head =
      "[scenario]\nname = x\n[schedule]\ncommand = 10 legit\n[faults]\n";
  expect_load_error(head + "link = wifi flap 0 1\n", 6,
                    "unknown link target 'wifi' (expected lan or wan)");
  expect_load_error(head + "link = lan melt 0 1\n", 6,
                    "unknown link fault kind 'melt'");
  expect_load_error(head + "link = lan flap 0 1 extra_ms=10\n", 6,
                    "extra_ms only applies to latency faults");
  expect_load_error(head + "link = lan burst 0 1 bananas=1\n", 6,
                    "unknown or misplaced argument 'bananas'");
  expect_load_error(head + "link = lan flap -5 1\n", 6,
                    "must be >= 0, got '-5'");
  expect_load_error(head + "cloud = 0 5 maybe\n", 6,
                    "expected rst or norst, got 'maybe'");
  expect_load_error(head + "fcm = 0 5 drop=1.5\n", 6, "must be in [0, 1]");
  expect_load_error(head + "device = 0 10 5\ndevice = 0 12 5\n", 7,
                    "device-fault window starting at 12");
  expect_load_error(head + "device = 5 10 5\n", 6,
                    "device index 5 out of range (2 owner devices)");
  expect_load_error(head + "restart = 30\nrestart = 30\n", 7,
                    "duplicate guard restart instant");
}

TEST(ScenarioLoader, RejectsOverlappingFaultWindows) {
  const std::string head =
      "[scenario]\nname = x\n[schedule]\ncommand = 10 legit\n[faults]\n";
  // Same link, same kind: the second window lands inside the first.
  expect_load_error(head + "link = lan flap 60 30\nlink = lan flap 65 2\n", 7,
                    "link-fault window starting at 65");
  expect_load_error(head + "cloud = 10 20 rst\ncloud = 25 5 rst\n", 7,
                    "cloud-outage window starting at 25");
  expect_load_error(head + "fcm = 10 20\nfcm = 15 1\n", 7,
                    "fcm-fault window starting at 15");
  // duration 0 = forever: an open-ended device fault blocks anything later.
  expect_load_error(head + "device = 0 10 0\ndevice = 0 500 5\n", 7,
                    "device-fault window starting at 500");

  // Disjoint windows, different kinds and different links never collide.
  const ScenarioSpec ok = ScenarioLoader::load(
      head + "link = lan flap 60 3\nlink = lan flap 70 3\n"
             "link = wan flap 60 3\nlink = lan burst 60 3\n"
             "device = 0 10 5\ndevice = 1 10 5\n");
  EXPECT_EQ(ok.faults.links.size(), 4u);
}

TEST(ScenarioLoader, OverlapVerdictDoesNotDependOnLineOrder) {
  // [30, 30) ends where [30, 40) starts: the two flaps touch, in either
  // order, exactly as FaultInjector::arm sees them.
  const std::string head =
      "[scenario]\nname = x\n[schedule]\ncommand = 10 legit\n[faults]\n";
  for (const char* links : {"link = wan flap 30 10\nlink = wan flap 30 0\n",
                            "link = wan flap 30 0\nlink = wan flap 30 10\n"}) {
    SCOPED_TRACE(links);
    EXPECT_EQ(ScenarioLoader::load(head + links).faults.links.size(), 2u);
  }
}

TEST(ScenarioLoader, RejectsBrokenCaptureTimelines) {
  const std::string head = "[scenario]\nname = x\nkind = synthetic\n[capture]\n";
  expect_load_error(head + "tls = 0 up 500 100\n", 5,
                    "flow 0 is not defined yet (0 flow ops so far)");
  expect_load_error(
      head + "flow = tcp 50001 10.0.0.1 443 100\nspike = 1 200 500\n", 6,
      "flow 1 is not defined yet (1 flow ops so far)");
  expect_load_error(
      head + "flow = tcp 50001 10.0.0.1 443 100\ntls = 0 up 500 50\n", 6,
      "at_ms 50 runs backwards");
  expect_load_error(head + "dns = avs 10.0.0.1 -1\n", 5, "at_ms must be >= 0");
  expect_load_error(
      head + "flow = tcp 50001 10.0.0.1 443 0\ntls = 0 up 0 10\n", 6,
      "record length must be in [1, 1048576]");
  expect_load_error(
      head + "flow = tcp 50001 10.0.0.1 443 0\nspike = 0 10 500 0\n", 6,
      "record length must be in [1, 1048576]");
  expect_load_error(head + "dns = avs 999.0.0.1 0\n", 5,
                    "'999.0.0.1' is not a dotted-quad IPv4 address");
  expect_load_error(head + "flow = sctp 1 10.0.0.1 443 0\n", 5,
                    "unknown protocol 'sctp' (expected tcp or udp)");
  expect_load_error(
      head + "flow = tcp 50001 10.0.0.1 443 0\n"
             "expect = 0 tcp 0 command none 500\n",
      6, "flow_id is 1-based, got 0");
  expect_load_error(
      head + "flow = tcp 50001 10.0.0.1 443 0\n"
             "expect = 2 tcp 0 command none 500\n",
      3, "flow_id 2 exceeds the 1 declared flows");
  expect_load_error("[scenario]\nname = x\nkind = synthetic\n", 3,
                    "kind synthetic needs at least one capture op");
}

TEST(ScenarioLoader, RejectsCaptureTimesPastTheTraceTimeCap) {
  // at_ms becomes a trace timestamp in ns, capped at 2^62 ns
  // (4611686018427 ms): the loader names the op instead of letting the ms ->
  // ns conversion overflow at run time.
  const std::string head =
      "[scenario]\nname = x\nkind = synthetic\n[capture]\n"
      "flow = tcp 50001 10.0.0.1 443 0\n";
  expect_load_error(head + "spike = 0 9223372036854 500\n", 6,
                    "ends at 9223372036854 ms, past the trace time cap "
                    "(4611686018427 ms = 2^62 ns)");
  // The op's last record counts, not its first: 3 records 10 ms apart.
  expect_load_error(head + "spike = 0 4611686018420 500 501 502\n", 6,
                    "ends at 4611686018440 ms");
  expect_load_error(head + "signature = 0 4611686018427\n", 6,
                    "past the trace time cap");
  expect_load_error(head + "expect = 1 tcp 9223372036854 command none 500\n",
                    6, "ends at 9223372036854 ms");
  // Exactly at the cap is fine.
  EXPECT_NO_THROW(ScenarioLoader::load(head + "tls = 0 up 500 4611686018427\n"));
}

TEST(ScenarioLoader, RejectsTimesPastTheTimeCap) {
  // Every time and span is capped at 2^62 ns, checked on the parsed number
  // before it becomes int64 nanoseconds (1e10 s is 1e19 ns, past int64), and
  // every fault window must end by the cap.
  const std::string head =
      "[scenario]\nname = x\n[schedule]\ncommand = 10 legit\n";
  const std::string faults = head + "[faults]\n";
  expect_load_error(
      faults + "link = lan flap 9e9 9e9\nlink = lan flap 9.1e9 9e9\n", 6,
      "start '9e9' is past the 2^62 ns time cap");
  expect_load_error(faults + "link = lan flap 4e9 4e9\n", 6,
                    "link-fault window ends past the 2^62 ns time cap");
  expect_load_error(faults + "link = wan latency 10 5 extra_ms=1e13\n", 6,
                    "extra_ms '1e13' is past the 2^62 ns time cap");
  expect_load_error(faults + "fcm = 10 9223372036854775807ns\n", 6,
                    "duration '9223372036854775807ns' is past the 2^62 ns");
  expect_load_error(faults + "restart = 4611686018427387905ns\n", 6,
                    "at_s '4611686018427387905ns' is past the 2^62 ns");
  expect_load_error(head + "drain_s = 1e10\n", 5,
                    "drain_s '1e10' is past the 2^62 ns time cap");
  expect_load_error("[scenario]\nname = x\n[schedule]\ncommand = 1e10 legit\n",
                    4, "at_s '1e10' is past the 2^62 ns time cap");
  expect_load_error(
      "[scenario]\nname = x\n[schedule]\ncommands = 4\ngap_base_s = 1e10\n",
      5, "gap_base_s '1e10' is past the 2^62 ns time cap");
  // Far below zero is just negative.
  expect_load_error(head + "drain_s = -1e10\n", 5,
                    "drain_s must be >= 0, got '-1e10'");
  expect_load_error(faults + "link = wan latency 10 5 extra_ms=-1e13\n", 6,
                    "extra_ms must be >= 0, got '-1e13'");

  const std::string fleet =
      head + "[population]\nhomes = 4\n[fleet_faults]\n";
  expect_load_error(fleet + "cloud_capacity = 2e9 2e9 rst spread_s=2e9\n", 8,
                    "cloud-capacity window ends past the 2^62 ns time cap");
  expect_load_error(fleet + "restart_wave = 4e9 4e9\n", 8,
                    "restart wave ends past the 2^62 ns time cap");

  // Exactly at the cap is fine, for an instant and for a window's end.
  EXPECT_NO_THROW(ScenarioLoader::load(
      faults + "restart = 4611686018427387904ns\n"
               "link = lan flap 4611686018427387903ns 1ns\n"));
}

// ---------------------------------------------------------------------------
// Serializer: canonical emission the loader parses back into an equal spec.

TEST(ScnSerializer, RoundTripsTheFullScriptedSpec) {
  const ScenarioSpec spec = ScenarioLoader::load(kScripted);
  const std::string text = write_scn(spec);
  const ScenarioSpec reparsed = ScenarioLoader::load(text);
  EXPECT_TRUE(reparsed == spec) << text;
  // Canonical form is a fixed point: serializing again changes nothing.
  EXPECT_EQ(write_scn(reparsed), text);
}

TEST(ScnSerializer, RoundTripsGeneratedSpecsOfEveryShape) {
  bool saw[4] = {false, false, false, false};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScenarioSpec spec = Generator::generate(seed);
    saw[spec.scripted() ? 0 : static_cast<int>(spec.kind) + 1] = true;
    const ScenarioSpec reparsed = ScenarioLoader::load(write_scn(spec));
    EXPECT_TRUE(reparsed == spec) << "seed " << seed << ":\n"
                                  << write_scn(spec);
  }
  for (const bool s : saw) EXPECT_TRUE(s);
}

TEST(ScnSerializer, PathologicalDurationsSurviveViaTheNsFallback) {
  // from_seconds truncates, so an awkward nanosecond count may have no
  // decimal-seconds literal; the serializer must still round-trip it.
  ScenarioSpec spec = ScenarioLoader::load(kScripted);
  spec.guard.verdict_timeout = sim::Duration{1};
  spec.schedule.commands[1].at = sim::Duration{39'999'999'999};
  spec.faults.links[0].start = sim::Duration{59'000'000'001};
  const ScenarioSpec reparsed = ScenarioLoader::load(write_scn(spec));
  EXPECT_TRUE(reparsed == spec) << write_scn(spec);
}

// ---------------------------------------------------------------------------
// load_file: I/O failures name the path; ScnErrors get the path prefixed.

TEST(ScenarioLoaderFile, PrefixesThePathOnEveryDiagnostic) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/good.scn";
  const std::string bad = dir + "/bad.scn";
  save_scn(ScenarioLoader::load(kScripted), good);
  EXPECT_TRUE(ScenarioLoader::load_file(good) ==
              ScenarioLoader::load(kScripted));

  std::ofstream{bad} << "[scenario]\nname = not/ok\n";
  try {
    ScenarioLoader::load_file(bad);
    FAIL() << "expected ScnError";
  } catch (const ScnError& e) {
    EXPECT_EQ(e.line(), 2);
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(bad + ": line 2: ", 0), 0u) << what;
  }

  try {
    ScenarioLoader::load_file(dir + "/missing.scn");
    FAIL() << "expected runtime_error";
  } catch (const ScnError&) {
    FAIL() << "I/O failures are not parse errors";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("missing.scn"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("cannot open scenario file"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace vg::scenario
