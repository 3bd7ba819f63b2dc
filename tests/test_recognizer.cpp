#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "simcore/Rng.h"
#include "speaker/TrafficPatterns.h"
#include "voiceguard/GuardBox.h"
#include "testutil/WindowScanClassifier.h"
#include "voiceguard/RecognitionCore.h"
#include "voiceguard/Recognizer.h"

namespace vg::guard {
namespace {

// ---------------------------------------------------------------------------
// SignatureMatcher
// ---------------------------------------------------------------------------

TEST(SignatureMatcher, MatchesExactPrefix) {
  SignatureMatcher m{{63, 33, 653}};
  EXPECT_EQ(m.feed(63), SignatureMatcher::State::kMatching);
  EXPECT_EQ(m.feed(33), SignatureMatcher::State::kMatching);
  EXPECT_EQ(m.feed(653), SignatureMatcher::State::kMatched);
  // Extra packets don't un-match.
  EXPECT_EQ(m.feed(1), SignatureMatcher::State::kMatched);
}

TEST(SignatureMatcher, FailsOnFirstMismatch) {
  SignatureMatcher m{{63, 33, 653}};
  EXPECT_EQ(m.feed(63), SignatureMatcher::State::kMatching);
  EXPECT_EQ(m.feed(99), SignatureMatcher::State::kFailed);
  EXPECT_EQ(m.feed(653), SignatureMatcher::State::kFailed);
}

TEST(SignatureMatcher, ResetRestartsMatching) {
  SignatureMatcher m{{1, 2}};
  m.feed(9);
  ASSERT_EQ(m.state(), SignatureMatcher::State::kFailed);
  m.reset();
  EXPECT_EQ(m.feed(1), SignatureMatcher::State::kMatching);
  EXPECT_EQ(m.feed(2), SignatureMatcher::State::kMatched);
}

TEST(SignatureMatcher, GuardAndSpeakerAgreeOnTheAvsSignature) {
  // The guard's defender-side copy must equal the measured speaker behaviour.
  EXPECT_EQ(GuardBox::avs_signature(), speaker::kAvsConnectionSignature);
}

TEST(SignatureMatcher, RejectsAllOtherAmazonServerSignatures) {
  // §IV-B1: the AVS sequence differs from the six other servers' sequences.
  for (int i = 0; i < 6; ++i) {
    SignatureMatcher m{GuardBox::avs_signature()};
    for (std::uint32_t len : speaker::other_server_signature(i)) {
      m.feed(len);
    }
    EXPECT_NE(m.state(), SignatureMatcher::State::kMatched) << "server " << i;
  }
}

// ---------------------------------------------------------------------------
// SpikeClassifier — rules from §IV-B1
// ---------------------------------------------------------------------------

TEST(SpikeClassifier, P138InFirstFiveIsCommand) {
  EXPECT_EQ(classify_spike({300, 138, 200, 200, 200}), SpikeClass::kCommand);
  EXPECT_EQ(classify_spike({138}), SpikeClass::kCommand);
}

TEST(SpikeClassifier, P75InFirstFiveIsCommand) {
  EXPECT_EQ(classify_spike({300, 200, 200, 200, 75}), SpikeClass::kCommand);
}

TEST(SpikeClassifier, P138AtSixthPositionDoesNotCount) {
  // The frequent-length rule is defined on the first 5 packets only.
  EXPECT_EQ(classify_spike({300, 200, 200, 200, 200, 138, 900}),
            SpikeClass::kUnknown);
}

TEST(SpikeClassifier, FixedPatternsAreCommands) {
  EXPECT_EQ(classify_spike({277, 131, 277, 131, 113}), SpikeClass::kCommand);
  EXPECT_EQ(classify_spike({250, 131, 113, 113, 113}), SpikeClass::kCommand);
  EXPECT_EQ(classify_spike({650, 131, 121, 277, 131}), SpikeClass::kCommand);
}

TEST(SpikeClassifier, FixedPatternFirstLengthMustBeInRange) {
  EXPECT_EQ(classify_spike({249, 131, 277, 131, 113}), SpikeClass::kUnknown);
  EXPECT_EQ(classify_spike({651, 131, 277, 131, 113}), SpikeClass::kUnknown);
}

TEST(SpikeClassifier, SequentialPair77_33IsResponse) {
  EXPECT_EQ(classify_spike({500, 77, 33, 100, 100}), SpikeClass::kResponse);
  // As late as packets 6 and 7.
  EXPECT_EQ(classify_spike({500, 100, 100, 100, 100, 77, 33}),
            SpikeClass::kResponse);
}

TEST(SpikeClassifier, NonSequential77And33IsNotResponse) {
  EXPECT_EQ(classify_spike({77, 100, 33, 100, 100, 100, 100}),
            SpikeClass::kUnknown);
}

TEST(SpikeClassifier, PairAfterSeventhPacketDoesNotCount) {
  EXPECT_EQ(classify_spike({500, 100, 100, 100, 100, 100, 100, 77, 33}),
            SpikeClass::kUnknown);
}

TEST(SpikeClassifier, ResponseRuleWinsOverLatePhase1Lengths) {
  // 77,33 up front; a 138 later must not flip it to command (100% precision
  // depends on rule order).
  EXPECT_EQ(classify_spike({77, 33, 138, 100, 100}), SpikeClass::kResponse);
}

TEST(SpikeClassifier, IncrementalDecidesEarly) {
  SpikeClassifier c;
  EXPECT_FALSE(c.feed(300).has_value());
  auto v = c.feed(138);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, SpikeClass::kCommand);
  // Later packets can't change a final verdict.
  EXPECT_EQ(*c.feed(77), SpikeClass::kCommand);
  EXPECT_EQ(*c.feed(33), SpikeClass::kCommand);
}

TEST(SpikeClassifier, FinalizeOnShortSpike) {
  SpikeClassifier c;
  c.feed(400);
  c.feed(200);
  EXPECT_EQ(c.finalize(), SpikeClass::kUnknown);
}

TEST(SpikeClassifier, FinalizeAfterDecisionReturnsDecision) {
  SpikeClassifier c;
  c.feed(77);
  c.feed(33);
  EXPECT_EQ(c.finalize(), SpikeClass::kResponse);
}

// ---------------------------------------------------------------------------
// DFA vs. window-scan oracle equivalence
// ---------------------------------------------------------------------------

// Feeds one sequence record-by-record into both the O(1)-per-record DFA and
// the window-scan oracle (tests/testutil) and asserts they agree at every
// step: the per-feed verdict (including *when* the verdict fires), the forced
// finalize() verdict, and matched_rule(). Returns the rule so callers can
// track coverage.
MatchedRule expect_equivalent(const std::vector<std::uint32_t>& seq) {
  SpikeClassifier dfa;
  testutil::WindowScanClassifier oracle;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const auto a = dfa.feed(seq[i]);
    const auto b = oracle.feed(seq[i]);
    EXPECT_EQ(a.has_value(), b.has_value())
        << "decision timing diverged at record " << i;
    if (a.has_value() && b.has_value()) {
      EXPECT_EQ(*a, *b) << "record " << i;
    }
    EXPECT_EQ(dfa.finalize(), oracle.finalize()) << "record " << i;
    EXPECT_EQ(dfa.matched_rule(), oracle.matched_rule()) << "record " << i;
  }
  EXPECT_EQ(dfa.finalize(), oracle.finalize());
  EXPECT_EQ(dfa.matched_rule(), oracle.matched_rule());
  return dfa.matched_rule();
}

TEST(SpikeClassifierEquivalence, ExhaustiveOverRuleAlphabet) {
  // Every sequence up to length 4 over the lengths the rules actually
  // mention (plus a neutral filler) — 8^1 + ... + 8^4 = 4680 sequences.
  const std::vector<std::uint32_t> alphabet = {138, 75, 77, 33,
                                               131, 277, 113, 400};
  std::set<MatchedRule> covered;
  std::vector<std::uint32_t> seq;
  const auto enumerate = [&](auto&& self, std::size_t depth) -> void {
    if (!seq.empty()) covered.insert(expect_equivalent(seq));
    if (depth == 4) return;
    for (std::uint32_t len : alphabet) {
      seq.push_back(len);
      self(self, depth + 1);
      seq.pop_back();
    }
  };
  enumerate(enumerate, 0);
  EXPECT_TRUE(covered.count(MatchedRule::kP138));
  EXPECT_TRUE(covered.count(MatchedRule::kP75));
  EXPECT_TRUE(covered.count(MatchedRule::kResponsePair));
  EXPECT_TRUE(covered.count(MatchedRule::kNone));
}

TEST(SpikeClassifierEquivalence, RandomSequencesCoverEveryRule) {
  // Length-4 enumeration can't reach the 5-record fixed patterns; random
  // longer sequences (seeded with pattern-shaped material) cover the rest of
  // the MatchedRule enum. Coverage of all 7 values is asserted, so this test
  // fails loudly if a rule ever becomes unreachable.
  sim::RngRegistry reg{20260807};
  auto& rng = reg.stream("equivalence");
  const std::vector<std::uint32_t> alphabet = {138, 75,  77,  33,  131, 113,
                                               121, 277, 250, 650, 249, 651,
                                               400, 500, 100, 0};
  std::set<MatchedRule> covered;
  // Directed seeds: each fixed pattern, clean and perturbed.
  covered.insert(expect_equivalent({277, 131, 277, 131, 113}));
  covered.insert(expect_equivalent({250, 131, 113, 113, 113}));
  covered.insert(expect_equivalent({650, 131, 121, 277, 131}));
  covered.insert(expect_equivalent({249, 131, 277, 131, 113}));
  covered.insert(expect_equivalent({277, 131, 277, 131, 113, 77, 33}));
  for (int i = 0; i < 50000; ++i) {
    std::vector<std::uint32_t> seq(1 + rng.index(9));
    for (auto& len : seq) len = rng.pick(alphabet);
    covered.insert(expect_equivalent(seq));
  }
  for (MatchedRule r :
       {MatchedRule::kNone, MatchedRule::kP138, MatchedRule::kP75,
        MatchedRule::kPatternA, MatchedRule::kPatternB, MatchedRule::kPatternC,
        MatchedRule::kResponsePair}) {
    EXPECT_TRUE(covered.count(r)) << "rule never produced: " << to_string(r);
  }
}

TEST(SpikeClassifierEquivalence, GeneratedTrafficAgrees) {
  // The DFA and the oracle agree on realistic generator traffic, not just on
  // the synthetic alphabet.
  sim::RngRegistry reg{424242};
  auto& rng = reg.stream("t");
  for (int i = 0; i < 5000; ++i) {
    expect_equivalent(speaker::gen_phase1_prefix(rng));
    expect_equivalent(speaker::gen_phase2_prefix(rng));
  }
  EXPECT_EQ(analyze_spike({277, 131, 277, 131, 113}).rule,
            testutil::analyze_spike({277, 131, 277, 131, 113}).rule);
}

// Regression for the pre-DFA bug: matched_rule() on an undecided classifier
// used to re-run the whole window evaluation. It must now be a plain O(1)
// read — kNone while undecided — and calling it must never perturb the
// verdict of subsequent records.
TEST(SpikeClassifier, MatchedRuleWhileUndecidedIsInertAndNone) {
  SpikeClassifier c;
  EXPECT_EQ(c.matched_rule(), MatchedRule::kNone);
  c.feed(277);
  c.feed(131);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.matched_rule(), MatchedRule::kNone);  // undecided: no rule yet
    EXPECT_EQ(c.finalize(), SpikeClass::kUnknown);
  }
  // The interleaved queries above must not have disturbed the pattern cursor.
  c.feed(277);
  c.feed(131);
  auto v = c.feed(113);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, SpikeClass::kCommand);
  EXPECT_EQ(c.matched_rule(), MatchedRule::kPatternA);
}

// ---------------------------------------------------------------------------
// Generator/classifier agreement — the property behind Table I.
// ---------------------------------------------------------------------------

TEST(TrafficPatterns, RegularPhase1PrefixesClassifyAsCommand) {
  sim::RngRegistry reg{123};
  auto& rng = reg.stream("t");
  speaker::Phase1Options opts;
  opts.irregular_prob = 0.0;  // only regular spikes
  for (int i = 0; i < 2000; ++i) {
    const auto prefix = speaker::gen_phase1_prefix(rng, opts);
    EXPECT_EQ(classify_spike(prefix), SpikeClass::kCommand)
        << "iteration " << i;
  }
}

TEST(TrafficPatterns, Phase2PrefixesNeverClassifyAsCommand) {
  // 100% precision: no response spike may be classified as a command.
  sim::RngRegistry reg{321};
  auto& rng = reg.stream("t");
  for (int i = 0; i < 2000; ++i) {
    const auto prefix = speaker::gen_phase2_prefix(rng);
    EXPECT_EQ(classify_spike(prefix), SpikeClass::kResponse)
        << "iteration " << i;
  }
}

TEST(TrafficPatterns, IrregularRateMatchesTableOne) {
  // With the default irregular probability, the miss rate over many spikes
  // sits near Table I's 2/134 ≈ 1.5%.
  sim::RngRegistry reg{77};
  auto& rng = reg.stream("t");
  int misses = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (classify_spike(speaker::gen_phase1_prefix(rng)) != SpikeClass::kCommand) {
      ++misses;
    }
  }
  const double rate = static_cast<double>(misses) / n;
  EXPECT_GT(rate, 0.005);
  EXPECT_LT(rate, 0.03);
}

TEST(TrafficPatterns, AvsSignatureIsExactlyThePaper) {
  const std::vector<std::uint32_t> expected = {63, 33, 653, 131, 73, 131, 188,
                                               73, 131, 73, 131, 73, 131, 77,
                                               33, 33};
  EXPECT_EQ(speaker::kAvsConnectionSignature, expected);
}

// ---------------------------------------------------------------------------
// RecognitionCore — the live-only rules, driven without a Simulation
// ---------------------------------------------------------------------------

using Core = RecognitionCore;

const net::IpAddress kAvsIp{10, 0, 0, 1};
const net::IpAddress kAvsIp2{10, 0, 0, 2};
const net::IpAddress kGoogleIp{10, 1, 0, 1};
const net::IpAddress kOtherIp{93, 184, 216, 34};

/// An establishment prefix unlike the shipped signature (>= min_length).
const std::vector<std::uint32_t> kFreshSignature = {212, 90,  90, 333,
                                                    47,  610, 18, 18};

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint{ms * 1'000'000};
}

/// Three DNS-identified AVS connections, each showing \p prefix inside its
/// window and closed out by its deadline: enough for the learner to publish.
void teach(Core& core, const std::vector<std::uint32_t>& prefix,
           std::vector<Spike>& spikes) {
  for (std::uint64_t k = 0; k < 3; ++k) {
    Core::Flow f = core.open_flow(100 + k, /*udp=*/false, core.avs_ip(),
                                  at_ms(0));
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      core.upstream(f, at_ms(static_cast<std::int64_t>(i)), prefix[i],
                    /*tls=*/true, spikes);
    }
    core.close_establishment(f);
  }
}

TEST(RecognitionCore, NoNewSpikeWhileAVerdictIsPending) {
  Core core{{GuardMode::kVoiceGuard, /*adaptive_signatures=*/true}};
  core.on_dns(VoiceDomain::kAvs, kAvsIp);
  std::vector<Spike> spikes;
  Core::Flow f = core.open_flow(1, /*udp=*/false, kAvsIp, at_ms(0));
  core.close_establishment(f);

  // p-138 decides a command at once; the classify timeout is armed anyway,
  // and the spike stays open until its driver has a verdict.
  const Core::Step first = core.upstream(f, at_ms(5000), 138, true, spikes);
  EXPECT_EQ(first, Core::kInSpike | Core::kOpened | Core::kArmClassify |
                       Core::kDecided);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0].cls, SpikeClass::kCommand);

  // Ten seconds of silence later the verdict is still pending: the record
  // joins the held spike instead of opening a new one.
  EXPECT_EQ(core.upstream(f, at_ms(15000), 300, true, spikes), Core::kInSpike);
  EXPECT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0].prefix, (std::vector<std::uint32_t>{138}));

  // Closed, the idle clock counts from that last record.
  Core::close_spike(f);
  EXPECT_EQ(core.upstream(f, at_ms(16000), 300, true, spikes), 0);
  EXPECT_TRUE(core.upstream(f, at_ms(19000), 300, true, spikes) &
              Core::kOpened);
  EXPECT_EQ(spikes.size(), 2u);
}

TEST(RecognitionCore, QuietAvsFlowTeachesTheLearnerAtItsCloseOut) {
  Core core{{GuardMode::kMonitor, /*adaptive_signatures=*/true}};
  core.on_dns(VoiceDomain::kAvs, kAvsIp);
  std::vector<Spike> spikes;
  for (std::uint64_t k = 0; k < 3; ++k) {
    const sim::TimePoint opened = at_ms(10'000 * static_cast<std::int64_t>(k));
    Core::Flow f = core.open_flow(k + 1, /*udp=*/false, kAvsIp, opened);
    EXPECT_EQ(Core::close_out_at(f), opened + sim::milliseconds(1600));
    for (std::size_t i = 0; i < kFreshSignature.size(); ++i) {
      EXPECT_EQ(core.upstream(f, opened + sim::milliseconds(10 * i),
                              kFreshSignature[i], true, spikes),
                0);  // exempt establishment traffic
    }
    // The flow goes quiet inside its window: only the close-out deadline
    // hands its prefix to the learner.
    EXPECT_EQ(core.learner().observations(), k);
    EXPECT_EQ(core.close_establishment(f), k == 2);  // third one publishes
    EXPECT_EQ(core.learner().observations(), k + 1);
  }
  EXPECT_EQ(core.learner().signature(), kFreshSignature);
  EXPECT_TRUE(spikes.empty());

  // QUIC flows and flows to other destinations arm no close-out.
  EXPECT_FALSE(Core::close_out_at(core.open_flow(8, true, kAvsIp, at_ms(0))));
  EXPECT_FALSE(
      Core::close_out_at(core.open_flow(9, false, kOtherIp, at_ms(0))));
}

TEST(RecognitionCore, ProbeMatchesTheSignaturePublishedWhenItsFlowOpened) {
  Core core{{GuardMode::kMonitor, /*adaptive_signatures=*/true}};
  core.on_dns(VoiceDomain::kAvs, kAvsIp);
  std::vector<Spike> spikes;
  const std::vector<std::uint32_t>& shipped = Core::shipped_signature();

  // A DNS-less reconnect to a new address starts probing the shipped
  // signature...
  Core::Flow probe = core.open_flow(1, /*udp=*/false, kAvsIp2, at_ms(0));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(core.upstream(probe, at_ms(static_cast<std::int64_t>(i)),
                            shipped[i], true, spikes),
              0);
  }
  // ...while three DNS-identified connections republish another one.
  teach(core, kFreshSignature, spikes);
  ASSERT_EQ(core.learner().signature(), kFreshSignature);

  // The probe completes against its snapshot and moves the AVS endpoint.
  Core::Step last = 0;
  for (std::size_t i = 4; i < shipped.size(); ++i) {
    last = core.upstream(probe, at_ms(static_cast<std::int64_t>(i)),
                         shipped[i], true, spikes);
  }
  EXPECT_EQ(last, Core::kAdopted);
  EXPECT_EQ(probe.kind, Core::Destination::kAvs);
  EXPECT_EQ(core.avs_ip(), kAvsIp2);

  // A flow opened after the republish probes the new signature instead.
  Core::Flow late = core.open_flow(2, /*udp=*/false, kOtherIp, at_ms(100));
  core.upstream(late, at_ms(100), shipped[0], true, spikes);
  EXPECT_TRUE(late.establishment_done);
  EXPECT_EQ(late.kind, Core::Destination::kUnmonitored);
  EXPECT_TRUE(spikes.empty());
}

TEST(RecognitionCore, ResetForgetsAddressesAndReseedsTheShippedSignature) {
  Core core{{GuardMode::kVoiceGuard, /*adaptive_signatures=*/true}};
  core.on_dns(VoiceDomain::kAvs, kAvsIp);
  core.on_dns(VoiceDomain::kGoogle, kGoogleIp);
  std::vector<Spike> spikes;
  teach(core, kFreshSignature, spikes);
  ASSERT_EQ(core.learner().signature(), kFreshSignature);

  core.reset();  // guard restart
  EXPECT_TRUE(core.avs_ip().is_unspecified());
  EXPECT_TRUE(core.google_ip().is_unspecified());
  EXPECT_EQ(core.destination(kAvsIp), Core::Destination::kUnmonitored);
  EXPECT_EQ(core.destination(kGoogleIp), Core::Destination::kUnmonitored);
  EXPECT_EQ(core.learner().signature(), Core::shipped_signature());
  EXPECT_EQ(core.learner().observations(), 0u);
  // The next AVS answer is a fresh acquisition.
  EXPECT_TRUE(core.on_dns(VoiceDomain::kAvs, kAvsIp));
}

}  // namespace
}  // namespace vg::guard
