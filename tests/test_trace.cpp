/// Unit tests for the wire-trace subsystem: CRC pinning, the on-disk byte
/// layout (cross-endianness hex fixture), writer/reader round-trip
/// properties, strict rejection of corrupted files, and the offline
/// Replayer's recognition semantics.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "trace/Replayer.h"
#include "trace/TraceReader.h"
#include "trace/TraceWriter.h"
#include "voiceguard/GuardBox.h"

using namespace vg;
using trace::FrameKind;
using trace::TraceError;
using trace::TraceReader;
using trace::TraceWriter;

namespace {

constexpr sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint{ms * 1'000'000};
}

const net::IpAddress kSpeaker{192, 168, 1, 200};
const net::IpAddress kAvs{10, 0, 0, 1};

TraceWriter::Meta small_meta() {
  TraceWriter::Meta m;
  m.scenario = "unit";
  m.seed = 42;
  return m;
}

/// One AVS flow identified by DNS, with its establishment burst done, ready
/// for spike records at >= 5 s.
TraceWriter avs_flow_writer() {
  TraceWriter w{small_meta()};
  w.dns_answer(trace::kDomainAvs, kAvs, at_ms(100));
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50001}},
                           net::Endpoint{kAvs, net::Port{443}}, at_ms(200));
  const auto& sig = guard::GuardBox::avs_signature();
  for (std::size_t i = 0; i < sig.size(); ++i) {
    w.tls_record(f, true, net::TlsContentType::kApplicationData, sig[i],
                 at_ms(210 + static_cast<std::int64_t>(i)));
  }
  return w;
}

void add_spike(TraceWriter& w, std::int64_t ms,
               std::initializer_list<std::uint32_t> lens, int flow = 0) {
  std::int64_t t = ms;
  for (std::uint32_t len : lens) {
    w.tls_record(flow, true, net::TlsContentType::kApplicationData, len,
                 at_ms(t));
    t += 10;
  }
}

trace::ReplayResult replay(TraceWriter& w) {
  return trace::Replayer{}.run(TraceReader::parse(w.finish()));
}

// --- CRC and layout pinning -------------------------------------------------

TEST(TraceFormat, Crc32CheckValue) {
  // The standard check value of CRC-32/ISO-HDLC: crc32("123456789").
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(trace::crc32(digits, sizeof digits), 0xCBF43926u);
  EXPECT_EQ(trace::crc32(nullptr, 0), 0x00000000u);
}

TEST(TraceFormat, VarintRoundTrip) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  16383, 16384,     0xFFFFFFFFull,
                                  0xFFFFFFFFFFFFFFFFull};
  for (std::uint64_t v : values) trace::put_varint(buf, v);
  trace::ByteCursor c{buf.data(), buf.size()};
  for (std::uint64_t v : values) EXPECT_EQ(c.varint(), v);
  EXPECT_TRUE(c.done());
}

/// The on-disk layout, pinned byte for byte against an independently
/// generated fixture. Catches any endianness or layout drift: the same bytes
/// must be produced (and parsed back) on every platform.
TEST(TraceFormat, GoldenHexFixture) {
  const char* kHex =
      "5647545201000000887766554433221105000000000000000200667801006101"
      "00670902c0843d000403020197daf1be1203c0843d00000201a8c00700040302"
      "01bb012912c6f00900a0c21e0000178a01c9eb18811203a0c21e01010201a8c0"
      "090008070605bb012ffd4e380801c0843d0101c60a01fe0e7d";
  std::vector<std::uint8_t> fixture;
  for (const char* p = kHex; p[0] != '\0' && p[1] != '\0'; p += 2) {
    auto nib = [](char c) {
      return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    fixture.push_back(static_cast<std::uint8_t>((nib(p[0]) << 4) | nib(p[1])));
  }
  ASSERT_EQ(fixture.size(), 121u);

  TraceWriter::Meta m;
  m.scenario = "fx";
  m.seed = 0x1122334455667788ull;
  m.avs_domain = "a";
  m.google_domain = "g";
  TraceWriter w{m};
  w.dns_answer(trace::kDomainAvs, net::IpAddress{1, 2, 3, 4}, at_ms(1));
  const int f0 = w.add_flow(
      net::Protocol::kTcp,
      net::Endpoint{net::IpAddress{192, 168, 1, 2}, net::Port{7}},
      net::Endpoint{net::IpAddress{1, 2, 3, 4}, net::Port{443}}, at_ms(2));
  w.tls_record(f0, true, net::TlsContentType::kApplicationData, 138,
               sim::TimePoint{2'500'000});
  const int f1 = w.add_flow(
      net::Protocol::kUdp,
      net::Endpoint{net::IpAddress{192, 168, 1, 2}, net::Port{9}},
      net::Endpoint{net::IpAddress{5, 6, 7, 8}, net::Port{443}}, at_ms(3));
  w.datagram(f1, false, 1350, at_ms(4));
  EXPECT_EQ(w.finish(), fixture);

  const TraceReader t = TraceReader::parse(fixture);
  EXPECT_EQ(t.meta().scenario, "fx");
  EXPECT_EQ(t.meta().seed, 0x1122334455667788ull);
  EXPECT_EQ(t.meta().avs_domain, "a");
  EXPECT_EQ(t.meta().google_domain, "g");
  ASSERT_EQ(t.records().size(), 5u);
  ASSERT_EQ(t.flows().size(), 2u);
  EXPECT_EQ(t.records()[0].kind, FrameKind::kDnsAnswer);
  EXPECT_EQ(t.records()[0].dns_answer, (net::IpAddress{1, 2, 3, 4}));
  EXPECT_EQ(t.records()[2].kind, FrameKind::kTlsRecord);
  EXPECT_EQ(t.records()[2].when.ns(), 2'500'000);
  EXPECT_EQ(t.records()[2].length, 138u);
  EXPECT_TRUE(t.records()[2].upstream);
  EXPECT_EQ(t.flows()[1].protocol, net::Protocol::kUdp);
  EXPECT_EQ(t.flows()[1].server.port, 443);
  EXPECT_EQ(t.records()[4].kind, FrameKind::kDatagram);
  EXPECT_FALSE(t.records()[4].upstream);
  EXPECT_EQ(t.records()[4].length, 1350u);
  EXPECT_EQ(t.end_time().ns(), 4'000'000);
}

// --- round-trip properties --------------------------------------------------

TEST(TraceRoundTrip, DecodedRecordsMatchWhatWasWritten) {
  std::mt19937_64 prng{7};
  for (int iter = 0; iter < 50; ++iter) {
    TraceWriter w{small_meta()};
    struct Written {
      FrameKind kind;
      std::int64_t ns;
      int flow;
      bool up;
      std::uint32_t len;
    };
    std::vector<Written> expect;
    std::int64_t t = 0;
    int flows = 0;
    const int n = 1 + static_cast<int>(prng() % 60);
    for (int i = 0; i < n; ++i) {
      t += static_cast<std::int64_t>(prng() % 5'000'000'000ull);
      const int kind = flows == 0 ? 3 : static_cast<int>(prng() % 4);
      switch (kind) {
        case 0: {
          const int f = static_cast<int>(prng() % flows);
          const bool up = prng() % 2 == 0;
          const std::uint32_t len = static_cast<std::uint32_t>(prng());
          w.tls_record(f, up, net::TlsContentType::kApplicationData, len,
                       sim::TimePoint{t});
          expect.push_back({FrameKind::kTlsRecord, t, f, up, len});
          break;
        }
        case 1: {
          const int f = static_cast<int>(prng() % flows);
          const bool up = prng() % 2 == 0;
          const std::uint32_t len = static_cast<std::uint32_t>(prng() % 65536);
          w.datagram(f, up, len, sim::TimePoint{t});
          expect.push_back({FrameKind::kDatagram, t, f, up, len});
          break;
        }
        case 2:
          w.dns_answer(prng() % 2 == 0 ? trace::kDomainAvs
                                       : trace::kDomainGoogle,
                       net::IpAddress{static_cast<std::uint32_t>(prng())},
                       sim::TimePoint{t});
          expect.push_back({FrameKind::kDnsAnswer, t, -1, true, 0});
          break;
        default: {
          const int f = w.add_flow(
              net::Protocol::kUdp,
              net::Endpoint{kSpeaker,
                            static_cast<net::Port>(40000 + flows)},
              net::Endpoint{net::IpAddress{static_cast<std::uint32_t>(prng())},
                            net::Port{443}},
              sim::TimePoint{t});
          EXPECT_EQ(f, flows);
          ++flows;
          expect.push_back({FrameKind::kFlowBegin, t, f, true, 0});
          break;
        }
      }
    }
    const TraceReader r = TraceReader::parse(w.finish());
    ASSERT_EQ(r.records().size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const trace::TraceRecord& rec = r.records()[i];
      EXPECT_EQ(rec.kind, expect[i].kind);
      EXPECT_EQ(rec.when.ns(), expect[i].ns);
      if (expect[i].flow >= 0) EXPECT_EQ(rec.flow, expect[i].flow);
      if (expect[i].kind == FrameKind::kTlsRecord ||
          expect[i].kind == FrameKind::kDatagram) {
        EXPECT_EQ(rec.upstream, expect[i].up);
        EXPECT_EQ(rec.length, expect[i].len);
      }
    }
  }
}

TEST(TraceRoundTrip, WriterIsDeterministic) {
  TraceWriter a = avs_flow_writer();
  TraceWriter b = avs_flow_writer();
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(TraceRoundTrip, WriterRejectsMisuse) {
  TraceWriter w{small_meta()};
  EXPECT_THROW(w.tls_record(0, true, net::TlsContentType::kApplicationData,
                            10, at_ms(1)),
               TraceError);  // no such flow yet
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{1}},
                           net::Endpoint{kAvs, net::Port{443}}, at_ms(5));
  EXPECT_THROW(w.datagram(f + 1, true, 10, at_ms(6)), TraceError);
  EXPECT_THROW(w.dns_answer(9, kAvs, at_ms(6)), TraceError);
  // Time must not run backwards, nor past the trace time cap.
  EXPECT_THROW(w.tls_record(f, true, net::TlsContentType::kApplicationData,
                            10, at_ms(4)),
               TraceError);
  EXPECT_THROW(w.datagram(f, true, 10, sim::TimePoint{trace::kMaxTraceNs + 1}),
               TraceError);
  w.finish();
  EXPECT_THROW(w.tls_record(f, true, net::TlsContentType::kApplicationData,
                            10, at_ms(10)),
               TraceError);  // fed after finish
}

TEST(TraceRoundTrip, FaultAnnotationsRoundTrip) {
  TraceWriter w = avs_flow_writer();
  w.fault(8, 45, at_ms(5000));  // fcm-degraded, 45 % drop
  add_spike(w, 6000, {134, 679, 1402});
  w.fault(12, 0, at_ms(9000));  // guard-restart
  const TraceReader r = TraceReader::parse(w.finish());

  std::vector<const trace::TraceRecord*> faults;
  for (const auto& rec : r.records()) {
    if (rec.kind == FrameKind::kFault) faults.push_back(&rec);
  }
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0]->fault_code, 8u);
  EXPECT_EQ(faults[0]->fault_param, 45u);
  EXPECT_EQ(faults[0]->when, at_ms(5000));
  EXPECT_EQ(faults[1]->fault_code, 12u);
  for (std::uint8_t c = 0; c <= trace::kMaxFaultCode; ++c) {
    EXPECT_GT(std::string{trace::fault_code_name(c)}.size(), 0u)
        << "code " << int{c};
  }
}

TEST(TraceRoundTrip, FaultAnnotationsDoNotPerturbRecognition) {
  // The same traffic with and without fault frames must recognize the same
  // spikes: annotations are metadata, not packets.
  TraceWriter with = avs_flow_writer();
  with.fault(0, 1, at_ms(4000));
  add_spike(with, 6000, {134, 679, 1402});
  with.fault(1, 1, at_ms(9000));
  TraceWriter without = avs_flow_writer();
  add_spike(without, 6000, {134, 679, 1402});

  const trace::ReplayResult a = replay(with);
  const trace::ReplayResult b = replay(without);
  EXPECT_EQ(a.fault_frames, 2u);
  EXPECT_EQ(b.fault_frames, 0u);
  ASSERT_EQ(a.spikes.size(), b.spikes.size());
  for (std::size_t i = 0; i < a.spikes.size(); ++i) {
    EXPECT_EQ(a.spikes[i].cls, b.spikes[i].cls);
    EXPECT_EQ(a.spikes[i].start, b.spikes[i].start);
  }
}

TEST(TraceRoundTrip, WriterRejectsBadFaultCode) {
  TraceWriter w{small_meta()};
  w.fault(trace::kMaxFaultCode, 0, at_ms(1));  // the last valid code
  EXPECT_THROW(w.fault(trace::kMaxFaultCode + 1, 0, at_ms(2)), TraceError);
}

// --- corrupted-file rejection -----------------------------------------------

std::vector<std::uint8_t> valid_bytes() {
  TraceWriter w = avs_flow_writer();
  return w.finish();
}

TEST(TraceCorruption, BadMagicRejected) {
  std::vector<std::uint8_t> b = valid_bytes();
  b[0] ^= 0xFF;
  EXPECT_THROW((void)TraceReader::parse(b), TraceError);
}

TEST(TraceCorruption, BadVersionRejected) {
  std::vector<std::uint8_t> b = valid_bytes();
  b[4] = 9;
  EXPECT_THROW((void)TraceReader::parse(b), TraceError);
}

TEST(TraceCorruption, ReservedFlagsRejected) {
  std::vector<std::uint8_t> b = valid_bytes();
  b[6] = 1;
  EXPECT_THROW((void)TraceReader::parse(b), TraceError);
}

TEST(TraceCorruption, EveryTruncationRejected) {
  const std::vector<std::uint8_t> b = valid_bytes();
  // Any proper prefix must fail cleanly: either a short read inside a frame
  // or a frame count that no longer matches the header. Never UB.
  for (std::size_t n = 0; n < b.size(); ++n) {
    const std::vector<std::uint8_t> cut(b.begin(),
                                        b.begin() + static_cast<long>(n));
    EXPECT_THROW((void)TraceReader::parse(cut), TraceError) << "prefix " << n;
  }
}

TEST(TraceCorruption, FlippedPayloadByteFailsCrc) {
  const std::vector<std::uint8_t> b = valid_bytes();
  // The first frame starts right after the header strings; find it by
  // parsing once, then flip one byte inside every frame payload.
  const std::size_t header =
      4 + 2 + 2 + 8 + 8 + (2 + small_meta().scenario.size()) +
      (2 + small_meta().avs_domain.size()) +
      (2 + small_meta().google_domain.size());
  std::size_t off = header;
  int frames = 0;
  while (off < b.size()) {
    const std::uint8_t size = b[off];
    std::vector<std::uint8_t> bad = b;
    bad[off + 1] ^= 0x40;  // first payload byte (the frame kind)
    EXPECT_THROW((void)TraceReader::parse(bad), TraceError)
        << "frame at " << off;
    off += 1 + size + 4;
    ++frames;
  }
  EXPECT_GT(frames, 10);
  EXPECT_EQ(off, b.size());
}

TEST(TraceCorruption, ZeroFrameSizeRejected) {
  TraceWriter w{small_meta()};
  std::vector<std::uint8_t> b = w.finish();
  b.push_back(0);  // frame with size 0
  EXPECT_THROW((void)TraceReader::parse(b), TraceError);
}

TEST(TraceCorruption, FrameCountMismatchRejected) {
  std::vector<std::uint8_t> b = valid_bytes();
  b[trace::kFrameCountOffset] ^= 0x01;
  EXPECT_THROW((void)TraceReader::parse(b), TraceError);
}

namespace {
/// Appends a syntactically framed payload (valid size + CRC) so parsing
/// reaches the payload decode, then patches the header frame count so the
/// count check cannot mask the decode error.
std::vector<std::uint8_t> with_crafted_frame(
    std::vector<std::uint8_t> payload) {
  TraceWriter w{small_meta()};
  std::vector<std::uint8_t> b = w.finish();
  b.push_back(static_cast<std::uint8_t>(payload.size()));
  b.insert(b.end(), payload.begin(), payload.end());
  trace::put_u32(b, trace::crc32(payload.data(), payload.size()));
  b[trace::kFrameCountOffset] = 1;
  return b;
}
}  // namespace

TEST(TraceCorruption, UnknownFrameKindRejected) {
  EXPECT_THROW((void)TraceReader::parse(with_crafted_frame({0x77, 0x00})),
               TraceError);
}

TEST(TraceCorruption, RecordOnUndefinedFlowRejected) {
  // kind=tls-record, dt=0, flow=5 (never defined), dir=0, type=23, len=1
  EXPECT_THROW(
      (void)TraceReader::parse(with_crafted_frame({0, 0, 5, 0, 23, 1})),
      TraceError);
}

TEST(TraceCorruption, BadDirectionByteRejected) {
  // One legitimate flow, then a hand-framed record with direction byte 2.
  TraceWriter w{small_meta()};
  w.add_flow(net::Protocol::kTcp, net::Endpoint{kSpeaker, net::Port{1}},
             net::Endpoint{kAvs, net::Port{443}}, at_ms(1));
  std::vector<std::uint8_t> b = w.finish();
  const std::vector<std::uint8_t> payload = {0, 0, 0, 2, 23, 1};
  b.push_back(static_cast<std::uint8_t>(payload.size()));
  b.insert(b.end(), payload.begin(), payload.end());
  trace::put_u32(b, trace::crc32(payload.data(), payload.size()));
  b[trace::kFrameCountOffset] = 2;
  EXPECT_THROW((void)TraceReader::parse(b), TraceError);
}

TEST(TraceCorruption, OverlongVarintRejected) {
  // An 11-byte varint overflows 64 bits; the cursor must throw, not wrap.
  EXPECT_THROW((void)TraceReader::parse(with_crafted_frame(
                   {0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                    0xFF, 0x7F})),
               TraceError);
}

TEST(TraceCorruption, TimestampPastTheCapRejectedByBothDecoders) {
  // A DNS answer exactly at the cap, then one more nanosecond: the second
  // frame's timestamp is past kMaxTraceNs.
  std::vector<std::uint8_t> b = TraceWriter{small_meta()}.finish();
  for (const std::uint64_t dt :
       {static_cast<std::uint64_t>(trace::kMaxTraceNs), std::uint64_t{1}}) {
    std::vector<std::uint8_t> payload = {2};  // kind = DNS answer
    trace::put_varint(payload, dt);
    payload.insert(payload.end(), {0, 1, 0, 0, 10});  // AVS, 10.0.0.1
    b.push_back(static_cast<std::uint8_t>(payload.size()));
    b.insert(b.end(), payload.begin(), payload.end());
    trace::put_u32(b, trace::crc32(payload.data(), payload.size()));
  }
  b[trace::kFrameCountOffset] = 2;

  std::string reader_error;
  std::string decoder_error;
  try {
    (void)TraceReader::parse(b);
  } catch (const TraceError& e) {
    reader_error = e.what();
  }
  try {
    (void)trace::BatchDecoder::decode(
        std::span<const std::uint8_t>{b.data(), b.size()});
  } catch (const TraceError& e) {
    decoder_error = e.what();
  }
  EXPECT_NE(reader_error.find("trace time cap"), std::string::npos)
      << reader_error;
  EXPECT_EQ(decoder_error, reader_error);
}

TEST(TraceRoundTrip, TraceEndingAtTheCapReplaysAlikeInBothEngines) {
  // A spike opened 100 ms before the cap: its classify deadline lies past
  // kMaxTraceNs, and the establishment close-out and idle sentinel are
  // computed from times near it. All stay in range; both engines agree.
  const sim::TimePoint cap{trace::kMaxTraceNs};
  const sim::TimePoint t0 = cap - sim::seconds(5);
  TraceWriter w{small_meta()};
  w.dns_answer(trace::kDomainAvs, kAvs, t0);
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50001}},
                           net::Endpoint{kAvs, net::Port{443}}, t0);
  const auto app = net::TlsContentType::kApplicationData;
  w.tls_record(f, true, app, 63, t0 + sim::milliseconds(1));
  w.tls_record(f, true, app, 33, t0 + sim::milliseconds(2));
  w.tls_record(f, true, app, 300, cap - sim::milliseconds(100));
  w.tls_record(f, true, app, 400, cap);
  const std::vector<std::uint8_t> bytes = w.finish();

  const trace::ReplayResult oracle =
      trace::Replayer{}.run(TraceReader::parse(bytes));
  const trace::ReplayResult batch =
      trace::BatchReplayer{}
          .run(trace::BatchDecoder::decode(
              std::span<const std::uint8_t>{bytes.data(), bytes.size()}))
          .to_replay_result();
  EXPECT_EQ(oracle.end_time, cap);
  ASSERT_EQ(oracle.spikes.size(), 1u);
  EXPECT_EQ(oracle.spikes[0].prefix, (std::vector<std::uint32_t>{300, 400}));
  EXPECT_EQ(oracle.spikes[0].cls, guard::SpikeClass::kUnknown);
  ASSERT_EQ(batch.spikes.size(), 1u);
  EXPECT_EQ(batch.spikes[0].start, oracle.spikes[0].start);
  EXPECT_EQ(batch.spikes[0].prefix, oracle.spikes[0].prefix);
  EXPECT_EQ(batch.spikes[0].cls, oracle.spikes[0].cls);
}

TEST(TraceCorruption, BadFaultCodeRejected) {
  // kind=fault, dt=0, code=15 (> kMaxFaultCode), param=0.
  EXPECT_THROW((void)TraceReader::parse(with_crafted_frame({4, 0, 15, 0})),
               TraceError);
}

TEST(TraceCorruption, TrailingPayloadBytesRejected) {
  // A DNS frame with one extra byte after the answer IP.
  EXPECT_THROW((void)TraceReader::parse(
                   with_crafted_frame({2, 0, 0, 1, 2, 3, 4, 99})),
               TraceError);
}

// --- Replayer semantics -----------------------------------------------------

TEST(Replayer, RecognizesP138CommandSpike) {
  TraceWriter w = avs_flow_writer();
  add_spike(w, 5000, {138, 900, 1200});
  const trace::ReplayResult r = replay(w);
  ASSERT_EQ(r.spikes.size(), 1u);
  EXPECT_EQ(r.spikes[0].flow_id, 1u);
  EXPECT_FALSE(r.spikes[0].udp);
  EXPECT_EQ(r.spikes[0].start, at_ms(5000));
  EXPECT_EQ(r.spikes[0].cls, guard::SpikeClass::kCommand);
  EXPECT_EQ(r.spikes[0].rule, guard::MatchedRule::kP138);
  // The verdict landed on the first packet; like the live guard, the prefix
  // stops growing once the spike is classified.
  EXPECT_EQ(r.spikes[0].prefix, (std::vector<std::uint32_t>{138}));
}

TEST(Replayer, RecognizesResponsePair) {
  TraceWriter w = avs_flow_writer();
  add_spike(w, 5000, {180, 77, 33});
  const trace::ReplayResult r = replay(w);
  ASSERT_EQ(r.spikes.size(), 1u);
  EXPECT_EQ(r.spikes[0].cls, guard::SpikeClass::kResponse);
  EXPECT_EQ(r.spikes[0].rule, guard::MatchedRule::kResponsePair);
}

TEST(Replayer, HeartbeatsNeverStartSpikes) {
  TraceWriter w = avs_flow_writer();
  for (int i = 0; i < 10; ++i) add_spike(w, 5000 + i * 4000, {41});
  const trace::ReplayResult r = replay(w);
  EXPECT_EQ(r.spikes.size(), 0u);
  EXPECT_EQ(r.heartbeats, 10u);
}

TEST(Replayer, HeartbeatDoesNotResetIdleClock) {
  TraceWriter w = avs_flow_writer();
  add_spike(w, 5000, {138});
  // A heartbeat 2 s later must not extend the spike's idle window: the next
  // record 2 s after the heartbeat is 4 s after the real traffic, so it
  // starts a fresh spike.
  add_spike(w, 7000, {41});
  add_spike(w, 9000, {75});
  const trace::ReplayResult r = replay(w);
  ASSERT_EQ(r.spikes.size(), 2u);
  EXPECT_EQ(r.spikes[1].rule, guard::MatchedRule::kP75);
}

TEST(Replayer, EstablishmentBurstIsExempt) {
  // The 16-packet signature includes lengths (131, 77, 33...) that would
  // otherwise look like spikes; inside the establishment window they must
  // classify nothing.
  TraceWriter w = avs_flow_writer();
  const trace::ReplayResult r = replay(w);
  EXPECT_EQ(r.spikes.size(), 0u);
  EXPECT_EQ(r.avs_flows, 1u);
}

TEST(Replayer, ContinuationDoesNotSplitSpike) {
  TraceWriter w = avs_flow_writer();
  add_spike(w, 5000, {99, 98});
  add_spike(w, 6500, {97});  // 1.5 s gap: same spike window, already decided
  const trace::ReplayResult r = replay(w);
  ASSERT_EQ(r.spikes.size(), 1u);
  // The classify timeout fired at +300 ms, before the continuation record,
  // so only the first two lengths reached the classifier.
  EXPECT_EQ(r.spikes[0].cls, guard::SpikeClass::kUnknown);
  EXPECT_EQ(r.spikes[0].prefix, (std::vector<std::uint32_t>{99, 98}));
}

TEST(Replayer, IdleGapStartsNewSpike) {
  TraceWriter w = avs_flow_writer();
  add_spike(w, 5000, {138});
  add_spike(w, 8100, {138});  // > 3 s after the previous record
  const trace::ReplayResult r = replay(w);
  ASSERT_EQ(r.spikes.size(), 2u);
}

TEST(Replayer, TimeoutFinalizesUndecidedSpike) {
  TraceWriter w = avs_flow_writer();
  add_spike(w, 5000, {500, 131});  // could still become a fixed pattern
  const trace::ReplayResult r = replay(w);
  ASSERT_EQ(r.spikes.size(), 1u);
  EXPECT_EQ(r.spikes[0].cls, guard::SpikeClass::kUnknown);
  EXPECT_EQ(r.spikes[0].rule, guard::MatchedRule::kNone);
}

TEST(Replayer, SignatureAdoptionTracksSilentIpMove) {
  TraceWriter w = avs_flow_writer();
  // A second flow to an unknown IP that replays the establishment signature:
  // the recognizer must adopt it as the new AVS IP and classify its spikes.
  const net::IpAddress moved{10, 0, 0, 7};
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50002}},
                           net::Endpoint{moved, net::Port{443}}, at_ms(60000));
  const auto& sig = guard::GuardBox::avs_signature();
  for (std::size_t i = 0; i < sig.size(); ++i) {
    w.tls_record(f, true, net::TlsContentType::kApplicationData, sig[i],
                 at_ms(60010 + static_cast<std::int64_t>(i)));
  }
  add_spike(w, 65000, {138}, f);
  const trace::ReplayResult r = replay(w);
  EXPECT_EQ(r.avs_signature_updates, 1u);
  ASSERT_EQ(r.spikes.size(), 1u);
  EXPECT_EQ(r.spikes[0].flow_id, 2u);
  EXPECT_EQ(r.spikes[0].cls, guard::SpikeClass::kCommand);
}

TEST(Replayer, NonSignatureFlowStaysUnmonitored) {
  TraceWriter w = avs_flow_writer();
  const int f = w.add_flow(
      net::Protocol::kTcp, net::Endpoint{kSpeaker, net::Port{50002}},
      net::Endpoint{net::IpAddress{10, 9, 9, 9}, net::Port{443}}, at_ms(60000));
  add_spike(w, 60010, {138, 138, 138}, f);  // would be a command if monitored
  const trace::ReplayResult r = replay(w);
  EXPECT_EQ(r.spikes.size(), 0u);
  EXPECT_EQ(r.unmonitored_flows, 1u);
}

TEST(Replayer, GoogleQuicSpikesAreSegmented) {
  TraceWriter w{small_meta()};
  const net::IpAddress goog{10, 0, 0, 9};
  w.dns_answer(trace::kDomainGoogle, goog, at_ms(100));
  const int f = w.add_flow(net::Protocol::kUdp,
                           net::Endpoint{kSpeaker, net::Port{40000}},
                           net::Endpoint{goog, net::Port{443}}, at_ms(200));
  w.datagram(f, true, 700, at_ms(200));
  w.datagram(f, true, 1350, at_ms(210));
  w.datagram(f, false, 900, at_ms(300));  // downstream never classified
  w.datagram(f, true, 700, at_ms(5000));  // new spike after idle
  const trace::ReplayResult r = replay(w);
  EXPECT_EQ(r.google_flows, 1u);
  ASSERT_EQ(r.spikes.size(), 2u);
  EXPECT_TRUE(r.spikes[0].udp);
  EXPECT_EQ(r.spikes[0].prefix, (std::vector<std::uint32_t>{700, 1350}));
}

TEST(Replayer, VoiceGuardModeForcesGoogleCommands) {
  TraceWriter w{small_meta()};
  const net::IpAddress goog{10, 0, 0, 9};
  w.dns_answer(trace::kDomainGoogle, goog, at_ms(100));
  const int f = w.add_flow(net::Protocol::kUdp,
                           net::Endpoint{kSpeaker, net::Port{40000}},
                           net::Endpoint{goog, net::Port{443}}, at_ms(200));
  w.datagram(f, true, 700, at_ms(200));
  trace::ReplayOptions opts;
  opts.mode = guard::GuardMode::kVoiceGuard;
  const trace::ReplayResult r =
      trace::Replayer{opts}.run(TraceReader::parse(w.finish()));
  ASSERT_EQ(r.spikes.size(), 1u);
  EXPECT_EQ(r.spikes[0].cls, guard::SpikeClass::kCommand);
  EXPECT_EQ(r.spikes[0].rule, guard::MatchedRule::kNone);
}

}  // namespace
