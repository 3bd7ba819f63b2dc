/// Equivalence suite for the columnar replay path: BatchDecoder column-for-
/// field parity against TraceReader (including varint-boundary lengths and
/// fault frames), SpikeClassifier::feed_nonrule against feed, BatchReplayer
/// against the per-record Replayer oracle over the golden corpus and a large
/// randomized trace population, and the mmap/fread input paths against each
/// other.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
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
using trace::BatchDecoder;
using trace::BatchReplayer;
using trace::ColumnBatch;
using trace::FrameKind;
using trace::TraceBytes;
using trace::TraceReader;
using trace::TraceWriter;

namespace {

constexpr sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint{ms * 1'000'000};
}

const net::IpAddress kSpeaker{192, 168, 1, 200};
const net::IpAddress kAvsIp{10, 0, 0, 1};
const net::IpAddress kAvsIp2{10, 0, 0, 2};
const net::IpAddress kGoogleIp{10, 1, 0, 1};
const net::IpAddress kOtherIp{93, 184, 216, 34};
const net::IpAddress kOtherIp2{93, 184, 216, 35};

/// Lengths a random trace draws from: the whole rule alphabet (frequent
/// lengths, the pair, pattern firsts/tails), the heartbeat, varint encoding
/// boundaries, and plain non-alphabet lengths.
constexpr std::uint32_t kLenPool[] = {
    33,  41,  52,   75,   77,    113,   121,  131, 138, 250,
    277, 300, 650,  651,  1200,  127,   128,  100, 16383, 16384};

/// Inter-record gaps (ms) straddling every timer in the replayer: classify
/// timeout (300 ms), establishment window (1.5 s), spike idle gap (3 s).
constexpr std::int64_t kGapPoolMs[] = {0,   1,    5,    10,   40,  120,
                                       299, 300,  301,  1400, 1500, 1600,
                                       2900, 3000, 3100, 5000};

/// An alternative establishment prefix, consistently repeated so the
/// signature learner republishes mid-trace (>= min_length, not a prefix of
/// the shipped signature).
const std::vector<std::uint32_t> kAltSignature = {212, 90, 90, 333, 47, 47, 610, 18};

struct RandomTrace {
  std::vector<std::uint8_t> bytes;
  trace::ReplayOptions opts;
};

/// Generates one random but structurally valid trace exercising DNS-driven
/// AVS/Google identification, TCP establishment + learning, signature-based
/// re-identification, UDP flows, heartbeats, spikes across every rule, idle
/// gaps, timeouts, downstream noise and fault annotations.
RandomTrace random_trace(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  const auto pick = [&](auto&& pool) {
    return pool[rng() % std::size(pool)];
  };

  RandomTrace out;
  switch (rng() % 4) {
    case 0: out.opts.mode = guard::GuardMode::kVoiceGuard; break;
    case 1: out.opts.mode = guard::GuardMode::kNaive; break;
    default: out.opts.mode = guard::GuardMode::kMonitor; break;
  }

  TraceWriter::Meta meta;
  meta.scenario = "random";
  meta.seed = seed;
  TraceWriter w{meta};

  std::int64_t t_ms = 0;
  const auto advance = [&] {
    t_ms += pick(kGapPoolMs);
    return at_ms(t_ms);
  };

  const net::IpAddress dsts[] = {kAvsIp, kAvsIp2, kGoogleIp, kOtherIp,
                                 kOtherIp2};
  std::vector<int> flows;
  std::uint16_t next_port = 40000;

  w.dns_answer(trace::kDomainAvs, rng() % 2 ? kAvsIp : kAvsIp2, advance());
  if (rng() % 2) w.dns_answer(trace::kDomainGoogle, kGoogleIp, advance());

  const int events = 8 + static_cast<int>(rng() % 50);
  for (int e = 0; e < events; ++e) {
    switch (rng() % 8) {
      case 0: {  // new flow
        const net::Protocol proto =
            rng() % 4 == 0 ? net::Protocol::kUdp : net::Protocol::kTcp;
        const net::IpAddress dst = dsts[rng() % std::size(dsts)];
        const int f = w.add_flow(
            proto, net::Endpoint{kSpeaker, net::Port{next_port++}},
            net::Endpoint{dst, net::Port{443}}, advance());
        flows.push_back(f);
        break;
      }
      case 1: {  // DNS update (sometimes moving the AVS IP)
        if (rng() % 2) {
          w.dns_answer(trace::kDomainAvs, rng() % 2 ? kAvsIp : kAvsIp2,
                       advance());
        } else {
          w.dns_answer(trace::kDomainGoogle, kGoogleIp, advance());
        }
        break;
      }
      case 2: {  // establishment/signature burst on a fresh flow
        if (flows.empty()) break;
        const int f = flows[rng() % flows.size()];
        const auto& sig =
            rng() % 2 ? kAltSignature : guard::GuardBox::avs_signature();
        const std::size_t n = 1 + rng() % sig.size();
        for (std::size_t i = 0; i < n; ++i) {
          w.tls_record(f, true, net::TlsContentType::kApplicationData, sig[i],
                       at_ms(t_ms + static_cast<std::int64_t>(i)));
        }
        t_ms += static_cast<std::int64_t>(n);
        break;
      }
      case 3: {  // fault annotation
        w.fault(static_cast<std::uint8_t>(rng() % (trace::kMaxFaultCode + 1)),
                rng() % 1000, advance());
        break;
      }
      default: {  // a burst of data records
        if (flows.empty()) break;
        const int f = flows[rng() % flows.size()];
        const int burst = 1 + static_cast<int>(rng() % 8);
        for (int k = 0; k < burst; ++k) {
          const bool up = rng() % 4 != 0;
          const std::uint32_t len = pick(kLenPool);
          if (rng() % 5 == 0) {
            w.datagram(f, up, len, advance());
          } else {
            w.tls_record(f, up, net::TlsContentType::kApplicationData, len,
                         advance());
          }
        }
        break;
      }
    }
  }
  out.bytes = w.finish();
  return out;
}

void expect_equal_results(const trace::ReplayResult& want,
                          const trace::ReplayResult& got,
                          const std::string& context) {
  ASSERT_EQ(want.spikes.size(), got.spikes.size()) << context;
  for (std::size_t i = 0; i < want.spikes.size(); ++i) {
    const trace::ReplaySpike& a = want.spikes[i];
    const trace::ReplaySpike& b = got.spikes[i];
    ASSERT_EQ(a.flow_id, b.flow_id) << context << " spike " << i;
    ASSERT_EQ(a.udp, b.udp) << context << " spike " << i;
    ASSERT_EQ(a.start, b.start) << context << " spike " << i;
    ASSERT_EQ(a.prefix, b.prefix) << context << " spike " << i;
    ASSERT_EQ(a.cls, b.cls) << context << " spike " << i;
    ASSERT_EQ(a.rule, b.rule) << context << " spike " << i;
  }
  ASSERT_EQ(want.frames, got.frames) << context;
  ASSERT_EQ(want.flows, got.flows) << context;
  ASSERT_EQ(want.avs_flows, got.avs_flows) << context;
  ASSERT_EQ(want.google_flows, got.google_flows) << context;
  ASSERT_EQ(want.unmonitored_flows, got.unmonitored_flows) << context;
  ASSERT_EQ(want.tls_records, got.tls_records) << context;
  ASSERT_EQ(want.datagrams, got.datagrams) << context;
  ASSERT_EQ(want.dns_answers, got.dns_answers) << context;
  ASSERT_EQ(want.fault_frames, got.fault_frames) << context;
  ASSERT_EQ(want.heartbeats, got.heartbeats) << context;
  ASSERT_EQ(want.avs_dns_updates, got.avs_dns_updates) << context;
  ASSERT_EQ(want.avs_signature_updates, got.avs_signature_updates) << context;
  ASSERT_EQ(want.commands, got.commands) << context;
  ASSERT_EQ(want.responses, got.responses) << context;
  ASSERT_EQ(want.unknowns, got.unknowns) << context;
  ASSERT_EQ(want.end_time, got.end_time) << context;
}

std::vector<std::string> golden_corpus() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(VG_TRACE_DATA_DIR)) {
    if (entry.path().extension() == ".vgt") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// --- BatchDecoder vs TraceReader -------------------------------------------

/// Column-for-field parity of \p batch against the reference \p reader: meta,
/// flows, every record row, the sparse side columns, the tallies and the
/// flow-major postings.
void expect_columns_match(const TraceReader& reader, const ColumnBatch& batch,
                          const std::string& context) {
  ASSERT_EQ(batch.size(), reader.records().size()) << context;
  ASSERT_EQ(batch.meta.scenario, reader.meta().scenario) << context;
  ASSERT_EQ(batch.meta.seed, reader.meta().seed) << context;
  ASSERT_EQ(batch.meta.avs_domain, reader.meta().avs_domain) << context;
  ASSERT_EQ(batch.meta.google_domain, reader.meta().google_domain) << context;
  ASSERT_EQ(batch.flows.size(), reader.flows().size()) << context;
  for (std::size_t i = 0; i < batch.flows.size(); ++i) {
    ASSERT_EQ(batch.flows[i].protocol, reader.flows()[i].protocol) << context;
    ASSERT_EQ(batch.flows[i].speaker, reader.flows()[i].speaker) << context;
    ASSERT_EQ(batch.flows[i].server, reader.flows()[i].server) << context;
    ASSERT_EQ(batch.flows[i].first_seen, reader.flows()[i].first_seen)
        << context;
  }
  ASSERT_EQ(batch.end_time, reader.end_time()) << context;

  std::uint64_t tls = 0;
  std::uint64_t dgrams = 0;
  std::size_t dns = 0;
  std::size_t faults = 0;
  std::size_t begins = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const trace::TraceRecord& want = reader.records()[i];
    const trace::TraceRecord got = batch.record(i);
    ASSERT_EQ(got.kind, want.kind) << context << " record " << i;
    ASSERT_EQ(got.when, want.when) << context << " record " << i;
    ASSERT_EQ(got.flow, want.flow) << context << " record " << i;
    ASSERT_EQ(got.upstream, want.upstream) << context << " record " << i;
    ASSERT_EQ(got.tls_type, want.tls_type) << context << " record " << i;
    ASSERT_EQ(got.length, want.length) << context << " record " << i;
    ASSERT_EQ(got.domain_code, want.domain_code) << context << " record " << i;
    ASSERT_EQ(got.dns_answer, want.dns_answer) << context << " record " << i;
    ASSERT_EQ(got.fault_code, want.fault_code) << context << " record " << i;
    ASSERT_EQ(got.fault_param, want.fault_param) << context << " record " << i;
    tls += want.kind == FrameKind::kTlsRecord;
    dgrams += want.kind == FrameKind::kDatagram;
    dns += want.kind == FrameKind::kDnsAnswer;
    faults += want.kind == FrameKind::kFault;
    if (want.kind == FrameKind::kFlowBegin) {
      ASSERT_LT(begins, batch.flow_begin_at.size()) << context;
      ASSERT_EQ(batch.flow_begin_at[begins++], i) << context;
    }
  }
  ASSERT_EQ(batch.tls_records, tls) << context;
  ASSERT_EQ(batch.datagrams, dgrams) << context;
  ASSERT_EQ(batch.dns.size(), dns) << context;
  ASSERT_EQ(batch.faults.size(), faults) << context;
  ASSERT_EQ(batch.flow_begin_at.size(), begins) << context;

  // Postings: bucket k holds flow k's upstream data records in stream order.
  const std::vector<std::uint32_t>& off = batch.up_offsets;
  ASSERT_EQ(off.size(), reader.flows().size() + 1) << context;
  ASSERT_EQ(off.front(), 0u) << context;
  ASSERT_TRUE(std::is_sorted(off.begin(), off.end())) << context;
  for (const std::size_t n : {batch.up_when.size(), batch.up_len.size(),
                              batch.up_pos.size(), batch.up_cls.size(),
                              batch.up_tls.size()}) {
    ASSERT_EQ(n, off.back()) << context;
  }
  std::vector<std::uint32_t> next(off.begin(), off.end() - 1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const trace::TraceRecord& want = reader.records()[i];
    const bool data = want.kind == FrameKind::kTlsRecord ||
                      want.kind == FrameKind::kDatagram;
    if (!data || !want.upstream) continue;
    const auto k = static_cast<std::size_t>(want.flow);
    ASSERT_LT(next[k], off[k + 1]) << context << " record " << i;
    const std::uint32_t j = next[k]++;
    ASSERT_EQ(batch.up_pos[j], i) << context << " posting " << j;
    ASSERT_EQ(batch.up_when[j], want.when.ns()) << context << " posting " << j;
    ASSERT_EQ(batch.up_len[j], want.length) << context << " posting " << j;
    ASSERT_EQ(batch.up_tls[j], want.kind == FrameKind::kTlsRecord ? 1 : 0)
        << context << " posting " << j;
    ASSERT_EQ(batch.up_cls[j], guard::rules::len_class(batch.up_len[j]))
        << context << " posting " << j;
  }
  for (std::size_t k = 0; k + 1 < off.size(); ++k) {
    ASSERT_EQ(next[k], off[k + 1]) << context << " flow " << k;
  }
}

void expect_decoder_parity(const std::vector<std::uint8_t>& bytes,
                           const std::string& context) {
  const TraceReader reader = TraceReader::parse(bytes);
  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  expect_columns_match(reader, batch, context);
}

TEST(BatchDecoder, VarintBoundaryLengthsAndFaults) {
  TraceWriter::Meta meta;
  meta.scenario = "boundaries";
  meta.seed = 7;
  TraceWriter w{meta};
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50001}},
                           net::Endpoint{kAvsIp, net::Port{443}}, at_ms(1));
  std::int64_t t = 2;
  for (std::uint32_t len : {127u, 128u, 16383u, 16384u, 0u, 0xFFFFFFFFu}) {
    w.tls_record(f, true, net::TlsContentType::kApplicationData, len,
                 at_ms(t++));
    w.datagram(f, false, len, at_ms(t++));
  }
  w.fault(0, 127, at_ms(t++));
  w.fault(trace::kMaxFaultCode, 16384, at_ms(t++));
  expect_decoder_parity(w.finish(), "boundaries");
}

/// Decoder parity plus batch-vs-oracle replay parity in one shot, for the
/// hand-built boundary traces below. Returns the oracle result so callers
/// can pin absolute expectations on top of the equivalence.
trace::ReplayResult boundary_parity(const std::vector<std::uint8_t>& bytes,
                                    const std::string& context) {
  expect_decoder_parity(bytes, context);
  const trace::ReplayResult want =
      trace::Replayer{}.run(TraceReader::parse(bytes));
  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  trace::BatchReplayResult result;
  BatchReplayer{}.run(batch, result);
  expect_equal_results(want, result.to_replay_result(), context);
  return want;
}

TEST(BatchDecoder, EmptyTraceDecodesAndReplaysToNothing) {
  TraceWriter::Meta meta;
  meta.scenario = "empty";
  meta.seed = 3;
  const std::vector<std::uint8_t> bytes = TraceWriter{meta}.finish();

  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.flows.empty());
  // The counting-sort prefix sums must still be well-formed over zero flows.
  ASSERT_EQ(batch.up_offsets.size(), 1u);
  EXPECT_EQ(batch.up_offsets[0], 0u);

  const trace::ReplayResult r = boundary_parity(bytes, "empty");
  EXPECT_EQ(r.frames, 0u);
  EXPECT_EQ(r.flows, 0u);
  EXPECT_TRUE(r.spikes.empty());
}

TEST(BatchDecoder, SingleRecordTraces) {
  {  // Just one flow-begin frame: a flow with no traffic at all.
    TraceWriter::Meta meta;
    meta.scenario = "one-flow";
    meta.seed = 4;
    TraceWriter w{meta};
    w.add_flow(net::Protocol::kTcp, net::Endpoint{kSpeaker, net::Port{50001}},
               net::Endpoint{kAvsIp, net::Port{443}}, at_ms(5));
    const std::vector<std::uint8_t> bytes = w.finish();

    const ColumnBatch batch = BatchDecoder::decode(
        std::span<const std::uint8_t>{bytes.data(), bytes.size()});
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(batch.flows.size(), 1u);
    ASSERT_EQ(batch.flow_begin_at.size(), 1u);
    EXPECT_EQ(batch.flow_begin_at[0], 0u);
    ASSERT_EQ(batch.up_offsets.size(), 2u);
    EXPECT_EQ(batch.up_offsets[1], 0u);  // no upstream data records

    const trace::ReplayResult r = boundary_parity(bytes, "one-flow");
    EXPECT_EQ(r.frames, 1u);
    EXPECT_EQ(r.flows, 1u);
    EXPECT_TRUE(r.spikes.empty());
  }
  {  // Just one DNS answer: no flows anywhere in the trace.
    TraceWriter::Meta meta;
    meta.scenario = "one-dns";
    meta.seed = 5;
    TraceWriter w{meta};
    w.dns_answer(trace::kDomainAvs, kAvsIp, at_ms(5));
    const std::vector<std::uint8_t> bytes = w.finish();

    const ColumnBatch batch = BatchDecoder::decode(
        std::span<const std::uint8_t>{bytes.data(), bytes.size()});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_TRUE(batch.flows.empty());
    ASSERT_EQ(batch.dns.size(), 1u);
    EXPECT_EQ(batch.dns[0].index, 0u);

    const trace::ReplayResult r = boundary_parity(bytes, "one-dns");
    EXPECT_EQ(r.dns_answers, 1u);
    EXPECT_EQ(r.avs_dns_updates, 1u);
  }
}

TEST(BatchDecoder, FinalFrameFaultEndsTheTraceCleanly) {
  // A spike is still accumulating when the last frame arrives, and that last
  // frame is a fault annotation: flowless and outside the postings, yet it
  // defines end_time and the spike must still finalize at end of
  // trace exactly like the oracle.
  TraceWriter::Meta meta;
  meta.scenario = "tail-fault";
  meta.seed = 6;
  TraceWriter w{meta};
  w.dns_answer(trace::kDomainAvs, kAvsIp, at_ms(1));
  const int f = w.add_flow(net::Protocol::kTcp,
                           net::Endpoint{kSpeaker, net::Port{50002}},
                           net::Endpoint{kAvsIp, net::Port{443}}, at_ms(2));
  // Past the 1.5 s establishment window, so the records open a spike rather
  // than feeding the signature learner.
  w.tls_record(f, true, net::TlsContentType::kApplicationData, 75,
               at_ms(2000));
  w.tls_record(f, true, net::TlsContentType::kApplicationData, 77,
               at_ms(2001));
  w.fault(0, 1, at_ms(2002));
  const std::vector<std::uint8_t> bytes = w.finish();

  const ColumnBatch batch = BatchDecoder::decode(
      std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  ASSERT_EQ(batch.faults.size(), 1u);
  EXPECT_EQ(batch.faults[0].index, batch.size() - 1);
  EXPECT_EQ(batch.end_time, at_ms(2002));

  const trace::ReplayResult r = boundary_parity(bytes, "tail-fault");
  EXPECT_EQ(r.fault_frames, 1u);
  EXPECT_EQ(r.end_time, at_ms(2002));
  ASSERT_EQ(r.spikes.size(), 1u);
}

TEST(BatchDecoder, MatchesTraceReaderOnRandomTraces) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    expect_decoder_parity(random_trace(seed).bytes,
                          "seed " + std::to_string(seed));
  }
}

TEST(BatchDecoder, RejectsCorruptionLikeTraceReader) {
  const std::vector<std::uint8_t> good = random_trace(99).bytes;
  // Flip one byte at a time across a sample of offsets: wherever the strict
  // reader objects, the decoder must object too (and vice versa).
  for (std::size_t pos = 0; pos < good.size(); pos += 7) {
    std::vector<std::uint8_t> bad = good;
    bad[pos] ^= 0x41;
    bool reader_throws = false;
    bool decoder_throws = false;
    try {
      (void)TraceReader::parse(bad);
    } catch (const trace::TraceError&) {
      reader_throws = true;
    }
    try {
      (void)BatchDecoder::decode(
          std::span<const std::uint8_t>{bad.data(), bad.size()});
    } catch (const trace::TraceError&) {
      decoder_throws = true;
    }
    ASSERT_EQ(reader_throws, decoder_throws) << "offset " << pos;
  }
}

/// Runs \p bytes through both decoders, reusing \p batch as the bench and
/// `vgtrace` reuse theirs: both accept, or both reject with the same
/// diagnostic; when both accept, the columns match the reader field for field.
void expect_same_verdict(const std::vector<std::uint8_t>& bytes,
                         ColumnBatch& batch, const std::string& context) {
  std::optional<TraceReader> reader;
  std::string reader_error;
  try {
    reader.emplace(TraceReader::parse(bytes));
  } catch (const trace::TraceError& e) {
    reader_error = e.what();
  }
  bool decoded = false;
  std::string decoder_error;
  try {
    BatchDecoder::decode(
        std::span<const std::uint8_t>{bytes.data(), bytes.size()}, batch);
    decoded = true;
  } catch (const trace::TraceError& e) {
    decoder_error = e.what();
  }
  ASSERT_EQ(decoded, reader.has_value())
      << context << ": reader \"" << reader_error << "\", decoder \""
      << decoder_error << '"';
  ASSERT_EQ(decoder_error, reader_error) << context;
  if (reader) expect_columns_match(*reader, batch, context);
}

/// Offsets of the frames (their size bytes) of a well-formed trace.
std::vector<std::size_t> frame_offsets(const std::vector<std::uint8_t>& b) {
  std::size_t off = 24;  // magic, version, flags, seed, frame count
  for (int field = 0; field < 3; ++field) {  // the three header strings
    off += 2 + (b[off] | (std::size_t{b[off + 1]} << 8));
  }
  std::vector<std::size_t> frames;
  for (; off < b.size(); off += 1 + b[off] + 4) frames.push_back(off);
  return frames;
}

/// \p good itself, its truncation prefixes and its single-byte flips (^0x41,
/// ^0x80), each through expect_same_verdict. The first 64 offsets are dense;
/// past them a stride keeps each input near 400 offsets. A flip inside a
/// frame payload is tried once more re-sealed with a fresh CRC, so the
/// payload checks themselves are reached, not only the CRC.
void expect_same_verdicts_under_mutation(const std::vector<std::uint8_t>& good,
                                         ColumnBatch& batch,
                                         const std::string& name) {
  expect_same_verdict(good, batch, name);
  const std::vector<std::size_t> frames = frame_offsets(good);
  const std::size_t stride = 1 + good.size() / 400;
  for (std::size_t pos = 0; pos < good.size(); pos += pos < 64 ? 1 : stride) {
    const std::string at = name + " @" + std::to_string(pos);
    expect_same_verdict(
        std::vector<std::uint8_t>(good.begin(),
                                  good.begin() + static_cast<long>(pos)),
        batch, at + " prefix");
    const auto next_frame = std::upper_bound(frames.begin(), frames.end(), pos);
    const std::size_t frame =
        next_frame == frames.begin() ? good.size() : *(next_frame - 1);
    const bool in_payload =
        frame < good.size() && pos > frame && pos <= frame + good[frame];
    for (const std::uint8_t mask : {0x41, 0x80}) {
      std::vector<std::uint8_t> bad = good;
      bad[pos] ^= mask;
      const std::string flip = at + " ^" + std::to_string(mask);
      expect_same_verdict(bad, batch, flip);
      if (in_payload) {
        const std::uint8_t size = bad[frame];
        const std::uint32_t crc = trace::crc32(&bad[frame + 1], size);
        for (std::size_t i = 0; i < 4; ++i) {
          bad[frame + 1 + size + i] = static_cast<std::uint8_t>(crc >> (8 * i));
        }
        expect_same_verdict(bad, batch, flip + " resealed");
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// One TCP flow (flow 0), then hand-framed \p payloads with a valid size byte
/// and CRC each, and the header frame count patched to match.
std::vector<std::uint8_t> crafted_trace(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  TraceWriter::Meta meta;
  meta.scenario = "crafted";
  meta.seed = 8;
  TraceWriter w{meta};
  w.add_flow(net::Protocol::kTcp, net::Endpoint{kSpeaker, net::Port{50001}},
             net::Endpoint{kAvsIp, net::Port{443}}, at_ms(1));
  std::vector<std::uint8_t> b = w.finish();
  for (const std::vector<std::uint8_t>& p : payloads) {
    b.push_back(static_cast<std::uint8_t>(p.size()));
    b.insert(b.end(), p.begin(), p.end());
    trace::put_u32(b, trace::crc32(p.data(), p.size()));
  }
  b[trace::kFrameCountOffset] = static_cast<std::uint8_t>(1 + payloads.size());
  return b;
}

TEST(BatchDecoder, RejectsWithTheReaderDiagnostics) {
  // One batch throughout: a decode that threw halfway through a trace must
  // leave nothing behind that the next decode could see.
  ColumnBatch batch;
  for (const std::string& path : golden_corpus()) {
    expect_same_verdicts_under_mutation(trace::read_file(path), batch, path);
    if (HasFatalFailure()) return;
  }
  expect_same_verdicts_under_mutation(random_trace(99).bytes, batch,
                                      "random 99");
  if (HasFatalFailure()) return;

  // A DNS answer exactly at the 2^62 ns cap (the flow began at 1 ms), then
  // one a nanosecond past it.
  std::vector<std::uint8_t> at_cap = {2};
  trace::put_varint(at_cap, static_cast<std::uint64_t>(trace::kMaxTraceNs) -
                                1'000'000);
  at_cap.insert(at_cap.end(), {0, 10, 0, 0, 1});
  const std::vector<std::vector<std::vector<std::uint8_t>>> crafted = {
      {{0x77, 0}},                                   // unknown frame kind
      {{0, 0, 5, 0, 23, 1}},                         // record, undefined flow
      {{1, 0, 5, 0, 1}},                             // datagram, undefined flow
      {{0, 0, 0, 2, 23, 1}},                         // bad direction byte
      {{1, 0, 0, 2, 1}},                             // ... on a datagram
      {{0, 0, 0, 0, 23, 0x80, 0x80, 0x80, 0x80, 0x10}},  // length 2^32
      {{1, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10}},      // ... on a datagram
      {{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        0x7F}},                                      // 11-byte varint
      {{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0, 1,
        2, 3, 4}},                                   // varint bit 64 set
      {{2, 0, 2, 1, 2, 3, 4}},                       // bad DNS domain code
      {{2, 0, 0, 1, 2, 3, 4, 99}},                   // trailing payload bytes
      {{3, 0, 0, 0, 1, 2, 3, 4, 0, 80, 5, 6, 7, 8, 0xBB, 1}},  // flow not dense
      {{3, 0, 1, 2, 1, 2, 3, 4, 0, 80, 5, 6, 7, 8, 0xBB, 1}},  // bad protocol
      {{4, 0, 15, 0}},                               // bad fault code
      {{0}},                                         // truncated varint
      {{0, 0x80}},                                   // ... mid-varint
      {{0, 0, 0, 0}},                                // truncated u8
      {{2, 0, 0, 1, 2}},                             // truncated u32
      {{3, 0, 1, 0, 1, 2, 3, 4, 0}},                 // truncated u16
      {{4, 0, 14, 0x80, 0x01},                       // valid fault,
       {1, 1, 0, 1, 0xFF, 0x7F},                     // datagram,
       {0, 1, 0, 0, 23, 0x8A, 0x01}},                // TLS record
      {at_cap, {2, 1, 0, 10, 0, 0, 1}},              // past the time cap
  };
  for (std::size_t i = 0; i < crafted.size(); ++i) {
    expect_same_verdicts_under_mutation(crafted_trace(crafted[i]), batch,
                                        "crafted " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

// --- feed_nonrule vs feed ---------------------------------------------------

TEST(SpikeClassifier, FeedNonruleMatchesFeedForNonAlphabetLengths) {
  std::mt19937_64 rng{2024};
  for (int trial = 0; trial < 20000; ++trial) {
    guard::SpikeClassifier via_feed;
    guard::SpikeClassifier via_fast;
    const int n = 1 + static_cast<int>(rng() % 10);
    for (int k = 0; k < n; ++k) {
      const std::uint32_t len = static_cast<std::uint32_t>(rng() % 1000);
      const auto a = via_feed.feed(len);
      const auto b = guard::rules::len_class(len) != 0
                         ? via_fast.feed(len)
                         : via_fast.feed_nonrule(len);
      ASSERT_EQ(a, b) << "trial " << trial << " record " << k;
    }
    ASSERT_EQ(via_feed.finalize(), via_fast.finalize()) << "trial " << trial;
    ASSERT_EQ(via_feed.matched_rule(), via_fast.matched_rule())
        << "trial " << trial;
  }
}

// --- BatchReplayer vs Replayer ---------------------------------------------

TEST(BatchReplayer, MatchesOracleOnGoldenCorpus) {
  const std::vector<std::string> corpus = golden_corpus();
  ASSERT_FALSE(corpus.empty());
  BatchReplayer batch_replayer;
  for (const std::string& path : corpus) {
    const trace::ReplayResult want =
        trace::Replayer{}.run(TraceReader::load(path));
    const ColumnBatch batch = BatchDecoder::load(path);
    const trace::ReplayResult got =
        batch_replayer.run(batch).to_replay_result();
    expect_equal_results(want, got, path);
  }
}

TEST(BatchReplayer, MatchesOracleOnRandomTraces) {
  // One replayer + batch reused throughout, as the bench and `vgtrace` use
  // them: state leaking between runs would show up as divergence here.
  BatchReplayer monitor_replayer;
  ColumnBatch batch;
  trace::BatchReplayResult result;
  for (std::uint64_t seed = 0; seed < 50000; ++seed) {
    const RandomTrace rt = random_trace(seed);
    const trace::ReplayResult want =
        trace::Replayer{rt.opts}.run(TraceReader::parse(rt.bytes));
    BatchDecoder::decode(
        std::span<const std::uint8_t>{rt.bytes.data(), rt.bytes.size()},
        batch);
    if (rt.opts.mode == guard::GuardMode::kMonitor) {
      monitor_replayer.run(batch, result);
    } else {
      BatchReplayer{rt.opts}.run(batch, result);
    }
    expect_equal_results(want, result.to_replay_result(),
                         "seed " + std::to_string(seed));
  }
}

// --- mmap vs fread input ----------------------------------------------------

TEST(TraceBytes, MappedAndBufferedReadsAgree) {
  for (const std::string& path : golden_corpus()) {
    const TraceBytes mapped = TraceBytes::from_file(path);
    const TraceBytes buffered = TraceBytes::buffered_from_file(path);
    ASSERT_EQ(mapped.size(), buffered.size()) << path;
    ASSERT_TRUE(std::equal(mapped.data(), mapped.data() + mapped.size(),
                           buffered.data()))
        << path;

    const trace::ReplayResult via_map =
        trace::Replayer{}.run(TraceReader::parse(mapped.span()));
    const trace::ReplayResult via_buf =
        trace::Replayer{}.run(TraceReader::parse(buffered.span()));
    expect_equal_results(via_map, via_buf, path);
  }
}

TEST(TraceBytes, OpenErrorNamesPathAndReason) {
  const std::string path = "/nonexistent-dir-vg/test.vgt";
  try {
    (void)TraceReader::load(path);
    FAIL() << "expected TraceIoError";
  } catch (const trace::TraceIoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("No such file"), std::string::npos) << msg;
  }
}

}  // namespace
