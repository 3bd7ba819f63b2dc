#include "trace/BatchDecoder.h"

#include <algorithm>
#include <limits>
#include <string>

#include "trace/TraceInput.h"

namespace vg::trace {

namespace {

// Rejections leave the frame loop through these out-of-line throws, so every
// check there inlines to a compare and a predicted branch. The wording is
// TraceReader's, check for check.
[[noreturn, gnu::cold, gnu::noinline]] void reject(const char* what) {
  throw TraceError{what};
}
[[noreturn, gnu::cold, gnu::noinline]] void truncated(const char* what) {
  throw TraceError{std::string{"truncated trace: expected "} + what};
}
[[noreturn, gnu::cold, gnu::noinline]] void reject_crc(std::uint64_t frame) {
  throw TraceError{"frame CRC mismatch at frame " + std::to_string(frame)};
}
[[noreturn, gnu::cold, gnu::noinline]] void reject_kind(std::uint8_t kind) {
  throw TraceError{"unknown frame kind " + std::to_string(kind)};
}

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// ByteCursor's reads over one frame payload (at most 255 bytes), with the
/// same bounds checks in the same order and the same diagnostics. It is kept
/// apart from ByteCursor so that TraceReader, the reference this decoder is
/// tested against, shares none of the fast path.
class PayloadCursor {
 public:
  PayloadCursor(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  [[nodiscard]] bool done() const { return p_ == end_; }

  std::uint8_t u8() {
    need(1, "u8");
    return *p_++;
  }
  std::uint16_t u16() {
    need(2, "u16");
    const auto v = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4, "u32");
    const std::uint32_t v = le32(p_);
    p_ += 4;
    return v;
  }
  /// Unsigned LEB128. Only the tenth byte can overflow 64 bits, so the
  /// overflow checks sit after the loop over the first nine.
  [[gnu::always_inline]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 63; shift += 7) {
      need(1, "varint");
      const std::uint8_t b = *p_++;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (b < 0x80) return v;
    }
    need(1, "varint");
    const std::uint8_t last = *p_++;
    if ((last & 0x7E) != 0) reject("varint overflows 64 bits");
    if (last < 0x80) return v | (static_cast<std::uint64_t>(last) << 63);
    need(1, "varint");  // an eleventh byte is always an overflow
    reject("varint overflows 64 bits");
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (static_cast<std::size_t>(end_ - p_) < n) [[unlikely]] truncated(what);
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace

TraceRecord ColumnBatch::record(std::size_t i) const {
  TraceRecord rec;
  rec.kind = static_cast<FrameKind>(kinds[i]);
  rec.when = sim::TimePoint{when_ns[i]};
  rec.flow = flow[i];
  rec.upstream = upstream[i] != 0;
  rec.tls_type = static_cast<net::TlsContentType>(tls_types[i]);
  rec.length = lengths[i];
  const auto row_is = [i](const auto& ev) { return ev.index < i; };
  if (rec.kind == FrameKind::kDnsAnswer) {
    const auto it = std::partition_point(dns.begin(), dns.end(), row_is);
    rec.domain_code = it->domain_code;
    rec.dns_answer = it->answer;
  } else if (rec.kind == FrameKind::kFault) {
    const auto it = std::partition_point(faults.begin(), faults.end(), row_is);
    rec.fault_code = it->code;
    rec.fault_param = it->param;
  }
  return rec;
}

ColumnBatch BatchDecoder::decode(std::span<const std::uint8_t> bytes) {
  ColumnBatch out;
  decode(bytes, out);
  return out;
}

void BatchDecoder::decode(std::span<const std::uint8_t> bytes,
                          ColumnBatch& out) {
  out.flows.clear();
  out.kinds.clear();
  out.upstream.clear();
  out.tls_types.clear();
  out.flow.clear();
  out.when_ns.clear();
  out.lengths.clear();
  out.dns.clear();
  out.faults.clear();
  out.flow_begin_at.clear();
  out.up_offsets.assign(1, 0);
  out.tls_records = 0;
  out.datagrams = 0;
  out.end_time = sim::TimePoint{};

  ByteCursor c{bytes.data(), bytes.size()};
  const std::uint8_t* magic = c.bytes(kMagic.size(), "magic");
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (magic[i] != kMagic[i]) throw TraceError{"bad magic: not a .vgt trace"};
  }
  const std::uint16_t version = c.u16();
  if (version != kVersion) {
    throw TraceError{"unsupported trace version " + std::to_string(version)};
  }
  const std::uint16_t flags = c.u16();
  if (flags != 0) throw TraceError{"unsupported header flags"};

  out.meta.seed = c.u64();
  const std::uint64_t declared_frames = c.u64();
  out.meta.scenario = c.string();
  out.meta.avs_domain = c.string();
  out.meta.google_domain = c.string();

  // A frame is >= 6 bytes on the wire (size byte, >= 1 payload byte, CRC),
  // so remaining/6 bounds the frame count — reserve the columns once.
  const std::size_t bound = c.remaining() / 6;
  out.kinds.reserve(bound);
  out.upstream.reserve(bound);
  out.tls_types.reserve(bound);
  out.flow.reserve(bound);
  out.when_ns.reserve(bound);
  out.lengths.reserve(bound);

  constexpr std::uint8_t kTlsByte =
      static_cast<std::uint8_t>(FrameKind::kTlsRecord);
  constexpr std::uint8_t kDgramByte =
      static_cast<std::uint8_t>(FrameKind::kDatagram);
  constexpr std::uint8_t kAppData =
      static_cast<std::uint8_t>(net::TlsContentType::kApplicationData);

  // One pass over the frames: each frame's extent is checked once, its
  // payload parsed in place, and each flow's upstream data records counted
  // into up_offsets[flow + 1] for the postings below.
  const std::uint8_t* const end = bytes.data() + bytes.size();
  const std::uint8_t* p = end - c.remaining();
  std::int64_t last_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t tls_records = 0;
  std::uint64_t datagrams = 0;
  std::size_t flows = 0;
  while (p != end) {
    const std::size_t size = *p;
    if (size == 0) reject("zero-size frame");
    const auto left = static_cast<std::size_t>(end - p) - 1;
    if (left < size + 4) truncated(left < size ? "frame payload" : "u32");
    const std::uint8_t* const payload = p + 1;
    p = payload + size + 4;
    if (crc32(payload, size) != le32(payload + size)) reject_crc(frames);

    PayloadCursor q{payload, size};
    const std::uint8_t kind = q.u8();
    last_ns = checked_advance(last_ns, q.varint());

    std::uint8_t up = 1;
    std::uint8_t tls_type = kAppData;
    std::int32_t flow_index = -1;
    std::uint32_t length = 0;
    switch (kind) {
      case kTlsByte:
      case kDgramByte: {
        const bool tls = kind == kTlsByte;
        const std::uint64_t flow = q.varint();
        if (flow >= flows) {
          reject(tls ? "record references undefined flow"
                     : "datagram references undefined flow");
        }
        flow_index = static_cast<std::int32_t>(flow);
        const std::uint8_t dir = q.u8();
        if (dir > 1) reject("bad direction byte");
        up = dir == 0 ? 1 : 0;
        if (tls) tls_type = q.u8();
        const std::uint64_t len = q.varint();
        if (len > 0xFFFFFFFFull) {
          reject(tls ? "record length overflows" : "datagram length overflows");
        }
        length = static_cast<std::uint32_t>(len);
        out.up_offsets[flow + 1] += up;
        ++(tls ? tls_records : datagrams);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kDnsAnswer): {
        const std::uint8_t domain = q.u8();
        if (domain != kDomainAvs && domain != kDomainGoogle) {
          reject("bad DNS domain code");
        }
        out.dns.push_back({frames, domain, net::IpAddress{q.u32()}});
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFlowBegin): {
        const std::uint64_t flow = q.varint();
        if (flow != flows) reject("flow indices must be dense and in order");
        flow_index = static_cast<std::int32_t>(flow);
        const std::uint8_t proto = q.u8();
        if (proto > 1) reject("bad protocol byte");
        TraceFlow fl;
        fl.protocol = proto == 1 ? net::Protocol::kUdp : net::Protocol::kTcp;
        fl.speaker.ip = net::IpAddress{q.u32()};
        fl.speaker.port = q.u16();
        fl.server.ip = net::IpAddress{q.u32()};
        fl.server.port = q.u16();
        fl.first_seen = sim::TimePoint{last_ns};
        out.flows.push_back(fl);
        out.flow_begin_at.push_back(frames);
        out.up_offsets.push_back(0);
        ++flows;
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFault): {
        const std::uint8_t code = q.u8();
        if (code > kMaxFaultCode) reject("bad fault code");
        out.faults.push_back({frames, code, q.varint()});
        break;
      }
      default:
        reject_kind(kind);
    }
    if (!q.done()) reject("trailing bytes in frame payload");

    out.kinds.push_back(kind);
    out.upstream.push_back(up);
    out.tls_types.push_back(tls_type);
    out.flow.push_back(flow_index);
    out.when_ns.push_back(last_ns);
    out.lengths.push_back(length);
    ++frames;
  }

  if (frames != declared_frames) {
    throw TraceError{"frame count mismatch: header says " +
                     std::to_string(declared_frames) + ", stream has " +
                     std::to_string(frames)};
  }
  out.tls_records = tls_records;
  out.datagrams = datagrams;
  out.end_time = sim::TimePoint{last_ns};

  // Flow-major postings: prefix-sum the per-flow counts, then scatter the
  // upstream data records into their flows' buckets. The rows are 32-bit; a
  // varint delta stream cannot reach 2^32 frames without the header count
  // (u64) still agreeing, so guard rather than truncate.
  const std::size_t n = frames;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw TraceError{"trace too large for flow-major postings"};
  }
  std::vector<std::uint32_t>& off = out.up_offsets;
  for (std::size_t k = 0; k < flows; ++k) off[k + 1] += off[k];
  const std::uint32_t total = off[flows];
  out.up_when.resize(total);
  out.up_len.resize(total);
  out.up_pos.resize(total);
  out.up_cls.resize(total);
  out.up_tls.resize(total);
  out.up_fill.assign(off.begin(), off.end() - 1);
  const std::uint8_t* const kind = out.kinds.data();
  const std::uint8_t* const up = out.upstream.data();
  const std::int32_t* const fl = out.flow.data();
  const std::int64_t* const when = out.when_ns.data();
  const std::uint32_t* const len = out.lengths.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (kind[i] > kDgramByte || up[i] == 0) continue;
    const std::uint32_t at = out.up_fill[static_cast<std::size_t>(fl[i])]++;
    out.up_when[at] = when[i];
    out.up_len[at] = len[i];
    out.up_pos[at] = static_cast<std::uint32_t>(i);
    out.up_cls[at] = guard::rules::len_class(len[i]);
    out.up_tls[at] = kind[i] == kTlsByte ? 1 : 0;
  }
}

ColumnBatch BatchDecoder::load(const std::string& path) {
  const TraceBytes bytes = TraceBytes::from_file(path);
  try {
    return decode(bytes.span());
  } catch (const TraceIoError&) {
    throw;
  } catch (const TraceError& e) {
    throw TraceError{path + ": " + e.what()};
  }
}

}  // namespace vg::trace
