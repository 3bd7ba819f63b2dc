#include "trace/BatchDecoder.h"

#include <algorithm>
#include <limits>

#include "trace/TraceInput.h"

namespace vg::trace {

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
  out.rule_class.clear();
  out.flow.clear();
  out.when_ns.clear();
  out.lengths.clear();
  out.dns.clear();
  out.faults.clear();
  out.flow_begin_at.clear();
  out.attention.clear();
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

  std::int64_t last_ns = 0;
  std::uint64_t frames = 0;
  while (!c.done()) {
    const std::uint8_t size = c.u8();
    if (size == 0) throw TraceError{"zero-size frame"};
    const std::uint8_t* payload = c.bytes(size, "frame payload");
    const std::uint32_t stored_crc = c.u32();
    if (crc32(payload, size) != stored_crc) {
      throw TraceError{"frame CRC mismatch at frame " + std::to_string(frames)};
    }

    ByteCursor p{payload, size};
    const std::uint8_t kind_byte = p.u8();
    last_ns = checked_advance(last_ns, p.varint());

    std::uint8_t up = 1;
    std::uint8_t tls_type =
        static_cast<std::uint8_t>(net::TlsContentType::kApplicationData);
    std::int32_t flow_index = -1;
    std::uint32_t length = 0;

    switch (kind_byte) {
      case static_cast<std::uint8_t>(FrameKind::kTlsRecord):
      case static_cast<std::uint8_t>(FrameKind::kDatagram): {
        const bool tls =
            kind_byte == static_cast<std::uint8_t>(FrameKind::kTlsRecord);
        const std::uint64_t flow = p.varint();
        if (flow >= out.flows.size()) {
          throw TraceError{tls ? "record references undefined flow"
                               : "datagram references undefined flow"};
        }
        flow_index = static_cast<std::int32_t>(flow);
        const std::uint8_t dir = p.u8();
        if (dir > 1) throw TraceError{"bad direction byte"};
        up = dir == 0 ? 1 : 0;
        if (tls) tls_type = p.u8();
        const std::uint64_t len = p.varint();
        if (len > 0xFFFFFFFFull) {
          throw TraceError{tls ? "record length overflows"
                               : "datagram length overflows"};
        }
        length = static_cast<std::uint32_t>(len);
        ++(tls ? out.tls_records : out.datagrams);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kDnsAnswer): {
        const std::uint8_t domain = p.u8();
        if (domain != kDomainAvs && domain != kDomainGoogle) {
          throw TraceError{"bad DNS domain code"};
        }
        out.dns.push_back({frames, domain, net::IpAddress{p.u32()}});
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFlowBegin): {
        const std::uint64_t flow = p.varint();
        if (flow != out.flows.size()) {
          throw TraceError{"flow indices must be dense and in order"};
        }
        flow_index = static_cast<std::int32_t>(flow);
        const std::uint8_t proto = p.u8();
        if (proto > 1) throw TraceError{"bad protocol byte"};
        TraceFlow fl;
        fl.protocol = proto == 1 ? net::Protocol::kUdp : net::Protocol::kTcp;
        fl.speaker.ip = net::IpAddress{p.u32()};
        fl.speaker.port = p.u16();
        fl.server.ip = net::IpAddress{p.u32()};
        fl.server.port = p.u16();
        fl.first_seen = sim::TimePoint{last_ns};
        out.flows.push_back(fl);
        out.flow_begin_at.push_back(frames);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFault): {
        const std::uint8_t code = p.u8();
        if (code > kMaxFaultCode) throw TraceError{"bad fault code"};
        out.faults.push_back({frames, code, p.varint()});
        break;
      }
      default:
        throw TraceError{"unknown frame kind " + std::to_string(kind_byte)};
    }
    if (!p.done()) throw TraceError{"trailing bytes in frame payload"};

    out.kinds.push_back(kind_byte);
    out.upstream.push_back(up);
    out.tls_types.push_back(tls_type);
    out.flow.push_back(flow_index);
    out.when_ns.push_back(last_ns);
    out.lengths.push_back(length);
    out.end_time = sim::TimePoint{last_ns};
    ++frames;
  }

  if (frames != declared_frames) {
    throw TraceError{"frame count mismatch: header says " +
                     std::to_string(declared_frames) + ", stream has " +
                     std::to_string(frames)};
  }

  // Derived columns, computed wholesale so the loops stay branch-light and
  // vectorizable: the rule predicates over the length column, and the
  // attention bitmask over kinds/directions.
  const std::size_t n = frames;
  out.rule_class.resize(n);
  const std::uint32_t* len = out.lengths.data();
  std::uint8_t* cls = out.rule_class.data();
  for (std::size_t i = 0; i < n; ++i) {
    cls[i] = guard::rules::len_class(len[i]);
  }

  out.attention.assign((n + 63) / 64, 0);
  const std::uint8_t* kind = out.kinds.data();
  const std::uint8_t* up = out.upstream.data();
  std::uint64_t* words = out.attention.data();
  for (std::size_t i = 0; i < n; ++i) {
    const bool data_rec =
        kind[i] <= static_cast<std::uint8_t>(FrameKind::kDatagram);
    const bool interesting =
        (data_rec && up[i] != 0) ||
        kind[i] == static_cast<std::uint8_t>(FrameKind::kDnsAnswer) ||
        kind[i] == static_cast<std::uint8_t>(FrameKind::kFlowBegin);
    words[i / 64] |= std::uint64_t{interesting} << (i % 64);
  }

  // Flow-major postings (counting sort of the upstream data records by
  // flow). The rows are 32-bit; a varint delta stream cannot reach 2^32
  // frames without the header count (u64) still agreeing, so guard rather
  // than truncate.
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw TraceError{"trace too large for flow-major postings"};
  }
  const std::size_t nf = out.flows.size();
  constexpr std::uint8_t kDgramByte =
      static_cast<std::uint8_t>(FrameKind::kDatagram);
  constexpr std::uint8_t kTlsByte =
      static_cast<std::uint8_t>(FrameKind::kTlsRecord);
  out.up_offsets.assign(nf + 1, 0);
  const std::int32_t* fl = out.flow.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (kind[i] <= kDgramByte && up[i] != 0) {
      ++out.up_offsets[static_cast<std::size_t>(fl[i]) + 1];
    }
  }
  for (std::size_t k = 0; k < nf; ++k) {
    out.up_offsets[k + 1] += out.up_offsets[k];
  }
  const std::uint32_t total = out.up_offsets[nf];
  out.up_when.resize(total);
  out.up_len.resize(total);
  out.up_pos.resize(total);
  out.up_cls.resize(total);
  out.up_tls.resize(total);
  out.up_fill.assign(out.up_offsets.begin(), out.up_offsets.end() - 1);
  const std::int64_t* when = out.when_ns.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (kind[i] > kDgramByte || up[i] == 0) continue;
    const std::uint32_t at = out.up_fill[static_cast<std::size_t>(fl[i])]++;
    out.up_when[at] = when[i];
    out.up_len[at] = len[i];
    out.up_pos[at] = static_cast<std::uint32_t>(i);
    out.up_cls[at] = cls[i];
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
