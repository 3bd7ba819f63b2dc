#include "trace/TraceReader.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace vg::trace {

TraceReader TraceReader::parse(std::span<const std::uint8_t> bytes) {
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

  TraceReader r;
  r.meta_.seed = c.u64();
  const std::uint64_t declared_frames = c.u64();
  r.meta_.scenario = c.string();
  r.meta_.avs_domain = c.string();
  r.meta_.google_domain = c.string();

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
    TraceRecord rec;
    rec.when = sim::TimePoint{last_ns};

    switch (kind_byte) {
      case static_cast<std::uint8_t>(FrameKind::kTlsRecord): {
        rec.kind = FrameKind::kTlsRecord;
        const std::uint64_t flow = p.varint();
        if (flow >= r.flows_.size()) {
          throw TraceError{"record references undefined flow"};
        }
        rec.flow = static_cast<std::int32_t>(flow);
        const std::uint8_t dir = p.u8();
        if (dir > 1) throw TraceError{"bad direction byte"};
        rec.upstream = dir == 0;
        rec.tls_type = static_cast<net::TlsContentType>(p.u8());
        const std::uint64_t len = p.varint();
        if (len > 0xFFFFFFFFull) throw TraceError{"record length overflows"};
        rec.length = static_cast<std::uint32_t>(len);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kDatagram): {
        rec.kind = FrameKind::kDatagram;
        const std::uint64_t flow = p.varint();
        if (flow >= r.flows_.size()) {
          throw TraceError{"datagram references undefined flow"};
        }
        rec.flow = static_cast<std::int32_t>(flow);
        const std::uint8_t dir = p.u8();
        if (dir > 1) throw TraceError{"bad direction byte"};
        rec.upstream = dir == 0;
        const std::uint64_t len = p.varint();
        if (len > 0xFFFFFFFFull) throw TraceError{"datagram length overflows"};
        rec.length = static_cast<std::uint32_t>(len);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kDnsAnswer): {
        rec.kind = FrameKind::kDnsAnswer;
        rec.domain_code = p.u8();
        if (rec.domain_code != kDomainAvs && rec.domain_code != kDomainGoogle) {
          throw TraceError{"bad DNS domain code"};
        }
        rec.dns_answer = net::IpAddress{p.u32()};
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFlowBegin): {
        rec.kind = FrameKind::kFlowBegin;
        const std::uint64_t flow = p.varint();
        if (flow != r.flows_.size()) {
          throw TraceError{"flow indices must be dense and in order"};
        }
        rec.flow = static_cast<std::int32_t>(flow);
        const std::uint8_t proto = p.u8();
        if (proto > 1) throw TraceError{"bad protocol byte"};
        TraceFlow fl;
        fl.protocol = proto == 1 ? net::Protocol::kUdp : net::Protocol::kTcp;
        fl.speaker.ip = net::IpAddress{p.u32()};
        fl.speaker.port = p.u16();
        fl.server.ip = net::IpAddress{p.u32()};
        fl.server.port = p.u16();
        fl.first_seen = rec.when;
        r.flows_.push_back(fl);
        break;
      }
      case static_cast<std::uint8_t>(FrameKind::kFault): {
        rec.kind = FrameKind::kFault;
        rec.fault_code = p.u8();
        if (rec.fault_code > kMaxFaultCode) {
          throw TraceError{"bad fault code"};
        }
        rec.fault_param = p.varint();
        break;
      }
      default:
        throw TraceError{"unknown frame kind " + std::to_string(kind_byte)};
    }
    if (!p.done()) throw TraceError{"trailing bytes in frame payload"};

    r.records_.push_back(rec);
    r.end_ = rec.when;
    ++frames;
  }

  if (frames != declared_frames) {
    throw TraceError{"frame count mismatch: header says " +
                     std::to_string(declared_frames) + ", stream has " +
                     std::to_string(frames)};
  }
  return r;
}

TraceReader TraceReader::load(const std::string& path) {
  const TraceBytes bytes = TraceBytes::from_file(path);  // I/O errors name
                                                         // path + errno
  try {
    return parse(bytes.span());
  } catch (const TraceIoError&) {
    throw;
  } catch (const TraceError& e) {
    throw TraceError{path + ": " + e.what()};
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw TraceIoError{"cannot open " + path + ": " + std::strerror(errno)};
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const int err = std::ferror(f) != 0 ? errno : 0;
  std::fclose(f);
  if (err != 0) {
    throw TraceIoError{"read error on " + path + ": " + std::strerror(err)};
  }
  return bytes;
}

}  // namespace vg::trace
