#include "trace/TraceWriter.h"

#include <cstdio>

namespace vg::trace {

TraceWriter::TraceWriter(Meta meta) : meta_(std::move(meta)) {
  buf_.insert(buf_.end(), kMagic.begin(), kMagic.end());
  put_u16(buf_, kVersion);
  put_u16(buf_, 0);  // flags, reserved
  put_u64(buf_, meta_.seed);
  put_u64(buf_, 0);  // frame count, patched in finish()
  put_string(buf_, meta_.scenario);
  put_string(buf_, meta_.avs_domain);
  put_string(buf_, meta_.google_domain);
}

std::uint64_t TraceWriter::delta_to(sim::TimePoint when) {
  if (finished_) throw TraceError{"TraceWriter: fed after finish()"};
  const std::int64_t ns = when.ns();
  if (ns > kMaxTraceNs) {
    throw TraceError{"TraceWriter: timestamp past the 2^62 ns trace time cap"};
  }
  if (ns < last_ns_) {
    throw TraceError{"TraceWriter: timestamps must be non-decreasing"};
  }
  const std::uint64_t dt = static_cast<std::uint64_t>(ns - last_ns_);
  last_ns_ = ns;
  return dt;
}

void TraceWriter::emit_frame(const std::vector<std::uint8_t>& payload) {
  if (payload.empty() || payload.size() > 255) {
    throw TraceError{"TraceWriter: bad frame payload size"};
  }
  put_u8(buf_, static_cast<std::uint8_t>(payload.size()));
  buf_.insert(buf_.end(), payload.begin(), payload.end());
  put_u32(buf_, crc32(payload.data(), payload.size()));
  ++frames_;
}

int TraceWriter::add_flow(net::Protocol proto, net::Endpoint speaker,
                          net::Endpoint server, sim::TimePoint when) {
  const std::uint64_t dt = delta_to(when);
  const int index = next_flow_++;
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(FrameKind::kFlowBegin));
  put_varint(payload_, dt);
  put_varint(payload_, static_cast<std::uint64_t>(index));
  put_u8(payload_, proto == net::Protocol::kUdp ? 1 : 0);
  put_u32(payload_, speaker.ip.value());
  put_u16(payload_, speaker.port);
  put_u32(payload_, server.ip.value());
  put_u16(payload_, server.port);
  emit_frame(payload_);
  return index;
}

void TraceWriter::tls_record(int flow, bool upstream, net::TlsContentType type,
                             std::uint32_t len, sim::TimePoint when) {
  if (flow < 0 || flow >= next_flow_) {
    throw TraceError{"TraceWriter: record on unknown flow"};
  }
  const std::uint64_t dt = delta_to(when);
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(FrameKind::kTlsRecord));
  put_varint(payload_, dt);
  put_varint(payload_, static_cast<std::uint64_t>(flow));
  put_u8(payload_, upstream ? 0 : 1);
  put_u8(payload_, static_cast<std::uint8_t>(type));
  put_varint(payload_, len);
  emit_frame(payload_);
}

void TraceWriter::datagram(int flow, bool upstream, std::uint32_t len,
                           sim::TimePoint when) {
  if (flow < 0 || flow >= next_flow_) {
    throw TraceError{"TraceWriter: datagram on unknown flow"};
  }
  const std::uint64_t dt = delta_to(when);
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(FrameKind::kDatagram));
  put_varint(payload_, dt);
  put_varint(payload_, static_cast<std::uint64_t>(flow));
  put_u8(payload_, upstream ? 0 : 1);
  put_varint(payload_, len);
  emit_frame(payload_);
}

void TraceWriter::dns_answer(std::uint8_t domain_code, net::IpAddress answer,
                             sim::TimePoint when) {
  if (domain_code != kDomainAvs && domain_code != kDomainGoogle) {
    throw TraceError{"TraceWriter: bad domain code"};
  }
  const std::uint64_t dt = delta_to(when);
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(FrameKind::kDnsAnswer));
  put_varint(payload_, dt);
  put_u8(payload_, domain_code);
  put_u32(payload_, answer.value());
  emit_frame(payload_);
}

void TraceWriter::fault(std::uint8_t code, std::uint64_t param,
                        sim::TimePoint when) {
  if (code > kMaxFaultCode) throw TraceError{"TraceWriter: bad fault code"};
  const std::uint64_t dt = delta_to(when);
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(FrameKind::kFault));
  put_varint(payload_, dt);
  put_u8(payload_, code);
  put_varint(payload_, param);
  emit_frame(payload_);
}

const std::vector<std::uint8_t>& TraceWriter::finish() {
  if (!finished_) {
    finished_ = true;
    for (int i = 0; i < 8; ++i) {
      buf_[kFrameCountOffset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(frames_ >> (8 * i));
    }
  }
  return buf_;
}

void TraceWriter::save(const std::string& path) {
  const std::vector<std::uint8_t>& bytes = finish();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw TraceError{"cannot open for writing: " + path};
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int rc = std::fclose(f);
  if (n != bytes.size() || rc != 0) throw TraceError{"short write: " + path};
}

}  // namespace vg::trace
