#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

/// \file TraceFormat.h
/// The on-disk wire-trace format (`.vgt`), version 1.
///
/// A trace records exactly what the guard box may observe — flow 5-tuples,
/// arrival times, per-direction TLS record lengths, QUIC/UDP datagram
/// lengths, plaintext DNS answers — and nothing else. All multi-byte
/// integers are **little-endian regardless of host**; unbounded counts use
/// unsigned LEB128 varints; every frame carries a CRC32 (IEEE, reflected,
/// the zlib polynomial) over its payload so truncation and corruption are
/// detected frame-precisely.
///
/// Layout:
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic "VGTR"
///        4     2  version (u16 LE) = 1
///        6     2  flags   (u16 LE) = 0, reserved
///        8     8  scenario seed (u64 LE)
///       16     8  frame count (u64 LE; written on finish)
///       24     *  scenario name   (u16 LE length + UTF-8 bytes)
///        *     *  AVS domain      (same encoding)
///        *     *  Google domain   (same encoding)
///        *     *  frames, back to back until end of file
///
/// One frame:
///
///   u8   payload size S (1..255, never 0)
///   S    payload (below)
///   u32  CRC32(payload), LE
///
/// Frame payloads (first byte is the frame kind; `dt` is the varint delta in
/// nanoseconds from the previous frame's timestamp — the first frame's from
/// simulated time 0):
///
///   kind 0  TLS record   : varint dt, varint flow, u8 dir, u8 tls_type,
///                          varint length
///   kind 1  datagram     : varint dt, varint flow, u8 dir, varint length
///   kind 2  DNS answer   : varint dt, u8 domain (0 = AVS, 1 = Google),
///                          u32 answer IP
///   kind 3  flow begin   : varint dt, varint flow (== number of flows seen
///                          so far), u8 protocol (0 = TCP, 1 = UDP),
///                          u32 speaker IP, u16 speaker port,
///                          u32 server IP, u16 server port
///   kind 4  fault        : varint dt, u8 fault code (see FaultCode),
///                          varint param (code-specific detail)
///
/// Fault frames are *annotations*: they mark injected-fault boundaries from
/// chaos runs so offline tooling can correlate recognizer behaviour with the
/// disturbance. They appear only in traces captured under fault injection;
/// `vgtrace diff --no-faults` compares traces modulo these frames.
///
/// `dir` is 0 for upstream (speaker -> cloud), 1 for downstream.

namespace vg::trace {

/// Any malformed/corrupt trace input. Readers throw this — never UB — on bad
/// magic, bad CRC, short frames, unknown kinds or out-of-range indices.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// I/O failure (open/stat/read/map) as opposed to a malformed trace. Kept a
/// TraceError subtype so existing catch sites still work; `vgtrace` maps the
/// two to distinct exit codes (I/O = 3, corrupt = 4).
class TraceIoError : public TraceError {
 public:
  using TraceError::TraceError;
};

inline constexpr std::array<std::uint8_t, 4> kMagic{'V', 'G', 'T', 'R'};
inline constexpr std::uint16_t kVersion = 1;
/// Byte offset of the patched-on-finish frame count in the header.
inline constexpr std::size_t kFrameCountOffset = 16;

enum class FrameKind : std::uint8_t {
  kTlsRecord = 0,
  kDatagram = 1,
  kDnsAnswer = 2,
  kFlowBegin = 3,
  kFault = 4,
};

/// Latest timestamp a trace may carry: 2^62 ns, about 146 years of
/// simulated time. Readers and the writer all enforce it, so every deadline a
/// recognizer arms after a trace time — and BatchReplayer's INT64_MIN/4 idle
/// sentinel subtracted from one — stays far inside int64.
inline constexpr std::int64_t kMaxTraceNs = std::int64_t{1} << 62;

/// The timestamp \p dt after \p last_ns (0 <= last_ns <= kMaxTraceNs), or a
/// TraceError if it lies past kMaxTraceNs.
inline std::int64_t checked_advance(std::int64_t last_ns, std::uint64_t dt) {
  if (dt > static_cast<std::uint64_t>(kMaxTraceNs - last_ns)) {
    throw TraceError{"frame timestamp past the 2^62 ns trace time cap"};
  }
  return last_ns + static_cast<std::int64_t>(dt);
}

/// Domain codes for DNS-answer frames.
inline constexpr std::uint8_t kDomainAvs = 0;
inline constexpr std::uint8_t kDomainGoogle = 1;

/// Fault-annotation codes (kind-4 frames). Values are stable on disk and
/// numerically mirror faults::FaultEvent::Kind so capture needs no mapping.
enum class FaultCode : std::uint8_t {
  kFlapStart = 0,
  kFlapEnd = 1,
  kBurstStart = 2,
  kBurstEnd = 3,
  kLatencyStart = 4,
  kLatencyEnd = 5,
  kCloudDown = 6,
  kCloudUp = 7,
  kFcmDegraded = 8,
  kFcmNormal = 9,
  kDeviceDown = 10,
  kDeviceUp = 11,
  kGuardRestart = 12,
  kBrownoutStart = 13,
  kBrownoutEnd = 14,
};

inline constexpr std::uint8_t kMaxFaultCode = 14;

const char* fault_code_name(std::uint8_t code);

/// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF — the zlib CRC).
/// crc32 of the ASCII bytes "123456789" is 0xCBF43926.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

// --- little-endian emit helpers --------------------------------------------

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
/// Unsigned LEB128.
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}
inline void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > 0xFFFF) throw TraceError{"string field too long"};
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- bounds-checked parse cursor -------------------------------------------

class ByteCursor {
 public:
  ByteCursor(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  [[nodiscard]] bool done() const { return p_ == end_; }

  std::uint8_t u8() {
    need(1, "u8");
    return *p_++;
  }
  std::uint16_t u16() {
    need(2, "u16");
    const std::uint16_t v =
        static_cast<std::uint16_t>(p_[0] | (std::uint16_t{p_[1]} << 8));
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p_[i]} << (8 * i);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p_[i]} << (8 * i);
    p_ += 8;
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      need(1, "varint");
      const std::uint8_t b = *p_++;
      if (shift >= 64 || (shift == 63 && (b & 0x7E) != 0)) {
        throw TraceError{"varint overflows 64 bits"};
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  std::string string() {
    const std::uint16_t n = u16();
    need(n, "string body");
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  const std::uint8_t* bytes(std::size_t n, const char* what) {
    need(n, what);
    const std::uint8_t* p = p_;
    p_ += n;
    return p;
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      throw TraceError{std::string{"truncated trace: expected "} + what};
    }
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace vg::trace
