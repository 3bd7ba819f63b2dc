#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/TraceReader.h"
#include "voiceguard/Recognizer.h"

/// \file BatchDecoder.h
/// Columnar (structure-of-arrays) decode of a `.vgt` trace.
///
/// TraceReader materializes an array-of-structs: one ~48-byte TraceRecord per
/// frame, most of whose fields any given consumer never touches. The batch
/// decoder instead fills parallel columns — kinds, directions, absolute
/// timestamps, lengths — plus the flow-major postings of the upstream data
/// records that BatchReplayer's per-flow pass reads, each posting carrying
/// guard::rules::len_class() of its length.
///
/// One loop over the frames checks each frame's extent once (size byte,
/// payload, CRC), parses the payload in place and counts each flow's
/// upstream data records; a second loop scatters those records into their
/// flows' buckets. Validation is exactly TraceReader's (bad magic/version/
/// CRC, short frames, unknown kinds, out-of-range or out-of-order flow
/// indices, varint overflow, trailing payload bytes, header frame-count
/// mismatch all raise TraceError), with the same diagnostic for every
/// rejection; property tests pin column-for-field equality and message-for-
/// message rejection against TraceReader. Decoding reads straight off the
/// input span, so an mmap'd file (TraceBytes) is never copied.

namespace vg::trace {

/// One trace decoded into columns. All per-record vectors share size().
struct ColumnBatch {
  TraceMeta meta;
  std::vector<TraceFlow> flows;

  std::vector<std::uint8_t> kinds;      // FrameKind values
  std::vector<std::uint8_t> upstream;   // 1 = upstream; 1 for non-data kinds
                                        // (mirrors TraceRecord's default)
  std::vector<std::uint8_t> tls_types;  // meaningful for kTlsRecord only
  std::vector<std::int32_t> flow;       // -1 for kDnsAnswer / kFault
  std::vector<std::int64_t> when_ns;    // absolute, from the delta chain
  std::vector<std::uint32_t> lengths;   // 0 for non-data kinds

  /// Sparse side columns, in stream order (their `index` is the record row).
  struct DnsEvent {
    std::uint64_t index;
    std::uint8_t domain_code;
    net::IpAddress answer;
  };
  struct FaultEvent {
    std::uint64_t index;
    std::uint8_t code;
    std::uint64_t param;
  };
  std::vector<DnsEvent> dns;
  std::vector<FaultEvent> faults;
  /// flow_begin_at[k] = record row of flows[k]'s begin frame.
  std::vector<std::uint64_t> flow_begin_at;

  /// Flow-major postings of the upstream data records (counting sort by
  /// flow): bucket k = rows [up_offsets[k], up_offsets[k+1]) of the up_*
  /// arrays, in stream order within the bucket. BatchReplayer's per-flow
  /// pass reads each flow's upstream history sequentially with the flow
  /// state in registers, instead of chasing a scattered flow table through
  /// a store-to-load dependency on every record.
  std::vector<std::uint32_t> up_offsets;  // flows.size() + 1 prefix sums
  std::vector<std::int64_t> up_when;      // when_ns of the record
  std::vector<std::uint32_t> up_len;      // lengths of the record
  std::vector<std::uint32_t> up_pos;      // record row (spike ordering)
  std::vector<std::uint8_t> up_cls;       // guard::rules::len_class(up_len)
  std::vector<std::uint8_t> up_tls;       // 1 = TLS record, 0 = datagram
  /// Scatter cursors for the counting sort; contents meaningless after
  /// decode (kept only so repeated decodes reuse the capacity).
  std::vector<std::uint32_t> up_fill;

  // Tallies over all records, downstream ones included.
  std::uint64_t tls_records{0};
  std::uint64_t datagrams{0};

  sim::TimePoint end_time;

  [[nodiscard]] std::size_t size() const { return kinds.size(); }

  /// Reconstructs row \p i as a TraceRecord (parity tests, tooling). O(log n)
  /// for the sparse kinds, O(1) otherwise.
  [[nodiscard]] TraceRecord record(std::size_t i) const;
};

class BatchDecoder {
 public:
  /// Decodes (and fully validates) \p bytes into fresh columns.
  static ColumnBatch decode(std::span<const std::uint8_t> bytes);

  /// Decodes into \p out, reusing its column capacity (zero-alloc once the
  /// columns have grown to the workload's high-water mark).
  static void decode(std::span<const std::uint8_t> bytes, ColumnBatch& out);

  /// TraceBytes::from_file + decode, with parse errors prefixed by the path.
  static ColumnBatch load(const std::string& path);
};

}  // namespace vg::trace
