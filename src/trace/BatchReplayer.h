#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/BatchDecoder.h"
#include "trace/Replayer.h"

/// \file BatchReplayer.h
/// Columnar offline recognizer: the same recognition semantics as
/// trace::Replayer — the per-record equivalence oracle, which drives
/// guard::RecognitionCore exactly as the live guard does — restructured
/// around the SoA columns of a ColumnBatch into two passes:
///
///   * pass A — control plane, in stream order: DNS answers, flow begins,
///     establishment close-outs and signature-probe adoptions. These are the
///     only events that couple flows to each other (the AVS/Google IPs, the
///     signature learner's window, the published-signature snapshot a probe
///     matches against), and they act on a RecognitionCore's address
///     tracking and SignatureLearner; they are sparse, so a tiny
///     pending-event heap keyed by (record row, deadline-before-record, FIFO
///     seq) reproduces the oracle's timer-vs-record interleaving exactly;
///   * pass B — data plane, flow-major: each flow's upstream records are
///     read sequentially from the decoder's postings (`up_offsets`/`up_*`),
///     so the idle clock, heartbeat filter, spike state and classifier DFA
///     live in registers instead of a scattered flow table. Per-record rule
///     evaluation consults the posting's `up_cls` length class: the DFA only
///     adjudicates lengths in the rule alphabet, everything else takes the
///     SpikeClassifier::feed_nonrule bookkeeping path. A spike's
///     classify timeout only ever settles that flow's own spike, so it is a
///     register compare here, not a shared timer queue.
///
/// Spikes are emitted per flow and re-ordered by opening record row, which
/// is exactly the oracle's creation order. All working state lives in pooled
/// buffers reused across run() calls, and spikes carry an inline prefix
/// array, so steady-state replay allocates nothing.
///
/// Equivalence with trace::Replayer (verdicts, decision timing, matched
/// rules, every tally) is pinned by the golden corpus and a 50k-random-trace
/// property suite; `bench_replay_recognizer` re-checks it on every run.

namespace vg::trace {

/// One recognized spike, inline-prefix edition of ReplaySpike.
struct BatchSpike {
  std::uint64_t flow_id{0};
  bool udp{false};
  sim::TimePoint start;
  std::array<std::uint32_t, guard::rules::kSpikePrefixKeep> prefix{};
  std::uint8_t prefix_len{0};
  guard::SpikeClass cls{guard::SpikeClass::kUnknown};
  guard::MatchedRule rule{guard::MatchedRule::kNone};
};

/// Field-for-field the tallies of ReplayResult, with inline-prefix spikes.
struct BatchReplayResult {
  std::vector<BatchSpike> spikes;

  std::uint64_t frames{0};
  std::uint64_t flows{0};
  std::uint64_t avs_flows{0};
  std::uint64_t google_flows{0};
  std::uint64_t unmonitored_flows{0};
  std::uint64_t tls_records{0};
  std::uint64_t datagrams{0};
  std::uint64_t dns_answers{0};
  std::uint64_t fault_frames{0};
  std::uint64_t heartbeats{0};
  std::uint64_t avs_dns_updates{0};
  std::uint64_t avs_signature_updates{0};
  std::uint64_t commands{0};
  std::uint64_t responses{0};
  std::uint64_t unknowns{0};
  sim::TimePoint end_time;

  /// Widens to the oracle's result type (equivalence tests, `vgtrace`).
  [[nodiscard]] ReplayResult to_replay_result() const;

  /// Merges another trace's tallies into this one (directory-sharded replay;
  /// spikes are not merged — they stay per-trace).
  void merge_tallies(const BatchReplayResult& o);
};

class BatchReplayer {
 public:
  explicit BatchReplayer(ReplayOptions opts = {});
  ~BatchReplayer();
  BatchReplayer(BatchReplayer&&) noexcept;
  BatchReplayer& operator=(BatchReplayer&&) noexcept;

  /// Replays \p batch into \p out, reusing both the replayer's internal
  /// scratch and out's buffers. Deterministic: same batch, same result.
  void run(const ColumnBatch& batch, BatchReplayResult& out);

  BatchReplayResult run(const ColumnBatch& batch) {
    BatchReplayResult out;
    run(batch, out);
    return out;
  }

 private:
  struct FlowPlan;
  struct PendingEv;
  struct SpikeRef;

  /// Tracked addresses and the signature learner; reset by every run().
  guard::RecognitionCore core_;

  // Pooled scratch, reused across runs (see .cpp).
  std::vector<FlowPlan> flows_;
  std::vector<PendingEv> ev_heap_;
  std::vector<BatchSpike> spike_scratch_;
  std::vector<SpikeRef> spike_order_;
  std::vector<std::vector<std::uint32_t>> est_pool_;
  std::size_t est_pool_used_{0};
};

}  // namespace vg::trace
