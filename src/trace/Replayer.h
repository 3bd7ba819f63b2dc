#pragma once

#include <cstdint>
#include <vector>

#include "trace/TraceReader.h"
#include "voiceguard/RecognitionCore.h"

/// \file Replayer.h
/// Offline recognizer harness: drives guard::RecognitionCore — the code the
/// live GuardBox runs — from a `.vgt` trace, with no Simulation, network
/// stack or decision module involved. The driver feeds the core each DNS
/// answer, flow begin and upstream record, and fires the deadlines the core
/// asks for from a heap that is FIFO on equal times, exactly as the live
/// event queue orders them.
///
/// On a trace captured in kMonitor mode the spikes returned here are
/// identical (flow, start time, prefix, class, matched rule) to the live
/// run's SpikeEvents — the golden-trace regression tests assert this.
/// kVoiceGuard/kNaive replay is an approximation: decision-module verdict
/// latency is not part of the wire trace, so the driver closes every spike
/// at classification, where the live guard keeps a command spike open until
/// its verdict (and opens no new spike on that flow meanwhile).

namespace vg::trace {

struct ReplayOptions {
  guard::GuardMode mode = guard::GuardMode::kMonitor;
};

/// One spike recognized during replay: the recognition half of
/// guard::SpikeEvent. flow_id is the trace flow index + 1 (== live flow id).
using ReplaySpike = guard::Spike;

struct ReplayResult {
  std::vector<ReplaySpike> spikes;

  // Tallies for `vgtrace stats` and the bench harness.
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
};

class Replayer {
 public:
  explicit Replayer(ReplayOptions opts = {}) : opts_(std::move(opts)) {}

  /// Replays the whole trace and returns every recognized spike plus tallies.
  /// Pure: a Replayer can be reused and run() is deterministic.
  ReplayResult run(const TraceReader& trace) const;

 private:
  ReplayOptions opts_;
};

}  // namespace vg::trace
