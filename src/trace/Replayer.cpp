#include "trace/Replayer.h"

#include <cstddef>
#include <queue>

namespace vg::trace {

namespace {

using guard::RecognitionCore;

/// A deadline the core asked for: the classify timeout of spike `gen`, or a
/// flow's establishment close-out. FIFO on equal times, like the live
/// EventQueue.
struct Deadline {
  sim::TimePoint when;
  std::size_t flow{0};
  std::uint64_t gen{0};
  bool establishment{false};
  std::uint64_t seq{0};
};

struct DeadlineLater {
  bool operator()(const Deadline& a, const Deadline& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

ReplayResult Replayer::run(const TraceReader& trace) const {
  ReplayResult out;
  out.frames = trace.records().size();
  out.end_time = trace.end_time();

  RecognitionCore core{{opts_.mode, /*adaptive_signatures=*/true}};
  std::vector<RecognitionCore::Flow> flows;
  flows.reserve(trace.flows().size());
  std::priority_queue<Deadline, std::vector<Deadline>, DeadlineLater> deadlines;
  std::uint64_t seq = 0;

  const auto fire_until = [&](sim::TimePoint now) {
    while (!deadlines.empty() && deadlines.top().when <= now) {
      const Deadline d = deadlines.top();
      deadlines.pop();
      RecognitionCore::Flow& f = flows[d.flow];
      if (d.establishment) {
        core.close_establishment(f);
      } else if (core.classify_deadline(f, d.gen, out.spikes)) {
        RecognitionCore::close_spike(f);
      }
    }
  };

  for (const TraceRecord& rec : trace.records()) {
    // A deadline is enqueued before any record that shares its timestamp,
    // so deadlines fire first (inclusive).
    fire_until(rec.when);

    switch (rec.kind) {
      case FrameKind::kFlowBegin: {
        const TraceFlow& tf = trace.flows()[static_cast<std::size_t>(rec.flow)];
        flows.push_back(core.open_flow(static_cast<std::uint64_t>(rec.flow) + 1,
                                       tf.protocol == net::Protocol::kUdp,
                                       tf.server.ip, rec.when));
        ++out.flows;
        if (const auto t = RecognitionCore::close_out_at(flows.back())) {
          deadlines.push({*t, flows.size() - 1, 0, true, seq++});
        }
        break;
      }

      case FrameKind::kDnsAnswer:
        ++out.dns_answers;
        out.avs_dns_updates += core.on_dns(rec.domain_code == kDomainAvs
                                               ? guard::VoiceDomain::kAvs
                                               : guard::VoiceDomain::kGoogle,
                                           rec.dns_answer);
        break;

      case FrameKind::kTlsRecord:
      case FrameKind::kDatagram: {
        const bool tls = rec.kind == FrameKind::kTlsRecord;
        ++(tls ? out.tls_records : out.datagrams);
        if (!rec.upstream) break;  // downstream is observed, never classified
        const std::size_t idx = static_cast<std::size_t>(rec.flow);
        RecognitionCore::Flow& f = flows[idx];
        const RecognitionCore::Step step =
            core.upstream(f, rec.when, rec.length, tls, out.spikes);
        if (step == 0) break;
        if (step & RecognitionCore::kHeartbeat) ++out.heartbeats;
        if (step & RecognitionCore::kAdopted) ++out.avs_signature_updates;
        if (step & RecognitionCore::kArmClassify) {
          deadlines.push({rec.when + guard::rules::kClassifyTimeout, idx,
                          f.spike_gen, false, seq++});
        }
        // The verdict itself is not wire-observable: a decided spike closes.
        if (step & RecognitionCore::kDecided) RecognitionCore::close_spike(f);
        break;
      }

      case FrameKind::kFault:
        // Annotations only: injected faults are visible in the trace but are
        // not an input to recognition.
        ++out.fault_frames;
        break;
    }
  }

  // The live simulation keeps running after the last tapped packet, so every
  // armed deadline still fires.
  while (!deadlines.empty()) fire_until(deadlines.top().when);

  for (const RecognitionCore::Flow& f : flows) {
    switch (f.kind) {
      case RecognitionCore::Destination::kAvs: ++out.avs_flows; break;
      case RecognitionCore::Destination::kGoogle: ++out.google_flows; break;
      case RecognitionCore::Destination::kUnmonitored:
        ++out.unmonitored_flows;
        break;
    }
  }
  for (const ReplaySpike& sp : out.spikes) {
    switch (sp.cls) {
      case guard::SpikeClass::kCommand: ++out.commands; break;
      case guard::SpikeClass::kResponse: ++out.responses; break;
      case guard::SpikeClass::kUnknown: ++out.unknowns; break;
    }
  }
  return out;
}

}  // namespace vg::trace
