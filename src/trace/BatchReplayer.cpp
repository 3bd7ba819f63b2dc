#include "trace/BatchReplayer.h"

#include <algorithm>
#include <limits>

namespace vg::trace {

namespace {

using Kind = guard::RecognitionCore::Destination;

/// What pass B does with a flow, decided entirely in pass A:
///   kSkip       — never monitored (unmonitored flow, failed/expired probe):
///                 none of its records touch recognition state.
///   kMonitor    — monitored from its first upstream record (Google, UDP AVS).
///   kAvsEst     — DNS-identified AVS over TCP: records inside the
///                 establishment exemption are skipped (their TLS lengths fed
///                 the learner in pass A), monitoring starts at the close-out.
///   kProbeMatch — TCP flow that matched the AVS signature: monitoring starts
///                 at the signature-completing record.
enum class PlanKind : std::uint8_t { kSkip, kMonitor, kAvsEst, kProbeMatch };

/// Sentinel for "no upstream seen yet": far enough in the past that the idle
/// test fires unconditionally (replacing the core's has_upstream bool),
/// without now - kNeverUpNs overflowing for any trace timestamp (all are at
/// most kMaxTraceNs = 2^62).
constexpr std::int64_t kNeverUpNs = std::numeric_limits<std::int64_t>::min() / 4;

/// "No deadline": later than every trace timestamp.
constexpr std::int64_t kNoDeadlineNs = std::numeric_limits<std::int64_t>::max();

}  // namespace

/// Per-flow verdict of pass A. No owning heap members: the flow table is
/// cleared and refilled between runs without allocating.
struct BatchReplayer::FlowPlan {
  std::int64_t created_ns{0};
  /// kAvsEst: time of the establishment close-out timer (window + 100ms).
  std::int64_t est_close_ns{0};
  /// Equals the configured heartbeat length for AVS flows and a value no
  /// 32-bit record length can match otherwise: pass B's heartbeat filter is
  /// one compare with no flow-kind branch.
  std::uint64_t hb_sentinel{~0ull};
  /// kProbeMatch: posting row of the signature-completing record.
  std::uint32_t start_at{0};
  PlanKind plan{PlanKind::kSkip};
  Kind kind{Kind::kUnmonitored};
  bool udp{false};
};

/// A deferred cross-flow effect, ordered exactly as the oracle interleaves
/// timers and records. A timer armed for time t fires just before the first
/// record whose timestamp reaches t (timestamps are nondecreasing), so
/// "(t, tier 0)" and "(record time, tier 1, record row)" sort every pairing
/// the same way the oracle's run-deadlines-then-process-record loop does;
/// FIFO seq breaks timer-vs-timer ties like the oracle's deadline queue.
struct BatchReplayer::PendingEv {
  std::int64_t when_ns{0};
  std::uint32_t row{0};   // tier 1: record row (tier 0 uses seq instead)
  std::uint32_t seq{0};
  std::uint8_t tier{0};   // 0 = timer-driven, 1 = during a record's row
  std::uint8_t type{0};   // 0 = learner observe (arg = est_pool_ slot),
                          // 1 = signature adoption (arg = flow index)
  std::uint32_t arg{0};

  // std::push_heap keeps the *largest* element at front; "larger" here means
  // "fires later", so front() is the earliest event.
  friend bool operator<(const PendingEv& a, const PendingEv& b) {
    if (a.when_ns != b.when_ns) return a.when_ns > b.when_ns;
    if (a.tier != b.tier) return a.tier > b.tier;
    if (a.tier == 0) return a.seq > b.seq;
    return a.row > b.row;
  }
};

struct BatchReplayer::SpikeRef {
  std::uint32_t pos{0};  // record row of the spike-opening record
  std::uint32_t idx{0};  // slot in spike_scratch_
};

ReplayResult BatchReplayResult::to_replay_result() const {
  ReplayResult r;
  r.spikes.reserve(spikes.size());
  for (const BatchSpike& sp : spikes) {
    ReplaySpike w;
    w.flow_id = sp.flow_id;
    w.udp = sp.udp;
    w.start = sp.start;
    w.prefix.assign(sp.prefix.begin(), sp.prefix.begin() + sp.prefix_len);
    w.cls = sp.cls;
    w.rule = sp.rule;
    r.spikes.push_back(std::move(w));
  }
  r.frames = frames;
  r.flows = flows;
  r.avs_flows = avs_flows;
  r.google_flows = google_flows;
  r.unmonitored_flows = unmonitored_flows;
  r.tls_records = tls_records;
  r.datagrams = datagrams;
  r.dns_answers = dns_answers;
  r.fault_frames = fault_frames;
  r.heartbeats = heartbeats;
  r.avs_dns_updates = avs_dns_updates;
  r.avs_signature_updates = avs_signature_updates;
  r.commands = commands;
  r.responses = responses;
  r.unknowns = unknowns;
  r.end_time = end_time;
  return r;
}

void BatchReplayResult::merge_tallies(const BatchReplayResult& o) {
  frames += o.frames;
  flows += o.flows;
  avs_flows += o.avs_flows;
  google_flows += o.google_flows;
  unmonitored_flows += o.unmonitored_flows;
  tls_records += o.tls_records;
  datagrams += o.datagrams;
  dns_answers += o.dns_answers;
  fault_frames += o.fault_frames;
  heartbeats += o.heartbeats;
  avs_dns_updates += o.avs_dns_updates;
  avs_signature_updates += o.avs_signature_updates;
  commands += o.commands;
  responses += o.responses;
  unknowns += o.unknowns;
  end_time = std::max(end_time, o.end_time);
}

BatchReplayer::BatchReplayer(ReplayOptions opts)
    : core_({opts.mode, /*adaptive_signatures=*/true}) {}

// Out-of-line so FlowPlan/PendingEv/SpikeRef are complete where the vectors
// destruct.
BatchReplayer::~BatchReplayer() = default;
BatchReplayer::BatchReplayer(BatchReplayer&&) noexcept = default;
BatchReplayer& BatchReplayer::operator=(BatchReplayer&&) noexcept = default;

void BatchReplayer::run(const ColumnBatch& b, BatchReplayResult& out) {
  namespace rules = guard::rules;
  const std::int64_t est_window_ns = rules::kEstablishmentWindow.ns();
  const std::int64_t idle_gap_ns = rules::kSpikeIdleGap.ns();
  const std::int64_t classify_timeout_ns = rules::kClassifyTimeout.ns();
  const std::uint64_t heartbeat_len = rules::kHeartbeatLen;
  const guard::GuardMode mode = core_.config().mode;
  const bool forced_mode = mode != guard::GuardMode::kMonitor;
  const bool naive_mode = mode == guard::GuardMode::kNaive;

  out.spikes.clear();
  out.frames = b.size();
  out.flows = b.flows.size();
  out.avs_flows = 0;
  out.google_flows = 0;
  out.unmonitored_flows = 0;
  out.tls_records = b.tls_records;
  out.datagrams = b.datagrams;
  out.dns_answers = b.dns.size();
  out.fault_frames = b.faults.size();
  out.heartbeats = 0;
  out.avs_dns_updates = 0;
  out.avs_signature_updates = 0;
  out.commands = 0;
  out.responses = 0;
  out.unknowns = 0;
  out.end_time = b.end_time;

  const std::size_t n = b.size();
  const std::size_t nf = b.flows.size();
  flows_.clear();
  flows_.reserve(nf);
  ev_heap_.clear();
  spike_scratch_.clear();
  spike_order_.clear();
  est_pool_used_ = 0;
  core_.reset();

  const std::int64_t* const stream_when = b.when_ns.data();
  const std::int64_t* const up_when = b.up_when.data();
  const std::uint32_t* const up_len = b.up_len.data();
  const std::uint32_t* const up_pos = b.up_pos.data();
  const std::uint8_t* const up_cls = b.up_cls.data();
  const std::uint8_t* const up_tls = b.up_tls.data();
  const std::uint32_t* const up_off = b.up_offsets.data();

  std::uint32_t ev_seq = 0;
  const auto push_ev = [&](PendingEv ev) {
    ev.seq = ev_seq++;
    ev_heap_.push_back(ev);
    std::push_heap(ev_heap_.begin(), ev_heap_.end());
  };
  const auto apply_ev = [&]() {
    const PendingEv ev = ev_heap_.front();
    std::pop_heap(ev_heap_.begin(), ev_heap_.end());
    ev_heap_.pop_back();
    if (ev.type == 0) {
      core_.learner().observe(est_pool_[ev.arg]);
    } else {
      // The probed destination becomes the AVS endpoint.
      out.avs_signature_updates +=
          core_.adopt_avs_ip(b.flows[ev.arg].server.ip);
    }
  };

  // --- Pass A: control plane in stream order -------------------------------
  // Flow begins and DNS answers are the only records processed here; probe
  // and establishment outcomes are resolved by scanning the flow's own
  // postings the moment it is created (their inputs — the snapshot signature
  // and the flow's own records — are fixed at that point), and their
  // cross-flow effects are re-queued at the row where the oracle applies
  // them.
  std::size_t di = 0;
  for (std::size_t k = 0; k <= nf; ++k) {
    const std::uint64_t cpos = k < nf ? b.flow_begin_at[k] : ~0ull;
    for (;;) {
      const std::uint64_t dpos = di < b.dns.size() ? b.dns[di].index : ~0ull;
      const std::uint64_t rec = dpos < cpos ? dpos : cpos;
      if (!ev_heap_.empty() && rec < n) {
        // Fire pending effects due before this row: strictly earlier rows,
        // and timers whose time the row's timestamp has reached (the oracle
        // pops those before processing the record).
        const PendingEv& top = ev_heap_.front();
        const std::int64_t rec_when = stream_when[rec];
        if (top.when_ns < rec_when ||
            (top.when_ns == rec_when &&
             (top.tier == 0 || top.row < rec))) {
          apply_ev();
          continue;
        }
      } else if (!ev_heap_.empty()) {
        apply_ev();
        continue;
      }
      if (dpos < cpos) {
        const ColumnBatch::DnsEvent& ev = b.dns[di++];
        out.avs_dns_updates += core_.on_dns(ev.domain_code == kDomainAvs
                                                ? guard::VoiceDomain::kAvs
                                                : guard::VoiceDomain::kGoogle,
                                            ev.answer);
        continue;
      }
      break;
    }
    if (k == nf) break;

    const TraceFlow& tf = b.flows[k];
    const std::int64_t created = stream_when[cpos];
    FlowPlan f{};
    f.created_ns = created;
    f.udp = tf.protocol == net::Protocol::kUdp;
    f.kind = core_.destination(tf.server.ip);
    if (f.kind == Kind::kAvs) f.hb_sentinel = heartbeat_len;
    const std::uint32_t first = up_off[k];
    const std::uint32_t last = up_off[k + 1];
    if (f.udp) {
      // No exempted QUIC prefix and no signature probing over UDP.
      f.plan = f.kind == Kind::kUnmonitored ? PlanKind::kSkip
                                            : PlanKind::kMonitor;
    } else if (f.kind == Kind::kAvs) {
      f.plan = PlanKind::kAvsEst;
      f.est_close_ns = created + rules::kEstablishmentCloseOut.ns();
      // Gather the exempted prefix (TLS lengths inside the window) and find
      // where the establishment closes: the first TLS record past the
      // window, or the close-out timer, whichever the oracle reaches first.
      if (est_pool_used_ == est_pool_.size()) est_pool_.emplace_back();
      auto& prefix = est_pool_[est_pool_used_];
      prefix.clear();
      std::uint32_t own_close = 0;
      std::int64_t own_close_when = kNoDeadlineNs;
      for (std::uint32_t j = first; j < last; ++j) {
        if (up_tls[j] == 0) continue;
        if (up_when[j] - created <= est_window_ns) {
          prefix.push_back(up_len[j]);
        } else {
          own_close = up_pos[j];
          own_close_when = up_when[j];
          break;
        }
      }
      if (!prefix.empty()) {
        PendingEv ev;
        ev.type = 0;
        ev.arg = static_cast<std::uint32_t>(est_pool_used_);
        // The close-out timer beats the closing record iff the record's
        // timestamp has reached the timer's (the oracle pops due timers
        // before processing any record).
        if (own_close_when < f.est_close_ns) {
          ev.when_ns = own_close_when;
          ev.row = own_close;
          ev.tier = 1;  // applied while processing the closing record
        } else {
          ev.when_ns = f.est_close_ns;
          ev.tier = 0;
        }
        push_ev(ev);
        ++est_pool_used_;
      }
    } else if (f.kind == Kind::kGoogle) {
      // Establishment never gates a Google flow's monitoring.
      f.plan = PlanKind::kMonitor;
    } else {
      // Signature probe against the signature published right now — the
      // snapshot semantics of RecognitionCore::open_flow.
      f.plan = PlanKind::kSkip;
      const auto& sig = core_.learner().signature();
      std::size_t idx = 0;
      for (std::uint32_t j = first; j < last; ++j) {
        if (up_tls[j] == 0) continue;
        if (up_when[j] - created > est_window_ns) break;  // probe expired
        if (idx >= sig.size() || sig[idx] != up_len[j]) break;  // mismatch
        if (++idx == sig.size()) {
          // Matched: the flow is AVS after all, from this record onward.
          f.plan = PlanKind::kProbeMatch;
          f.kind = Kind::kAvs;
          f.hb_sentinel = heartbeat_len;
          f.start_at = j;
          PendingEv ev;
          ev.type = 1;
          ev.arg = static_cast<std::uint32_t>(k);
          ev.when_ns = up_when[j];
          ev.row = up_pos[j];
          ev.tier = 1;
          push_ev(ev);
          break;
        }
      }
    }
    flows_.push_back(f);
  }

  // --- Pass B: data plane, one flow at a time ------------------------------
  std::uint64_t heartbeats = 0;
  for (std::size_t k = 0; k < nf; ++k) {
    const FlowPlan& f = flows_[k];
    switch (f.kind) {
      case Kind::kAvs: ++out.avs_flows; break;
      case Kind::kGoogle: ++out.google_flows; break;
      case Kind::kUnmonitored: ++out.unmonitored_flows; break;
    }
    if (f.plan == PlanKind::kSkip) continue;

    std::uint32_t j = up_off[k];
    const std::uint32_t end = up_off[k + 1];
    std::int64_t last_up = kNeverUpNs;
    if (f.plan == PlanKind::kAvsEst) {
      // Skip the establishment exemption: everything inside the window, plus
      // datagrams in the gap before the close-out timer (the core passes
      // them through — establishment is not done yet). The first TLS
      // record past the window, or any record past the timer, is monitored.
      while (j < end) {
        if (up_when[j] - f.created_ns > est_window_ns &&
            (up_tls[j] != 0 || up_when[j] >= f.est_close_ns)) {
          break;
        }
        ++j;
      }
    } else if (f.plan == PlanKind::kProbeMatch) {
      // The signature-completing record reaches the monitor with the idle
      // clock just reset: it can be a heartbeat, it never opens a spike.
      j = f.start_at;
      if (up_len[j] == f.hb_sentinel) ++heartbeats;
      last_up = up_when[j];
      ++j;
    }

    const std::uint64_t hb = f.hb_sentinel;
    const std::uint64_t flow_id = static_cast<std::uint64_t>(k) + 1;
    const bool forced_instant =
        forced_mode && (f.kind == Kind::kGoogle || naive_mode);
    // While a spike is open, `open_sp` points at its slot in out.spikes.
    // That pointer stays valid: new spikes (the only pushes) only open after
    // the current one settles.
    BatchSpike* open_sp = nullptr;
    std::int64_t cls_deadline = kNoDeadlineNs;
    guard::SpikeClassifier classifier;

    for (; j < end; ++j) {
      const std::int64_t now = up_when[j];
      const std::uint32_t len = up_len[j];
      // The classify-timeout timer fires before any record that shares or
      // passes its timestamp (inclusive, like the oracle's deadline pop).
      if (now >= cls_deadline) [[unlikely]] {
        open_sp->cls = classifier.finalize();
        open_sp->rule = classifier.matched_rule();
        open_sp = nullptr;
        cls_deadline = kNoDeadlineNs;
      }
      if (len == hb) [[unlikely]] {
        ++heartbeats;  // never starts a spike or resets the idle clock
        continue;
      }
      if (open_sp != nullptr) [[unlikely]] {
        last_up = now;
        if (open_sp->prefix_len < open_sp->prefix.size()) {
          open_sp->prefix[open_sp->prefix_len++] = len;
        }
        const auto v = up_cls[j] != 0 ? classifier.feed(len)
                                      : classifier.feed_nonrule(len);
        if (v) {
          open_sp->cls = *v;
          open_sp->rule = classifier.matched_rule();
          open_sp = nullptr;
          cls_deadline = kNoDeadlineNs;
        }
        continue;
      }
      const bool idle = now - last_up >= idle_gap_ns;
      last_up = now;
      if (!idle) [[likely]] continue;  // tail of a classified spike

      // New spike (cold).
      spike_order_.push_back(
          {up_pos[j], static_cast<std::uint32_t>(out.spikes.size())});
      BatchSpike& sp = out.spikes.emplace_back();
      sp.flow_id = flow_id;
      sp.udp = f.udp;
      sp.start = sim::TimePoint{now};
      sp.prefix[0] = len;
      sp.prefix_len = 1;
      if (forced_instant) {
        // Live, these spikes skip the classifier and go straight to the
        // decision module; the verdict itself is not wire-observable.
        sp.cls = guard::SpikeClass::kCommand;
        sp.rule = guard::MatchedRule::kNone;
        continue;
      }
      classifier = guard::SpikeClassifier{};
      if (const auto v = up_cls[j] != 0 ? classifier.feed(len)
                                        : classifier.feed_nonrule(len)) {
        sp.cls = *v;
        sp.rule = classifier.matched_rule();
      } else {
        open_sp = &sp;
        cls_deadline = now + classify_timeout_ns;
      }
    }
    if (open_sp != nullptr) {
      // The timer outlives the tapped packets and still fires in the drain.
      open_sp->cls = classifier.finalize();
      open_sp->rule = classifier.matched_rule();
    }
  }
  out.heartbeats = heartbeats;

  // Spikes come out flow-grouped; the oracle emits them in opening order.
  // With one monitored flow (the common capture shape) they already are —
  // only permute when flows actually interleaved spikes.
  if (!std::is_sorted(
          spike_order_.begin(), spike_order_.end(),
          [](const SpikeRef& a, const SpikeRef& b) { return a.pos < b.pos; })) {
    std::sort(spike_order_.begin(), spike_order_.end(),
              [](const SpikeRef& a, const SpikeRef& b) {
                return a.pos < b.pos;
              });
    spike_scratch_.assign(out.spikes.begin(), out.spikes.end());
    for (std::size_t i = 0; i < spike_order_.size(); ++i) {
      out.spikes[i] = spike_scratch_[spike_order_[i].idx];
    }
  }
  for (const BatchSpike& sp : out.spikes) {
    switch (sp.cls) {
      case guard::SpikeClass::kCommand: ++out.commands; break;
      case guard::SpikeClass::kResponse: ++out.responses; break;
      case guard::SpikeClass::kUnknown: ++out.unknowns; break;
    }
  }
}

}  // namespace vg::trace
