#include "voiceguard/GuardBox.h"

#include <algorithm>
#include <unordered_set>

namespace vg::guard {

std::string to_string(FailPolicy p) {
  switch (p) {
    case FailPolicy::kFailClosed: return "fail-closed";
    case FailPolicy::kFailOpen: return "fail-open";
  }
  return "?";
}

std::string to_string(SpikeOutcome o) {
  switch (o) {
    case SpikeOutcome::kPending: return "pending";
    case SpikeOutcome::kReleased: return "released";
    case SpikeOutcome::kDropped: return "dropped";
    case SpikeOutcome::kObserved: return "observed";
  }
  return "?";
}

GuardBox::GuardBox(net::Network& net, std::string name,
                   DecisionModule& decision, Options opts)
    : net::MiddleBox(net, std::move(name)),
      decision_(decision),
      opts_(opts),
      core_({opts_.mode, opts_.adaptive_signatures}) {
  // The guard terminates TCP on both arms. The LAN stack impersonates
  // whatever server the speaker talks to; the WAN stack impersonates the
  // speaker toward the real server. IPs on the stacks are nominal.
  lan_stack_ = std::make_unique<net::TcpStack>(
      sim(), net::IpAddress(192, 168, 1, 2),
      [this](net::Packet p) { send_to_lan(std::move(p)); },
      this->name() + ".lan");
  wan_stack_ = std::make_unique<net::TcpStack>(
      sim(), net::IpAddress(192, 168, 1, 2),
      [this](net::Packet p) { send_to_wan(std::move(p)); },
      this->name() + ".wan");
  lan_stack_->listen_transparent(
      [this](net::TcpConnection& c) { accept_lan_connection(c); });
}

void GuardBox::on_dns_response(const net::DnsMessage& dns) {
  if (dns.answers.empty()) return;
  if (tap_ != nullptr) tap_->on_dns(dns.qname, dns.answers.front(), sim().now());
  if (dns.qname == opts_.avs_domain) {
    if (core_.on_dns(VoiceDomain::kAvs, dns.answers.front())) {
      ++avs_dns_updates_;
      sim().log(sim::LogLevel::kInfo, name(),
                "AVS IP from DNS: " + core_.avs_ip().to_string());
    }
  } else if (dns.qname == opts_.google_domain) {
    core_.on_dns(VoiceDomain::kGoogle, dns.answers.front());
  }
}

// ---------------------------------------------------------------------------
// Packet path
// ---------------------------------------------------------------------------

bool GuardBox::is_speaker(net::IpAddress ip) const {
  for (net::IpAddress s : opts_.speaker_ips) {
    if (s == ip) return true;
  }
  return false;
}

DecisionModule& GuardBox::decision_for(const Monitor& m) {
  auto it = per_speaker_decision_.find(m.speaker_ip);
  return it != per_speaker_decision_.end() ? *it->second : decision_;
}

bool GuardBox::on_lan_packet(net::Packet& p) {
  if (p.protocol == net::Protocol::kTcp && is_speaker(p.src.ip)) {
    // Every speaker TCP flow is transparently proxied from its SYN. The
    // packet is consumed, so it moves into the stack without a copy.
    lan_stack_->on_packet(std::move(p));
    return true;
  }
  if (p.protocol == net::Protocol::kUdp && p.quic && is_speaker(p.src.ip)) {
    const auto key = net::FlowKey::canonical(p.src, p.dst);
    auto it = udp_monitors_.find(key);
    if (it == udp_monitors_.end()) {
      auto m = std::make_shared<Monitor>(core_.open_flow(
          ++flow_count_, /*udp=*/true, p.dst.ip, sim().now()));
      m->speaker_ip = p.src.ip;
      if (tap_ != nullptr) {
        m->tap_flow =
            tap_->on_flow(net::Protocol::kUdp, p.src, p.dst, sim().now());
      }
      it = udp_monitors_.emplace(key, std::move(m)).first;
    }
    const std::shared_ptr<Monitor>& m = it->second;
    const std::uint32_t len = p.payload_length();
    if (tap_ != nullptr && m->tap_flow >= 0) {
      tap_->on_datagram(m->tap_flow, /*upstream=*/true, len, sim().now());
    }
    // Consumed here: the datagram moves into the forward closure instead of
    // being copied (records + tag strings) for every monitored QUIC packet.
    monitor_upstream(m, len, /*tls=*/false,
                     [this, pkt = std::move(p)]() mutable {
                       send_to_wan(std::move(pkt));
                     });
    return true;
  }
  // DNS queries and anything else pass through untouched.
  return false;
}

bool GuardBox::on_wan_packet(net::Packet& p) {
  if (p.dns && p.dns->is_response) on_dns_response(*p.dns);
  if (p.protocol == net::Protocol::kTcp && wan_stack_->owns_flow(p)) {
    wan_stack_->on_packet(std::move(p));
    return true;
  }
  if (tap_ != nullptr && p.protocol == net::Protocol::kUdp && p.quic &&
      is_speaker(p.dst.ip)) {
    // Downstream QUIC datagrams pass through, but their lengths are part of
    // what the box observes.
    const auto it = udp_monitors_.find(net::FlowKey::canonical(p.src, p.dst));
    if (it != udp_monitors_.end() && it->second->tap_flow >= 0) {
      tap_->on_datagram(it->second->tap_flow, /*upstream=*/false,
                        p.payload_length(), sim().now());
    }
  }
  return false;  // downstream UDP/QUIC and DNS pass through
}

// ---------------------------------------------------------------------------
// Transparent TCP proxying
// ---------------------------------------------------------------------------

void GuardBox::accept_lan_connection(net::TcpConnection& lan_conn) {
  auto flow = std::make_shared<ProxiedFlow>();
  flow->id = ++flow_count_;
  flow->lan = &lan_conn;
  flow->mon = std::make_shared<Monitor>(core_.open_flow(
      flow->id, /*udp=*/false, lan_conn.local().ip, sim().now()));
  flow->mon->speaker_ip = lan_conn.remote().ip;
  flows_by_lan_[&lan_conn] = flow;
  const std::shared_ptr<Monitor> mon = flow->mon;
  if (tap_ != nullptr) {
    mon->tap_flow = tap_->on_flow(net::Protocol::kTcp, lan_conn.remote(),
                                  lan_conn.local(), sim().now());
  }

  if (const auto t = RecognitionCore::close_out_at(mon->rec)) {
    // A DNS-identified AVS connection hands the learner its establishment
    // prefix even if the session goes quiet inside the window.
    sim().at(*t, [this, mon] {
      if (core_.close_establishment(mon->rec)) log_relearned();
    });
  }

  // LAN side: speaker <-> guard (guard impersonates the server endpoint).
  net::TcpCallbacks lan_cbs;
  lan_cbs.on_record = [this, flow, mon](const net::TlsRecord& r) {
    if (tap_ != nullptr && mon->tap_flow >= 0) {
      tap_->on_tls_record(mon->tap_flow, /*upstream=*/true, r.type, r.length,
                          sim().now());
    }
    net::TlsRecord copy = r;
    monitor_upstream(mon, r.length, /*tls=*/true,
                     [flow, copy = std::move(copy)]() mutable {
                       if (flow->wan != nullptr) {
                         flow->wan->send_record(std::move(copy));
                       }
                     });
  };
  lan_cbs.on_closed = [this, flow, mon](net::TcpCloseReason reason) {
    flow->lan_closed = true;
    // A dead speaker connection has nothing left to release, and any
    // outstanding verdict no longer applies. An observation still open ends
    // as the classify timer would have ended it: undecided, kUnknown.
    terminalize(*mon,
                opts_.mode == GuardMode::kMonitor ? SpikeOutcome::kObserved
                                                  : SpikeOutcome::kDropped,
                /*forced=*/false);
    drop(*mon);
    RecognitionCore::close_spike(mon->rec);
    if (flow->lan != nullptr) {
      flows_by_lan_.erase(flow->lan);
      flow->lan = nullptr;
    }
    if (!flow->wan_closed && flow->wan != nullptr) {
      if (reason == net::TcpCloseReason::kFin) {
        flow->wan->close();
      } else {
        flow->wan->abort();
      }
    }
  };
  lan_conn.set_callbacks(std::move(lan_cbs));

  // WAN side: guard <-> real server, with the speaker's own address.
  net::TcpCallbacks wan_cbs;
  wan_cbs.on_record = [this, flow, mon](const net::TlsRecord& r) {
    if (tap_ != nullptr && mon->tap_flow >= 0) {
      tap_->on_tls_record(mon->tap_flow, /*upstream=*/false, r.type, r.length,
                          sim().now());
    }
    // Downstream records are never held (responses flow freely).
    if (flow->lan != nullptr && !flow->lan_closed) {
      flow->lan->send_record(r);
    }
  };
  wan_cbs.on_closed = [this, flow, mon](net::TcpCloseReason reason) {
    flow->wan_closed = true;
    // In monitor mode nothing is held, and speaker-side records remain
    // observable until the LAN arm closes moments later — so a mid-spike
    // server close must not cut the observation short (the trace carries no
    // close events, so the offline replayer cannot see such a cut).
    if (opts_.mode != GuardMode::kMonitor) {
      terminalize(*mon, SpikeOutcome::kDropped, /*forced=*/false);
      drop(*mon);
      RecognitionCore::close_spike(mon->rec);
    }
    if (flow->wan != nullptr) {
      flows_by_wan_.erase(flow->wan);
      flow->wan = nullptr;
    }
    if (!flow->lan_closed && flow->lan != nullptr) {
      if (reason == net::TcpCloseReason::kFin) {
        flow->lan->close();
      } else {
        flow->lan->abort();
      }
    }
  };
  net::TcpConnection& wan_conn = wan_stack_->connect_from(
      lan_conn.remote(), lan_conn.local(), std::move(wan_cbs));
  flow->wan = &wan_conn;
  flows_by_wan_[&wan_conn] = flow;
}

// ---------------------------------------------------------------------------
// Hold / verdict machine around the recognition core
// ---------------------------------------------------------------------------

void GuardBox::log_relearned() {
  sim().log(sim::LogLevel::kInfo, name(),
            "AVS establishment signature re-learned (" +
                std::to_string(core_.learner().signature().size()) +
                " packets)");
}

void GuardBox::monitor_upstream(const std::shared_ptr<Monitor>& m,
                                std::uint32_t len, bool tls,
                                std::function<void()> forward) {
  Monitor& mon = *m;
  using Core = RecognitionCore;
  const Core::Step step =
      core_.upstream(mon.rec, sim().now(), len, tls, events_);
  if (step & Core::kRelearned) log_relearned();
  if (step & Core::kAdopted) {
    ++avs_signature_updates_;
    sim().log(sim::LogLevel::kInfo, name(),
              "AVS IP from signature: " + core_.avs_ip().to_string());
  }
  if (step & Core::kArmClassify) {
    const std::uint64_t gen = mon.rec.spike_gen;
    sim().after(rules::kClassifyTimeout,
                [this, m, gen] { on_classify_timeout(m, gen); });
  }

  // Monitor mode records and classifies, but never holds (detection-only
  // deployments, and the Table I bench).
  if (!(step & Core::kInSpike) || opts_.mode == GuardMode::kMonitor) {
    if (step & Core::kDecided) settle_classification(m);
    forward();
    return;
  }

  // A new spike starts an empty hold queue. Google flows and naive mode skip
  // the classifier: the spike is a command from its first record and is
  // queried before that record is held.
  const bool opened = (step & Core::kOpened) != 0;
  const bool decided = (step & Core::kDecided) != 0;
  const bool forced = opened && decided && !(step & Core::kArmClassify);
  if (opened) mon.held.clear();
  if (forced) query_decision(m);
  mon.held.push_back(std::move(forward));
  if (opened) {
    mon.first_held = sim().now();
    events_[mon.rec.spike].held = true;
  }
  if (decided && !forced) settle_classification(m);
  enforce_hold_cap(m);
}

void GuardBox::on_classify_timeout(const std::shared_ptr<Monitor>& m,
                                   std::uint64_t gen) {
  if (core_.classify_deadline(m->rec, gen, events_)) settle_classification(m);
}

void GuardBox::settle_classification(const std::shared_ptr<Monitor>& m) {
  Monitor& mon = *m;
  if (opts_.mode == GuardMode::kMonitor) {
    terminalize(mon, SpikeOutcome::kObserved, /*forced=*/false);
    RecognitionCore::close_spike(mon.rec);
    return;
  }
  if (events_[mon.rec.spike].cls == SpikeClass::kCommand) {
    query_decision(m);
    return;
  }
  // Response or unknown: release immediately; the brief buffering is the
  // "negligible" cost of online classification.
  terminalize(mon, SpikeOutcome::kReleased, /*forced=*/false);
  flush(mon);
  RecognitionCore::close_spike(mon.rec);
}

void GuardBox::query_decision(const std::shared_ptr<Monitor>& m) {
  Monitor& mon = *m;
  events_[mon.rec.spike].queried = true;
  const std::uint64_t gen = mon.rec.spike_gen;
  decision_for(mon).query([this, m, gen](bool legit) {
    Monitor& mon2 = *m;
    if (!awaiting(mon2, gen)) return;  // flow died or was resolved meanwhile
    SpikeEvent& ev = events_[mon2.rec.spike];
    ev.verdict_time = sim().now();
    ev.verdict_legit = legit;
    ev.hold_seconds = (sim().now() - mon2.first_held).seconds();
    ev.dropped = !legit;
    ev.outcome = legit ? SpikeOutcome::kReleased : SpikeOutcome::kDropped;
    if (legit) {
      ++released_;
      flush(mon2);
    } else {
      ++blocked_;
      sim().log(sim::LogLevel::kInfo, name(),
                "malicious voice command blocked (flow " +
                    std::to_string(mon2.rec.id) + ")");
      drop(mon2);
    }
    RecognitionCore::close_spike(mon2.rec);
  });
  // Degradation: never wait forever on a verdict. The timer is a no-op when
  // the decision module answers in time (the common case — its own device
  // timeout is far shorter than verdict_timeout).
  if (opts_.verdict_timeout.ns() > 0 && awaiting(mon, gen)) {
    sim().after(opts_.verdict_timeout, [this, m, gen] {
      if (!awaiting(*m, gen)) return;
      const bool release = opts_.fail_policy == FailPolicy::kFailOpen;
      sim().log(sim::LogLevel::kWarn, name(),
                "verdict timeout on flow " + std::to_string(m->rec.id) +
                    " -> " + to_string(opts_.fail_policy));
      force_verdict(m, release);
    });
  }
}

void GuardBox::flush(Monitor& m) {
  auto held = std::move(m.held);
  m.held.clear();
  for (auto& action : held) action();
}

void GuardBox::drop(Monitor& m) { m.held.clear(); }

void GuardBox::terminalize(Monitor& m, SpikeOutcome outcome, bool forced) {
  if (m.rec.spike == RecognitionCore::kNoSpike) return;
  SpikeEvent& ev = events_[m.rec.spike];
  if (ev.outcome != SpikeOutcome::kPending) return;
  ev.outcome = outcome;
  ev.forced = forced;
  if (ev.held) ev.hold_seconds = (sim().now() - m.first_held).seconds();
}

void GuardBox::force_verdict(const std::shared_ptr<Monitor>& m, bool release) {
  Monitor& mon = *m;
  if (release) {
    ++forced_open_;
  } else {
    ++forced_closed_;
  }
  SpikeEvent& ev = events_[mon.rec.spike];
  ev.verdict_time = sim().now();
  ev.verdict_legit = release;
  ev.dropped = !release;
  if (ev.held) ev.hold_seconds = (sim().now() - mon.first_held).seconds();
  ev.forced = true;
  ev.outcome = release ? SpikeOutcome::kReleased : SpikeOutcome::kDropped;
  if (release) {
    ++released_;
    flush(mon);
  } else {
    ++blocked_;
    drop(mon);
  }
  // Closing the spike also voids the in-flight verdict callback: when the
  // decision module finally answers, the spike is no longer awaiting it.
  RecognitionCore::close_spike(mon.rec);
}

void GuardBox::enforce_hold_cap(const std::shared_ptr<Monitor>& m) {
  Monitor& mon = *m;
  if (opts_.hold_queue_cap == 0 || mon.held.size() < opts_.hold_queue_cap ||
      !mon.rec.spike_open) {
    return;
  }
  ++hold_overflows_;
  sim().log(sim::LogLevel::kWarn, name(),
            "hold queue overflow on flow " + std::to_string(mon.rec.id) +
                " -> " + to_string(opts_.fail_policy));
  force_verdict(m, opts_.fail_policy == FailPolicy::kFailOpen);
}

std::size_t GuardBox::held_outstanding() const {
  std::unordered_set<const Monitor*> seen;
  std::size_t n = 0;
  auto add = [&](const Monitor& m) {
    if (seen.insert(&m).second) n += m.held.size();
  };
  for (const auto& [conn, flow] : flows_by_lan_) add(*flow->mon);
  for (const auto& [conn, flow] : flows_by_wan_) add(*flow->mon);
  for (const auto& [key, mon] : udp_monitors_) add(*mon);
  return n;
}

std::size_t GuardBox::unresolved_spikes() const {
  std::size_t n = 0;
  for (const SpikeEvent& ev : events_) {
    if (ev.outcome == SpikeOutcome::kPending) ++n;
  }
  return n;
}

void GuardBox::restart() {
  ++restarts_;
  sim().log(sim::LogLevel::kWarn, name(),
            "guard box restarting: dropping " +
                std::to_string(flows_by_lan_.size()) + " proxied flows");

  // The flow maps are pointer-keyed, so their iteration order is not
  // reproducible across runs — and abort order decides packet order. Collect,
  // dedupe, and abort in flow-id order.
  std::vector<std::shared_ptr<ProxiedFlow>> flows;
  flows.reserve(flows_by_lan_.size() + flows_by_wan_.size());
  for (const auto& [conn, flow] : flows_by_lan_) flows.push_back(flow);
  for (const auto& [conn, flow] : flows_by_wan_) flows.push_back(flow);
  std::sort(flows.begin(), flows.end(),
            [](const std::shared_ptr<ProxiedFlow>& a,
               const std::shared_ptr<ProxiedFlow>& b) { return a->id < b->id; });
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());

  for (const auto& flow : flows) {
    terminalize(*flow->mon, SpikeOutcome::kDropped, /*forced=*/true);
    drop(*flow->mon);
    RecognitionCore::close_spike(flow->mon->rec);
    // Aborting one side cascades through its on_closed handler: the map
    // entries are erased and the counterpart is aborted too.
    if (flow->lan != nullptr && !flow->lan_closed) {
      flow->lan->abort();
    } else if (flow->wan != nullptr && !flow->wan_closed) {
      flow->wan->abort();
    }
  }
  flows_by_lan_.clear();
  flows_by_wan_.clear();

  std::vector<std::shared_ptr<Monitor>> udp_mons;
  udp_mons.reserve(udp_monitors_.size());
  for (const auto& [key, mon] : udp_monitors_) udp_mons.push_back(mon);
  std::sort(udp_mons.begin(), udp_mons.end(),
            [](const std::shared_ptr<Monitor>& a,
               const std::shared_ptr<Monitor>& b) {
              return a->rec.id < b->rec.id;
            });
  for (const auto& mon : udp_mons) {
    terminalize(*mon, SpikeOutcome::kDropped, /*forced=*/true);
    drop(*mon);
  }
  udp_monitors_.clear();

  // Cold start: learned recognizer state is gone until DNS/signature
  // re-acquisition.
  core_.reset();
}

}  // namespace vg::guard
