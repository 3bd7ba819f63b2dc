#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/MiddleBox.h"
#include "netsim/Tcp.h"
#include "netsim/Udp.h"
#include "voiceguard/Decision.h"
#include "voiceguard/RecognitionCore.h"
#include "voiceguard/WireTap.h"

/// \file GuardBox.h
/// The VoiceGuard box: the paper's laptop, inline between the smart speaker
/// and the home router. It combines
///  - a *transparent TCP proxy* (§IV-B2): it answers the speaker's SYNs as if
///    it were the cloud, opens a mirrored connection to the real server with
///    the speaker's own address, and shuttles TLS records between the two.
///    While records are held, both TCP connections stay fully alive (the
///    proxy ACKs segments and keep-alive probes), so a hold never breaks the
///    session — only an explicit drop does, and then it is the *cloud* that
///    kills the TLS session on the record-sequence gap (Fig. 4, case III);
///  - a *UDP forwarder* for the Google Home Mini's QUIC traffic, holding
///    whole datagrams;
///  - the hold/query/release-or-drop state machine around the Decision
///    Module, with its degradation policies.
///
/// Recognition (§IV-B1) is not implemented here: every upstream record goes
/// through a RecognitionCore — the same code the offline replayers run —
/// and the box acts on what it returns (forward or hold the record, query
/// or release a decided spike, arm the core's deadlines on the simulation
/// clock).
///
/// Information rule: this class only reads what a real middlebox could —
/// packet/record lengths, TCP/UDP headers, plaintext DNS. It never reads
/// TlsRecord::tag (tests enforce the behaviour this guarantees).

namespace vg::guard {

/// What the guard does with a held spike when it cannot obtain a verdict
/// (decision timeout, hold-queue overflow): fail-closed sacrifices
/// availability for security, fail-open the reverse. §VII's deployment
/// discussion leaves the choice to the installer; the chaos matrix measures
/// both.
enum class FailPolicy {
  kFailClosed,  // drop the held spike
  kFailOpen,    // release the held spike
};

std::string to_string(FailPolicy p);

/// Terminal state of a recognized spike. The chaos invariant: every spike
/// eventually leaves kPending, whatever faults are active.
enum class SpikeOutcome : std::uint8_t {
  kPending,   // still classifying or awaiting a verdict
  kReleased,  // forwarded: benign classification, legit verdict, or fail-open
  kDropped,   // discarded: malicious verdict, fail-closed, or flow death
  kObserved,  // monitor mode / detection-only: recognized, never held
};

std::string to_string(SpikeOutcome o);

/// One recognized spike and what happened to it.
struct SpikeEvent : Spike {
  bool held{false};
  bool queried{false};
  bool verdict_legit{false};
  bool dropped{false};
  SpikeOutcome outcome{SpikeOutcome::kPending};
  bool forced{false};  // outcome came from a degradation policy, not a verdict
  sim::TimePoint verdict_time;
  double hold_seconds{0};  // first-held-packet -> release/drop
};

class GuardBox : public net::MiddleBox {
 public:
  struct Options {
    /// Every protected smart speaker on the LAN, by IP (§V: with several
    /// speakers, the guard identifies the active one by its unique IP and
    /// applies the same strategy per speaker).
    std::vector<net::IpAddress> speaker_ips;
    std::string avs_domain = "avs-alexa-4-na.amazon.com";
    std::string google_domain = "www.google.com";
    /// Learn/refresh the AVS establishment signature from DNS-identified
    /// connections (§VII's future work, implemented).
    bool adaptive_signatures = true;
    GuardMode mode = GuardMode::kVoiceGuard;
    /// Degradation policies (the robustness PR). A held spike whose verdict
    /// does not arrive within verdict_timeout is resolved by fail_policy;
    /// likewise when a hold accumulates hold_queue_cap buffered items
    /// (0 = unbounded). verdict_timeout defaults to 0 (disabled) so a guard
    /// with no timeout configured holds indefinitely, exactly like the
    /// pre-fault code; the chaos worlds opt in explicitly.
    FailPolicy fail_policy = FailPolicy::kFailClosed;
    sim::Duration verdict_timeout = sim::Duration{};
    std::size_t hold_queue_cap = 256;
  };

  GuardBox(net::Network& net, std::string name, DecisionModule& decision,
           Options opts);

  /// Routes commands from \p speaker to a dedicated decision module
  /// (each speaker has its own Bluetooth beacon and thresholds). Speakers
  /// without a dedicated module use the constructor's default.
  void set_decision_for(net::IpAddress speaker, DecisionModule& decision) {
    per_speaker_decision_[speaker] = &decision;
  }

  /// Attaches a wire tap that receives every observable record/datagram/DNS
  /// answer from now on (see WireTap.h); nullptr detaches. Flows opened while
  /// no tap was attached are never reported. The tap must outlive the guard
  /// or be detached first.
  void set_wire_tap(WireTap* tap) { tap_ = tap; }

  // --- recognizer state ------------------------------------------------------
  [[nodiscard]] net::IpAddress tracked_avs_ip() const { return core_.avs_ip(); }
  [[nodiscard]] net::IpAddress tracked_google_ip() const {
    return core_.google_ip();
  }
  [[nodiscard]] std::uint64_t avs_ip_updates_from_dns() const {
    return avs_dns_updates_;
  }
  [[nodiscard]] std::uint64_t avs_ip_updates_from_signature() const {
    return avs_signature_updates_;
  }

  // --- outcomes --------------------------------------------------------------
  [[nodiscard]] const std::vector<SpikeEvent>& spike_events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t commands_released() const { return released_; }
  [[nodiscard]] std::uint64_t commands_blocked() const { return blocked_; }
  [[nodiscard]] std::uint64_t proxied_flows() const { return flow_count_; }
  /// Spikes resolved by a degradation policy instead of a verdict.
  [[nodiscard]] std::uint64_t forced_open() const { return forced_open_; }
  [[nodiscard]] std::uint64_t forced_closed() const { return forced_closed_; }
  [[nodiscard]] std::uint64_t hold_overflows() const { return hold_overflows_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  /// Held items still buffered across all live monitors (the no-leak
  /// invariant: 0 once traffic has drained).
  [[nodiscard]] std::size_t held_outstanding() const;
  /// Spikes whose outcome is still kPending (the terminal-verdict invariant:
  /// 0 once traffic has drained).
  [[nodiscard]] std::size_t unresolved_spikes() const;

  /// Simulates a guard-box crash/restart mid-operation: every proxied flow is
  /// aborted (deterministically, in flow-id order), held packets and learned
  /// recognizer state are lost, and the box comes back up cold — speakers
  /// must reconnect through it. Spikes that were mid-hold are terminalized as
  /// forced drops.
  void restart();

  DecisionModule& decision() { return decision_; }

  /// The AVS establishment signature the recognizer ships with (see
  /// RecognitionCore::shipped_signature).
  static const std::vector<std::uint32_t>& avs_signature() {
    return RecognitionCore::shipped_signature();
  }

  [[nodiscard]] const SignatureLearner& signature_learner() const {
    return core_.learner();
  }

 protected:
  bool on_lan_packet(net::Packet& p) override;
  bool on_wan_packet(net::Packet& p) override;

 private:
  /// One speaker flow: its recognition state plus what the box holds.
  struct Monitor {
    RecognitionCore::Flow rec;
    net::IpAddress speaker_ip{};
    std::vector<std::function<void()>> held;  // deferred forward actions
    sim::TimePoint first_held{};
    int tap_flow{-1};  // wire-tap flow index; -1 when untapped

    explicit Monitor(RecognitionCore::Flow f) : rec(std::move(f)) {}
  };

  struct ProxiedFlow {
    std::uint64_t id{0};
    net::TcpConnection* lan{nullptr};
    net::TcpConnection* wan{nullptr};
    bool lan_closed{false};
    bool wan_closed{false};
    std::shared_ptr<Monitor> mon;
  };

  void accept_lan_connection(net::TcpConnection& lan_conn);
  void on_dns_response(const net::DnsMessage& dns);
  [[nodiscard]] bool is_speaker(net::IpAddress ip) const;
  DecisionModule& decision_for(const Monitor& m);

  /// Runs one upstream record through the core and acts on the step: hold
  /// or forward (\p forward sends the item onward), arm the classify timer,
  /// settle a decided spike.
  void monitor_upstream(const std::shared_ptr<Monitor>& m, std::uint32_t len,
                        bool tls, std::function<void()> forward);
  void on_classify_timeout(const std::shared_ptr<Monitor>& m,
                           std::uint64_t gen);
  /// The open spike's class was decided: observe (monitor mode), query
  /// (command) or release it.
  void settle_classification(const std::shared_ptr<Monitor>& m);
  void query_decision(const std::shared_ptr<Monitor>& m);
  /// True while \p m's spike \p gen is open (awaiting its verdict).
  [[nodiscard]] static bool awaiting(const Monitor& m, std::uint64_t gen) {
    return m.rec.spike_open && m.rec.spike_gen == gen;
  }
  void flush(Monitor& m);
  void drop(Monitor& m);
  /// Records the terminal outcome of the monitor's current spike (no-op if it
  /// already has one or there is no event).
  void terminalize(Monitor& m, SpikeOutcome outcome, bool forced);
  /// Resolves a held spike by policy instead of verdict: release or drop,
  /// then invalidate the pending verdict via the spike generation.
  void force_verdict(const std::shared_ptr<Monitor>& m, bool release);
  /// Applies the hold-queue capacity policy after a push.
  void enforce_hold_cap(const std::shared_ptr<Monitor>& m);
  void log_relearned();

  DecisionModule& decision_;
  Options opts_;
  RecognitionCore core_;
  WireTap* tap_{nullptr};
  std::unordered_map<net::IpAddress, DecisionModule*> per_speaker_decision_;

  std::unique_ptr<net::TcpStack> lan_stack_;
  std::unique_ptr<net::TcpStack> wan_stack_;

  std::uint64_t avs_dns_updates_{0};
  std::uint64_t avs_signature_updates_{0};

  std::unordered_map<net::TcpConnection*, std::shared_ptr<ProxiedFlow>>
      flows_by_lan_;
  std::unordered_map<net::TcpConnection*, std::shared_ptr<ProxiedFlow>>
      flows_by_wan_;
  std::unordered_map<net::FlowKey, std::shared_ptr<Monitor>> udp_monitors_;

  std::vector<SpikeEvent> events_;
  std::uint64_t flow_count_{0};
  std::uint64_t released_{0};
  std::uint64_t blocked_{0};
  std::uint64_t forced_open_{0};
  std::uint64_t forced_closed_{0};
  std::uint64_t hold_overflows_{0};
  std::uint64_t restarts_{0};
};

}  // namespace vg::guard
