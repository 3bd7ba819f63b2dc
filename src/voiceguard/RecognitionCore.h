#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "netsim/Address.h"
#include "simcore/Time.h"
#include "voiceguard/Recognizer.h"
#include "voiceguard/SignatureLearner.h"

/// \file RecognitionCore.h
/// The Voice Command Traffic Recognition logic of §IV-B1, once, for every
/// driver: AVS-endpoint tracking by DNS and by connection signature, the
/// establishment exemption (whose prefix feeds the signature learner),
/// heartbeat filtering, spike segmentation at idle gaps, and the
/// phase-1/phase-2 classifier.
///
/// The core is a clock-free state machine over what a middlebox can observe:
/// DNS answers and upstream (time, flow, record length, TLS-or-datagram)
/// events. It never schedules anything. Each call returns what the driver
/// must do — forward or hold the record, record an opened or decided spike,
/// arm a deadline at time t — and the driver calls back when that deadline
/// comes due. Three drivers run it:
///  - guard::GuardBox, live: TCP/UDP proxy plus the hold/verdict/degradation
///    machine, deadlines on the simulation clock;
///  - trace::Replayer, offline: TraceReader records in, deadlines from a
///    FIFO-on-ties heap — the per-record oracle;
///  - trace::BatchReplayer, offline and columnar: its own data-plane sweep,
///    with the core's address tracking and signature learner.
///
/// Per-flow state (Flow) lives with the driver's flow record and dies with
/// it; the core itself holds only the two tracked addresses and the learner.

namespace vg::guard {

/// Operating mode, for the paper's comparisons.
enum class GuardMode {
  kVoiceGuard,  // full scheme: classify spikes, hold only commands
  kNaive,       // the strawman of Fig. 3: hold every spike after idle
  kMonitor,     // recognize and record, but never hold (detection only)
};

std::string to_string(GuardMode m);

/// The two voice-service domains whose DNS answers the core tracks.
enum class VoiceDomain : std::uint8_t { kAvs, kGoogle };

/// One recognized spike: the recognition half of what a driver records
/// (guard::SpikeEvent adds the hold and verdict half).
struct Spike {
  std::uint64_t flow_id{0};
  bool udp{false};
  sim::TimePoint start;
  /// First packet lengths (<= rules::kSpikePrefixKeep kept).
  std::vector<std::uint32_t> prefix;
  SpikeClass cls{SpikeClass::kUnknown};
  MatchedRule rule{MatchedRule::kNone};  // rule behind cls (kNone if forced)
};

class RecognitionCore {
 public:
  struct Config {
    GuardMode mode = GuardMode::kVoiceGuard;
    /// Learn/refresh the AVS establishment signature from DNS-identified
    /// connections (§VII's future work, implemented).
    bool adaptive_signatures = true;
  };

  enum class Destination : std::uint8_t { kUnmonitored, kAvs, kGoogle };

  /// Flow::spike before the flow's first spike.
  static constexpr std::size_t kNoSpike = ~std::size_t{0};

  /// One flow's recognition state. Drivers read it; only the core writes it.
  struct Flow {
    std::uint64_t id{0};
    bool udp{false};
    Destination kind{Destination::kUnmonitored};
    net::IpAddress dst{};
    sim::TimePoint created{};
    /// Establishment: a DNS-identified AVS flow over TCP collects its exempt
    /// prefix as a learner example; a TCP flow to an unknown destination
    /// probes the signature published when it opened.
    bool establishment_done{false};
    std::vector<std::uint32_t> est_prefix;
    SignatureMatcher probe;
    /// Idle clock: time of the last non-heartbeat upstream record.
    bool has_upstream{false};
    sim::TimePoint last_upstream{};
    /// The flow's latest spike: its index in the driver's record list, and
    /// whether it is still open (the driver closes it) and decided.
    std::size_t spike{kNoSpike};
    std::uint64_t spike_gen{0};
    bool spike_open{false};
    bool spike_decided{false};
    SpikeClassifier classifier;
  };

  /// What one upstream record did: a set of these bits. A plain byte, so the
  /// inline per-record path keeps it in a register.
  using Step = std::uint8_t;
  enum StepBit : Step {
    kHeartbeat = 1u << 0,    // an AVS heartbeat: no prefix, no idle clock
    kInSpike = 1u << 1,      // belongs to the flow's open spike (hold it)
    kOpened = 1u << 2,       // opened that spike; its record was appended
    kArmClassify = 1u << 3,  // arm classify_deadline(flow, spike_gen) at
                             // now + rules::kClassifyTimeout
    kDecided = 1u << 4,      // decided the open spike's class
    kAdopted = 1u << 5,      // matched the signature on a new AVS address
    kRelearned = 1u << 6,    // closed an establishment; learner republished
  };

  explicit RecognitionCore(Config cfg);

  /// A DNS answer for one of the voice domains. Returns true iff it moved
  /// the tracked AVS endpoint.
  bool on_dns(VoiceDomain domain, net::IpAddress answer);

  /// Recognition state for a flow the speaker opened to \p dst at \p now.
  [[nodiscard]] Flow open_flow(std::uint64_t id, bool udp, net::IpAddress dst,
                               sim::TimePoint now) const;

  /// When a just-opened flow's establishment must close even if it goes
  /// quiet (call close_establishment then): DNS-identified AVS flows over
  /// TCP. nullopt for every other flow.
  [[nodiscard]] static std::optional<sim::TimePoint> close_out_at(
      const Flow& f);

  /// Ends a flow's establishment exemption; a DNS-identified AVS flow hands
  /// its prefix to the learner. Returns true iff the learner republished.
  bool close_establishment(Flow& f);

  /// One upstream TLS record (\p tls) or datagram of \p len at \p now. A
  /// spike it opens is appended to \p spikes (the driver's record list,
  /// Spike or a type derived from it), and the open spike's prefix and
  /// verdict are written there.
  template <class Record>
  Step upstream(Flow& f, sim::TimePoint now, std::uint32_t len, bool tls,
                std::vector<Record>& spikes);

  /// The classify deadline armed for spike \p gen came due. Returns true iff
  /// it decided that spike (still open and undecided) from what was seen.
  template <class Record>
  bool classify_deadline(Flow& f, std::uint64_t gen,
                         std::vector<Record>& spikes);

  /// The driver is done with the flow's open spike (verdict, policy, flow
  /// death; a replayer at classification). Until then no new spike opens.
  static void close_spike(Flow& f) { f.spike_open = false; }

  /// Guard restart: forgets both tracked addresses and everything learned,
  /// back to the shipped signature. Reuses the learner's buffers.
  void reset();

  [[nodiscard]] Destination destination(net::IpAddress dst) const;
  /// Makes \p dst the tracked AVS endpoint after a signature match. Returns
  /// true iff it moved.
  bool adopt_avs_ip(net::IpAddress dst);

  [[nodiscard]] net::IpAddress avs_ip() const { return avs_ip_; }
  [[nodiscard]] net::IpAddress google_ip() const { return google_ip_; }
  [[nodiscard]] const SignatureLearner& learner() const { return learner_; }
  SignatureLearner& learner() { return learner_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// The AVS establishment signature the recognizer ships with (measured by
  /// the paper's authors; §IV-B1). The live signature may differ once the
  /// learner has observed enough DNS-identified connections.
  static const std::vector<std::uint32_t>& shipped_signature();

 private:
  /// A TCP record during establishment: the learner example of a
  /// DNS-identified AVS flow, or the signature probe of an unknown one.
  Step establish(Flow& f, sim::TimePoint now, std::uint32_t len);
  /// Google voice flows: every spike after idle is a command (§IV-B1).
  /// Naive mode: every spike after idle is *treated* as a command (Fig. 3).
  [[nodiscard]] bool skips_classifier(const Flow& f) const {
    return cfg_.mode != GuardMode::kMonitor &&
           (f.kind == Destination::kGoogle || cfg_.mode == GuardMode::kNaive);
  }
  /// Starts the flow's spike in its freshly appended record \p sp; true iff
  /// the first record decided it.
  bool open_spike(Flow& f, Spike& sp, sim::TimePoint now,
                  std::uint32_t len) const;
  /// Adds a record to the open, undecided spike; true iff that decided it.
  static bool grow_spike(Flow& f, Spike& sp, std::uint32_t len);
  static bool classify(Flow& f, Spike& sp, std::uint32_t len);

  Config cfg_;
  SignatureLearner learner_;
  net::IpAddress avs_ip_{};
  net::IpAddress google_ip_{};
};

// --- per-record path, inline: every driver calls it once per record ---------

template <class Record>
inline RecognitionCore::Step RecognitionCore::upstream(
    Flow& f, sim::TimePoint now, std::uint32_t len, bool tls,
    std::vector<Record>& spikes) {
  static_assert(std::is_base_of_v<Spike, Record>);
  Step step = 0;
  if (tls && !f.establishment_done) step = establish(f, now, len);

  // Unmonitored flows, and AVS flows still in their establishment prefix,
  // pass straight through.
  if (f.kind == Destination::kUnmonitored ||
      (f.kind == Destination::kAvs && !f.establishment_done)) {
    return step;
  }

  // Heartbeats neither start spikes nor reset the idle clock ("if we ignore
  // the heartbeat traffic, there is no traffic"), but an open spike keeps
  // them in stream order.
  if (f.kind == Destination::kAvs && len == rules::kHeartbeatLen) {
    return step | kHeartbeat | (f.spike_open ? kInSpike : 0);
  }

  if (f.spike_open) {
    f.last_upstream = now;
    step |= kInSpike;
    // A decided spike awaiting its driver: only the idle clock moves.
    if (!f.spike_decided && grow_spike(f, spikes[f.spike], len)) {
      step |= kDecided;
    }
    return step;
  }

  const bool idle =
      !f.has_upstream || (now - f.last_upstream) >= rules::kSpikeIdleGap;
  f.last_upstream = now;
  f.has_upstream = true;
  if (!idle) return step;  // the tail of a spike already decided
  step |= kInSpike | kOpened;
  // The timeout is armed even when this first record already decides.
  if (!skips_classifier(f)) step |= kArmClassify;
  f.spike = spikes.size();
  if (open_spike(f, spikes.emplace_back(), now, len)) step |= kDecided;
  return step;
}

template <class Record>
inline bool RecognitionCore::classify_deadline(Flow& f, std::uint64_t gen,
                                        std::vector<Record>& spikes) {
  if (!f.spike_open || f.spike_decided || f.spike_gen != gen) return false;
  Spike& sp = spikes[f.spike];
  sp.cls = f.classifier.finalize();
  sp.rule = f.classifier.matched_rule();
  f.spike_decided = true;
  return true;
}

}  // namespace vg::guard
