#include "voiceguard/RecognitionCore.h"

namespace vg::guard {

std::string to_string(GuardMode m) {
  switch (m) {
    case GuardMode::kVoiceGuard: return "voiceguard";
    case GuardMode::kNaive: return "naive";
    case GuardMode::kMonitor: return "monitor";
  }
  return "?";
}

const std::vector<std::uint32_t>& RecognitionCore::shipped_signature() {
  // Measured packet-length sequence of an Echo Dot connecting to the AVS
  // server (§IV-B1). Deliberately a defender-side copy: the guard knows this
  // from measurement, not by sharing code with a speaker.
  static const std::vector<std::uint32_t> kSig = {
      63, 33, 653, 131, 73, 131, 188, 73, 131, 73, 131, 73, 131, 77, 33, 33};
  return kSig;
}

RecognitionCore::RecognitionCore(Config cfg) : cfg_(cfg) {
  learner_.seed(shipped_signature());
}

void RecognitionCore::reset() {
  avs_ip_ = net::IpAddress{};
  google_ip_ = net::IpAddress{};
  learner_.reset();
  learner_.seed(shipped_signature());
}

bool RecognitionCore::on_dns(VoiceDomain domain, net::IpAddress answer) {
  if (domain == VoiceDomain::kGoogle) {
    google_ip_ = answer;
    return false;
  }
  if (avs_ip_ == answer) return false;
  avs_ip_ = answer;
  return true;
}

RecognitionCore::Destination RecognitionCore::destination(
    net::IpAddress dst) const {
  if (!avs_ip_.is_unspecified() && dst == avs_ip_) return Destination::kAvs;
  if (!google_ip_.is_unspecified() && dst == google_ip_) {
    return Destination::kGoogle;
  }
  return Destination::kUnmonitored;
}

bool RecognitionCore::adopt_avs_ip(net::IpAddress dst) {
  if (avs_ip_ == dst) return false;
  avs_ip_ = dst;
  return true;
}

RecognitionCore::Flow RecognitionCore::open_flow(std::uint64_t id, bool udp,
                                                 net::IpAddress dst,
                                                 sim::TimePoint now) const {
  Flow f;
  f.id = id;
  f.udp = udp;
  f.kind = destination(dst);
  f.dst = dst;
  f.created = now;
  // QUIC flows have no exempted prefix and are never probed.
  f.establishment_done = udp;
  if (!udp && f.kind == Destination::kUnmonitored) {
    f.probe = SignatureMatcher{learner_.signature()};
  }
  return f;
}

std::optional<sim::TimePoint> RecognitionCore::close_out_at(const Flow& f) {
  if (f.udp || f.kind != Destination::kAvs) return std::nullopt;
  return f.created + rules::kEstablishmentCloseOut;
}

bool RecognitionCore::close_establishment(Flow& f) {
  if (f.establishment_done) return false;
  f.establishment_done = true;
  return f.kind == Destination::kAvs && cfg_.adaptive_signatures &&
         !f.est_prefix.empty() && learner_.observe(f.est_prefix);
}

bool RecognitionCore::classify(Flow& f, Spike& sp, std::uint32_t len) {
  const auto v = f.classifier.feed(len);
  if (!v) return false;
  sp.cls = *v;
  sp.rule = f.classifier.matched_rule();
  f.spike_decided = true;
  return true;
}

bool RecognitionCore::grow_spike(Flow& f, Spike& sp, std::uint32_t len) {
  if (sp.prefix.size() < rules::kSpikePrefixKeep) sp.prefix.push_back(len);
  return classify(f, sp, len);
}

bool RecognitionCore::open_spike(Flow& f, Spike& sp, sim::TimePoint now,
                                 std::uint32_t len) const {
  ++f.spike_gen;
  f.spike_open = true;
  f.spike_decided = false;
  f.classifier = SpikeClassifier{};
  sp.flow_id = f.id;
  sp.udp = f.udp;
  sp.start = now;
  sp.prefix.push_back(len);
  if (skips_classifier(f)) {
    sp.cls = SpikeClass::kCommand;
    f.spike_decided = true;
    return true;
  }
  return classify(f, sp, len);
}

RecognitionCore::Step RecognitionCore::establish(Flow& f, sim::TimePoint now,
                                                 std::uint32_t len) {
  Step step = 0;
  const bool in_window = (now - f.created) <= rules::kEstablishmentWindow;
  switch (f.kind) {
    case Destination::kAvs:
      // DNS-identified AVS flow: its establishment prefix is a labeled
      // example for the signature learner. The first record past the window
      // closes it out and is then judged like any other (it may well be the
      // first packet of a command spike).
      if (in_window) {
        f.est_prefix.push_back(len);
      } else {
        if (close_establishment(f)) step |= kRelearned;
      }
      break;
    case Destination::kGoogle:
      f.establishment_done = true;  // on-demand flows are monitored at once
      break;
    case Destination::kUnmonitored:
      // Unknown destination: try the signature published when the flow
      // opened. A match means the AVS server moved to a new IP without a
      // visible DNS query (§IV-B1).
      if (!in_window) {
        f.establishment_done = true;  // too slow to be an establishment burst
        break;
      }
      switch (f.probe.feed(len)) {
        case SignatureMatcher::State::kMatched:
          f.kind = Destination::kAvs;
          f.establishment_done = true;
          f.last_upstream = now;
          f.has_upstream = true;
          if (adopt_avs_ip(f.dst)) step |= kAdopted;
          break;
        case SignatureMatcher::State::kFailed:
          f.establishment_done = true;  // definitely not AVS
          break;
        case SignatureMatcher::State::kMatching:
          break;
      }
      break;
  }
  return step;
}

}  // namespace vg::guard
