#include "voiceguard/Recognizer.h"

namespace vg::guard {

SignatureMatcher::State SignatureMatcher::feed(std::uint32_t len) {
  if (state_ != State::kMatching) return state_;
  if (index_ >= signature_.size() || signature_[index_] != len) {
    state_ = State::kFailed;
    return state_;
  }
  ++index_;
  if (index_ == signature_.size()) state_ = State::kMatched;
  return state_;
}

std::string to_string(SpikeClass c) {
  switch (c) {
    case SpikeClass::kCommand: return "command";
    case SpikeClass::kResponse: return "response";
    case SpikeClass::kUnknown: return "unknown";
  }
  return "?";
}

std::string to_string(MatchedRule r) {
  switch (r) {
    case MatchedRule::kNone: return "none";
    case MatchedRule::kP138: return "p-138";
    case MatchedRule::kP75: return "p-75";
    case MatchedRule::kPatternA: return "pattern-a";
    case MatchedRule::kPatternB: return "pattern-b";
    case MatchedRule::kPatternC: return "pattern-c";
    case MatchedRule::kResponsePair: return "p-77/p-33";
  }
  return "?";
}

SpikeClass classify_spike(const std::vector<std::uint32_t>& lens) {
  return analyze_spike(lens).cls;
}

RuleMatch analyze_spike(const std::vector<std::uint32_t>& lens) {
  SpikeClassifier c;
  for (std::uint32_t l : lens) {
    if (auto v = c.feed(l)) return {*v, c.matched_rule()};
  }
  return {c.finalize(), c.matched_rule()};
}

}  // namespace vg::guard
