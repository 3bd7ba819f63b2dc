#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "voiceguard/Recognizer.h"

/// \file WindowScanClassifier.h
/// The pre-DFA spike classifier, kept as the reference oracle for the
/// equivalence tests of guard::SpikeClassifier: it re-walks the whole seen
/// window (pair rule, frequent rule, fixed patterns, in that priority order)
/// after every record, which is trivially correct but O(window) per record
/// and heap-backed.

namespace vg::testutil {

/// Which fixed fallback pattern the first rules::kPatternLen packets match
/// (kPatternA/B/C), or kNone.
inline guard::MatchedRule fixed_pattern_rule(
    const std::vector<std::uint32_t>& f) {
  using namespace guard::rules;
  using guard::MatchedRule;
  if (f.size() < kPatternLen) return MatchedRule::kNone;
  if (f[0] < kPatternFirstMin || f[0] > kPatternFirstMax) {
    return MatchedRule::kNone;
  }
  const auto tail_is = [&f](const std::array<std::uint32_t, 4>& tail) {
    return std::equal(tail.begin(), tail.end(), f.begin() + 1);
  };
  if (tail_is(kPatternTailA)) return MatchedRule::kPatternA;
  if (tail_is(kPatternTailB)) return MatchedRule::kPatternB;
  if (tail_is(kPatternTailC)) return MatchedRule::kPatternC;
  return MatchedRule::kNone;
}

class WindowScanClassifier {
 public:
  std::optional<guard::SpikeClass> feed(std::uint32_t len) {
    if (decided_) return decided_;
    lens_.push_back(len);
    const Evaluation v = evaluate(/*final_call=*/false);
    if (v.cls && *v.cls != guard::SpikeClass::kUnknown) {
      decided_ = v.cls;
      rule_ = v.rule;
      return decided_;
    }
    if (lens_.size() >= guard::rules::kDecisionWindow) {
      const Evaluation f = evaluate(/*final_call=*/true);
      decided_ = f.cls;
      rule_ = f.rule;
      return decided_;
    }
    return std::nullopt;
  }

  [[nodiscard]] guard::SpikeClass finalize() const {
    if (decided_) return *decided_;
    return evaluate(/*final_call=*/true)
        .cls.value_or(guard::SpikeClass::kUnknown);
  }

  [[nodiscard]] guard::MatchedRule matched_rule() const {
    if (decided_) return rule_;
    return evaluate(/*final_call=*/true).rule;
  }

 private:
  struct Evaluation {
    std::optional<guard::SpikeClass> cls;
    guard::MatchedRule rule{guard::MatchedRule::kNone};
  };

  [[nodiscard]] Evaluation evaluate(bool final_call) const {
    using namespace guard::rules;
    using guard::MatchedRule;
    using guard::SpikeClass;
    for (std::size_t i = 0; i + 1 < lens_.size() && i + 1 < kPairWindow;
         ++i) {
      if (lens_[i] == kP77 && lens_[i + 1] == kP33) {
        return {SpikeClass::kResponse, MatchedRule::kResponsePair};
      }
    }
    for (std::size_t i = 0; i < lens_.size() && i < kFrequentWindow; ++i) {
      if (lens_[i] == kP138) return {SpikeClass::kCommand, MatchedRule::kP138};
      if (lens_[i] == kP75) return {SpikeClass::kCommand, MatchedRule::kP75};
    }
    if (const MatchedRule r = fixed_pattern_rule(lens_);
        r != MatchedRule::kNone) {
      return {SpikeClass::kCommand, r};
    }
    if (lens_.size() >= kDecisionWindow || final_call) {
      return {SpikeClass::kUnknown, MatchedRule::kNone};
    }
    return {std::nullopt, MatchedRule::kNone};  // need more packets
  }

  std::vector<std::uint32_t> lens_;
  std::optional<guard::SpikeClass> decided_;
  guard::MatchedRule rule_{guard::MatchedRule::kNone};
};

/// guard::analyze_spike, answered by the window-scan oracle.
inline guard::RuleMatch analyze_spike(const std::vector<std::uint32_t>& lens) {
  WindowScanClassifier c;
  for (std::uint32_t l : lens) {
    if (auto v = c.feed(l)) return {*v, c.matched_rule()};
  }
  return {c.finalize(), c.matched_rule()};
}

}  // namespace vg::testutil
