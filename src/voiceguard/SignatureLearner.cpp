#include "voiceguard/SignatureLearner.h"

#include <algorithm>

namespace vg::guard {

void SignatureLearner::reset() {
  head_ = 0;
  count_ = 0;
  published_.clear();
  observations_ = 0;
  republished_ = 0;
}

bool SignatureLearner::observe(const std::vector<std::uint32_t>& prefix) {
  ++observations_;
  if (examples_.empty()) return false;
  // With the ring full, the new example overwrites the oldest and the head
  // advances.
  const std::size_t n = std::min(prefix.size(), opts_.example_prefix);
  examples_[(head_ + count_) % examples_.size()].assign(prefix.begin(),
                                                        prefix.begin() + n);
  if (count_ == examples_.size()) {
    head_ = (head_ + 1) % examples_.size();
  } else {
    ++count_;
  }
  const auto need = static_cast<std::size_t>(opts_.min_examples);
  if (count_ < need) return false;

  // Consensus: the longest prefix shared by the most recent min_examples
  // observations; a window spanning a behaviour change would otherwise
  // shrink the prefix to the pre/post common part.
  const std::size_t first = head_ + count_ - need;
  candidate_ = examples_[first % examples_.size()];
  for (std::size_t k = 1; k < need && !candidate_.empty(); ++k) {
    const auto& e = examples_[(first + k) % examples_.size()];
    const auto diverge =
        std::mismatch(candidate_.begin(), candidate_.end(), e.begin(), e.end());
    candidate_.erase(diverge.first, candidate_.end());
  }
  if (candidate_.size() < opts_.min_length) return false;
  if (candidate_ == published_) return false;
  // Never shrink drastically just because a long-prefix consensus got cut by
  // one noisy example; accept the new signature only if it is not a strict
  // prefix of the current one (a strict prefix matches a superset of
  // connections, raising false re-identification).
  if (!published_.empty() && candidate_.size() < published_.size() &&
      std::equal(candidate_.begin(), candidate_.end(), published_.begin())) {
    return false;
  }
  published_.swap(candidate_);
  ++republished_;
  return true;
}

}  // namespace vg::guard
