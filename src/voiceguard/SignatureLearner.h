#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file SignatureLearner.h
/// Adaptive packet-level-signature learning — the future work of §VII
/// ("Potential Changes of Traffic Signature"), implemented.
///
/// The shipped AVS connection signature can change with a firmware or cloud
/// update. Whenever the guard *can* identify an AVS connection by DNS (the
/// speaker resolved the AVS domain right before connecting), it records the
/// first packets of that connection as a labeled example. The learner keeps
/// the longest prefix shared by recent examples; once enough examples agree
/// on a sufficiently long, sufficiently distinctive prefix, that prefix
/// becomes the signature used to re-identify AVS connections when no DNS is
/// visible. A change in speaker behaviour therefore heals automatically
/// after a handful of DNS-visible reconnects.

namespace vg::guard {

class SignatureLearner {
 public:
  struct Options {
    /// Number of agreeing examples required before (re)publishing.
    int min_examples = 3;
    /// Minimum shared-prefix length for a usable signature: shorter prefixes
    /// match too many foreign connections.
    std::size_t min_length = 6;
    /// Examples kept (FIFO); old behaviour ages out after enough new ones.
    std::size_t window = 8;
    /// How many leading packets of each example to record.
    std::size_t example_prefix = 24;
  };

  SignatureLearner() : SignatureLearner(Options{}) {}
  explicit SignatureLearner(Options opts)
      : opts_(opts), examples_(opts.window) {}

  /// Seeds the learner with a known-good signature (the shipped one).
  void seed(const std::vector<std::uint32_t>& signature) {
    published_.assign(signature.begin(), signature.end());
  }

  /// Forgets every example, the published signature and the counters, but
  /// keeps the buffers: a reset learner observes without allocating.
  void reset();

  /// Records the packet-length prefix of one DNS-identified AVS connection.
  /// Returns true if this observation changed the published signature.
  /// Allocation-free once warm: examples live in a fixed ring of reused
  /// buffers and the consensus is computed in place.
  bool observe(const std::vector<std::uint32_t>& prefix);

  /// The signature currently in force (shipped seed until enough evidence
  /// accumulates, then the learned consensus).
  [[nodiscard]] const std::vector<std::uint32_t>& signature() const {
    return published_;
  }

  [[nodiscard]] std::uint64_t observations() const { return observations_; }
  [[nodiscard]] std::uint64_t republished() const { return republished_; }

 private:
  Options opts_;
  /// The last opts_.window examples, oldest at head_ (FIFO).
  std::vector<std::vector<std::uint32_t>> examples_;
  std::size_t head_{0};
  std::size_t count_{0};
  std::vector<std::uint32_t> candidate_;  // consensus scratch
  std::vector<std::uint32_t> published_;
  std::uint64_t observations_{0};
  std::uint64_t republished_{0};
};

}  // namespace vg::guard
