#pragma once

#include <cstdint>
#include <memory>

#include "fleet/FleetFaultOrchestrator.h"
#include "home/Testbed.h"
#include "scenario/Scenario.h"
#include "workload/World.h"

/// \file WorldTemplate.h
/// The immutable, shareable half of a home population. Splitting
/// workload::World into description (here) and per-home mutable state
/// (FleetRunner's homes) is what makes each home cheap to build, run and
/// throw away:
///
///   - the testbed (floor plan, wall grid, propagation calibration, speaker
///     spots) is built once and borrowed by every home via
///     WorldConfig::shared_testbed — construction is deterministic and all
///     queries are const, so one instance serves any number of worlds;
///   - the calibration artifacts (learned RSSI thresholds, floor-tracker
///     training fits) are captured from ONE fully calibrated world and
///     injected into each home, so home N's construction cost is allocation
///     plus wiring, never a threshold walk or training journey.
///
/// A template is read-only after construction and safe to share across the
/// runner's shards.

namespace vg::fleet {

class WorldTemplate {
 public:
  /// Builds the shared testbed, then runs one full calibration world with the
  /// base spec's config and memoizes its artifacts.
  /// Throws std::invalid_argument unless \p base is a scripted home scenario.
  explicit WorldTemplate(scenario::ScenarioSpec base);

  [[nodiscard]] const scenario::ScenarioSpec& base() const { return base_; }
  [[nodiscard]] const home::Testbed& testbed() const { return *testbed_; }
  [[nodiscard]] const workload::CalibrationArtifacts& calibration() const {
    return artifacts_;
  }

  /// Population size: the base spec's [population] homes, or 1 when absent.
  [[nodiscard]] std::uint64_t homes() const {
    return base_.population.enabled() ? base_.population.homes : 1;
  }

  /// The world seed for home \p index: home 0 keeps the base seed verbatim;
  /// homes 1.. take the index-th output of a splitmix64 stream over the base
  /// seed, so seeds never collide across a population and derivation is
  /// stable under population resizing.
  [[nodiscard]] std::uint64_t home_seed(std::uint64_t index) const;

  /// The derived single-home spec for home \p index: home 0 is the base spec
  /// verbatim (minus the [population] and [fleet_faults] sections); homes 1..
  /// get home_seed(i), a "-h<i>" name suffix, bounded extra gaps before each
  /// command (command_jitter_s) and per-command attack flips (attack_flip).
  /// Jitter preserves command ordering, the >= 2 s first-offset rule and the
  /// drain-past-last-command gap, so every derived spec is loader-valid.
  ///
  /// When the base carries a fleet plan, the orchestrator's per-home delta is
  /// merged into the derived spec's [faults] — a pure function of the home
  /// index, so serial and sharded runs derive bit-identical plans. The
  /// plan's resilience policy is NOT baked into the derived spec; FleetHome
  /// applies it from resilience() so the derived spec stays loader-valid.
  [[nodiscard]] scenario::ScenarioSpec home_spec(std::uint64_t index) const;

  /// Non-null when the base spec carries fleet events or a resilience
  /// policy. Validated (plan and against the base [faults]) at construction.
  [[nodiscard]] const FleetFaultOrchestrator* orchestrator() const {
    return orchestrator_.get();
  }
  /// The client-side resilience policy every home in the population runs.
  [[nodiscard]] const ResiliencePolicy& resilience() const {
    return base_.fleet_faults.resilience;
  }

 private:
  scenario::ScenarioSpec base_;
  std::unique_ptr<home::Testbed> testbed_;
  workload::CalibrationArtifacts artifacts_;
  std::unique_ptr<FleetFaultOrchestrator> orchestrator_;
};

}  // namespace vg::fleet
