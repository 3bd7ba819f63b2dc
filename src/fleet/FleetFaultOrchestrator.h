#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/FaultPlan.h"
#include "fleet/FleetFaultPlan.h"

/// \file FleetFaultOrchestrator.h
/// Expands a FleetFaultPlan into per-home faults::FaultPlans, validate-
/// before-install style: the constructor runs the plan's checker
/// (faults::check_plan, for the population and its base plan) once and
/// throws on the first broken rule before anything is armed, and apply() is
/// a pure function of (plan, home seed) — no cross-home or cross-shard
/// state — so serial and sharded fleet runs derive bit-identical faults for
/// every home regardless of shard layout or run order.
///
/// Determinism contract:
///  - region_of(home_seed) hashes the seed (splitmix64) into [0, regions);
///  - fractional selections (cloud refusal, restart waves) threshold a
///    per-(home, event) hash against the fraction;
///  - load coupling is *expected* load, never live state: a capacity event's
///    staggered re-admission and brownout latency scale with the configured
///    fraction of the fleet, not with how many homes happen to be running.

namespace vg::fleet {

class FleetFaultOrchestrator {
 public:
  /// Checks \p plan for a fleet of \p homes homes that each also run the
  /// per-home \p base plan (throws std::invalid_argument naming the plan and
  /// the broken rule) and captures it.
  FleetFaultOrchestrator(FleetFaultPlan plan, std::uint64_t homes,
                         const faults::FaultPlan& base = {});

  [[nodiscard]] std::uint32_t region_of(std::uint64_t home_seed) const;

  /// Expands the plan for one home and appends the delta to \p out (which
  /// already carries the home's base plan). Returns the number of fault
  /// entries added; sets out.may_break_connections when the delta warrants
  /// it (refusal outages, restart waves).
  std::size_t apply(std::uint64_t home_seed, faults::FaultPlan& out) const;

 private:
  FleetFaultPlan plan_;
};

/// Named orchestrated plans for `vgscn fleet --fault-plan` and the chaos
/// bench matrix. The first entry is the empty "fleet-baseline".
const std::vector<FleetFaultPlan>& fleet_fault_plans();
/// nullptr when \p name is not a known plan.
const FleetFaultPlan* fleet_fault_plan(const std::string& name);

}  // namespace vg::fleet
