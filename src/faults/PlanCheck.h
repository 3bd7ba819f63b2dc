#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "faults/FaultPlan.h"
#include "fleet/FleetFaultPlan.h"

/// \file PlanCheck.h
/// One checker per fault plan type. Every rule a faults::FaultPlan or a
/// fleet::FleetFaultPlan must satisfy lives here once: time and probability
/// ranges, device and region indices, window overlaps, restart instants and
/// fleet-vs-base collisions. A checker returns the first broken rule as data,
/// so each caller names the location its own way: FaultInjector and
/// FleetFaultOrchestrator print `list[index]`, the `.scn` loader the line.
///
/// Windows are half-open. Before the neighbour check they are sorted by
/// (start, end), so whether two windows overlap never depends on the order
/// the plan lists them in. No window may end past kMaxPlanNs.

namespace vg::faults {

/// The latest a plan window may end, and a restart happen: 2^62 ns (about
/// 146 years), the cap the `.scn` loader puts on every time it reads and the
/// `.vgt` format on trace times. Checked without overflow, so plans built in
/// C++ with times near int64's limit are rejected rather than wrapped.
inline constexpr std::int64_t kMaxPlanNs = std::int64_t{1} << 62;

/// One entry of a plan: which list, and its index in that list.
struct PlanEntry {
  enum class List : std::uint8_t {
    // faults::FaultPlan
    kLinks,
    kCloud,
    kBrownouts,
    kFcm,
    kDevices,
    kRestarts,
    // fleet::FleetFaultPlan; kRegions is its region count (index 0)
    kRegions,
    kFcmOutages,
    kCloudCapacity,
    kWanDegrades,
    kRestartWaves,
  };
  static constexpr std::size_t kLists =
      static_cast<std::size_t>(List::kRestartWaves) + 1;

  List list{List::kLinks};
  std::size_t index{0};

  friend bool operator==(const PlanEntry&, const PlanEntry&) = default;
};

/// The first broken rule of a plan.
struct PlanDefect {
  PlanEntry entry;                 // the offending entry
  std::optional<PlanEntry> other;  // the entry it collides with, if any
  /// What is wrong, with no location in it. When `other` is set, the text
  /// ends where the caller names that entry ("... overlaps the one from").
  std::string message;
};

/// `list[index]: message[ list[index]]`, the plan-level wording.
std::string to_string(const PlanDefect& defect);

/// Checks \p plan for a testbed with \p devices owner devices.
std::optional<PlanDefect> check_plan(const FaultPlan& plan,
                                     std::size_t devices);

/// Checks \p plan for a population of \p homes homes that each also run
/// \p base; a collision's `other` is an entry of \p base.
std::optional<PlanDefect> check_plan(const fleet::FleetFaultPlan& plan,
                                     std::uint64_t homes,
                                     const FaultPlan& base);

}  // namespace vg::faults
