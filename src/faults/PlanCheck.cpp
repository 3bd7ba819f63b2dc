#include "faults/PlanCheck.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace vg::faults {

namespace {

using List = PlanEntry::List;

/// Per list, in PlanEntry::List order: its field name in the plan struct,
/// and what its windows are called in an overlap message.
struct ListInfo {
  const char* name;
  const char* windows;  // null for lists without windows
};
constexpr ListInfo kListInfo[] = {
    {"links", "link-fault"},
    {"cloud", "cloud-outage"},
    {"brownouts", "cloud-brownout"},
    {"fcm", "fcm-fault"},
    {"devices", "device-fault"},
    {"restarts", nullptr},
    {"regions", nullptr},
    {"fcm_outages", "regional fcm-outage"},
    {"cloud_capacity", "cloud-capacity"},
    {"wan_degrades", "regional wan-degrade"},
    {"restart_waves", nullptr},
};
static_assert(std::size(kListInfo) == PlanEntry::kLists);

const ListInfo& info(List list) {
  return kListInfo[static_cast<std::size_t>(list)];
}

/// A half-open window [start, end) of one plan entry; end -1 never closes (a
/// device fault with duration 0 never recovers). Windows can overlap only
/// within one group: the same list and the same `group` (link × kind,
/// device, region).
struct Window {
  PlanEntry entry;
  std::uint64_t group;
  std::int64_t start;
  std::int64_t end;
};

PlanDefect defect(List list, std::size_t index, std::string message) {
  return PlanDefect{{list, index}, std::nullopt, std::move(message)};
}

bool negative(std::initializer_list<sim::Duration> times) {
  return std::any_of(times.begin(), times.end(),
                     [](sim::Duration t) { return t.ns() < 0; });
}

/// The sum of \p times, or nullopt when it passes kMaxPlanNs. The times are
/// >= 0 (each caller rejects negative ones first), so comparing each with
/// what is left below the cap never overflows.
std::optional<std::int64_t> end_within_cap(
    std::initializer_list<sim::Duration> times) {
  std::int64_t end = 0;
  for (const sim::Duration t : times) {
    if (t.ns() > kMaxPlanNs - end) return std::nullopt;
    end += t.ns();
  }
  return end;
}

/// Appends entry \p index of \p list to \p ws as the window [start, start +
/// spans) of \p group, or returns the defect when it ends past kMaxPlanNs.
std::optional<PlanDefect> add_window(
    std::vector<Window>& ws, List list, std::size_t index, std::uint64_t group,
    std::initializer_list<sim::Duration> start_and_spans) {
  const std::optional<std::int64_t> end = end_within_cap(start_and_spans);
  if (!end) {
    return defect(list, index,
                  std::string{info(list).windows} +
                      " window ends past the 2^62 ns time cap");
  }
  ws.push_back(
      Window{{list, index}, group, start_and_spans.begin()->ns(), *end});
  return std::nullopt;
}

/// Sorts \p ws by (list, group, start, end) and returns the first window
/// that starts before its predecessor in the same group ends.
std::optional<PlanDefect> first_overlap(std::vector<Window> ws) {
  const auto key = [](const Window& w) {
    return std::tie(w.entry.list, w.group, w.start, w.end, w.entry.index);
  };
  std::sort(ws.begin(), ws.end(),
            [&](const Window& a, const Window& b) { return key(a) < key(b); });
  for (std::size_t i = 1; i < ws.size(); ++i) {
    const Window& prev = ws[i - 1];
    const Window& cur = ws[i];
    if (cur.entry.list == prev.entry.list && cur.group == prev.group &&
        (prev.end < 0 || cur.start < prev.end)) {
      return PlanDefect{cur.entry, prev.entry,
                        std::string{info(cur.entry.list).windows} +
                            " window starting at " +
                            std::to_string(cur.start / 1'000'000'000.0) +
                            " s overlaps the one from"};
    }
  }
  return std::nullopt;
}

/// The first window of \p fleet that meets a window of \p base.
std::optional<PlanDefect> first_collision(const std::vector<Window>& fleet,
                                          const std::vector<Window>& base,
                                          const std::string& what) {
  for (const Window& x : fleet) {
    for (const Window& y : base) {
      if (x.start < y.end && y.start < x.end) {
        return PlanDefect{x.entry, y.entry,
                          what + " window collides with the base [faults] "
                                 "window from"};
      }
    }
  }
  return std::nullopt;
}

/// The windows of a base-plan list. An entry with a negative time or an end
/// past the cap is left out: the base plan's own check rejects it.
template <typename Fault>
std::vector<Window> windows_of(List list, const std::vector<Fault>& faults) {
  std::vector<Window> ws;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!negative({faults[i].start, faults[i].duration})) {
      add_window(ws, list, i, 0, {faults[i].start, faults[i].duration});
    }
  }
  return ws;
}

std::string name(PlanEntry e) {
  std::string s = info(e.list).name;
  if (e.list != List::kRegions) s += "[" + std::to_string(e.index) + "]";
  return s;
}

}  // namespace

std::string to_string(const PlanDefect& defect) {
  std::string s = name(defect.entry) + ": " + defect.message;
  if (defect.other) s += " " + name(*defect.other);
  return s;
}

std::optional<PlanDefect> check_plan(const FaultPlan& plan,
                                     std::size_t devices) {
  std::vector<Window> ws;
  ws.reserve(plan.total_entries());
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const LinkFault& f = plan.links[i];
    if (negative({f.start, f.duration})) {
      return defect(List::kLinks, i, "negative link-fault time");
    }
    if (f.kind == LinkFault::Kind::kLatencySpike && f.extra_latency.ns() < 0) {
      return defect(List::kLinks, i, "negative latency spike");
    }
    // Two flaps on one link would double-toggle it; a flap under a latency
    // spike is a meaningful scenario.
    const auto group = static_cast<std::uint64_t>(
        3 * static_cast<int>(f.where) + static_cast<int>(f.kind));
    if (auto d =
            add_window(ws, List::kLinks, i, group, {f.start, f.duration})) {
      return d;
    }
  }
  for (std::size_t i = 0; i < plan.cloud.size(); ++i) {
    const CloudOutage& f = plan.cloud[i];
    if (negative({f.start, f.duration})) {
      return defect(List::kCloud, i, "negative cloud-outage time");
    }
    if (auto d = add_window(ws, List::kCloud, i, 0, {f.start, f.duration})) {
      return d;
    }
  }
  for (std::size_t i = 0; i < plan.brownouts.size(); ++i) {
    const CloudBrownout& f = plan.brownouts[i];
    if (negative({f.start, f.duration, f.extra_latency})) {
      return defect(List::kBrownouts, i, "negative cloud-brownout time");
    }
    if (auto d =
            add_window(ws, List::kBrownouts, i, 0, {f.start, f.duration})) {
      return d;
    }
  }
  for (std::size_t i = 0; i < plan.fcm.size(); ++i) {
    const FcmFault& f = plan.fcm[i];
    if (negative({f.start, f.duration, f.extra_delay})) {
      return defect(List::kFcm, i, "negative fcm-fault time");
    }
    if (!(f.drop_prob >= 0.0 && f.drop_prob <= 1.0)) {
      return defect(List::kFcm, i, "fcm drop_prob out of [0, 1]");
    }
    if (auto d = add_window(ws, List::kFcm, i, 0, {f.start, f.duration})) {
      return d;
    }
  }
  for (std::size_t i = 0; i < plan.devices.size(); ++i) {
    const DeviceFault& f = plan.devices[i];
    if (negative({f.start, f.duration})) {
      return defect(List::kDevices, i, "negative device-fault time");
    }
    if (f.device < 0 || static_cast<std::size_t>(f.device) >= devices) {
      return defect(List::kDevices, i,
                    "device index " + std::to_string(f.device) +
                        " out of range (" + std::to_string(devices) +
                        " owner devices)");
    }
    if (auto d = add_window(ws, List::kDevices, i,
                            static_cast<std::uint64_t>(f.device),
                            {f.start, f.duration})) {
      return d;
    }
    if (f.duration.ns() == 0) ws.back().end = -1;
  }
  for (std::size_t i = 0; i < plan.restarts.size(); ++i) {
    if (negative({plan.restarts[i].at})) {
      return defect(List::kRestarts, i, "negative restart time");
    }
    if (!end_within_cap({plan.restarts[i].at})) {
      return defect(List::kRestarts, i,
                    "guard restart past the 2^62 ns time cap");
    }
  }

  if (auto d = first_overlap(std::move(ws))) return d;

  std::set<std::int64_t> restart_at;
  for (std::size_t i = 0; i < plan.restarts.size(); ++i) {
    if (!restart_at.insert(plan.restarts[i].at.ns()).second) {
      return defect(List::kRestarts, i, "duplicate guard restart instant");
    }
  }
  return std::nullopt;
}

std::optional<PlanDefect> check_plan(const fleet::FleetFaultPlan& plan,
                                     std::uint64_t homes,
                                     const FaultPlan& base) {
  if (plan.regions < 1 || plan.regions > fleet::kMaxRegions) {
    return defect(List::kRegions, 0,
                  "regions out of [1, " + std::to_string(fleet::kMaxRegions) +
                      "]");
  }
  if (plan.regions > homes) {
    return defect(List::kRegions, 0,
                  std::to_string(plan.regions) +
                      " regions exceed the population's " +
                      std::to_string(homes) +
                      " homes (guaranteed zero-home regions)");
  }
  const auto region_out_of_range = [&](std::uint32_t region) {
    return "region " + std::to_string(region) + " out of range (" +
           std::to_string(plan.regions) + " regions)";
  };

  std::vector<Window> fcm;
  for (std::size_t i = 0; i < plan.fcm_outages.size(); ++i) {
    const fleet::RegionalFcmOutage& o = plan.fcm_outages[i];
    if (o.region >= plan.regions) {
      return defect(List::kFcmOutages, i, region_out_of_range(o.region));
    }
    if (negative({o.start, o.duration, o.extra_delay})) {
      return defect(List::kFcmOutages, i, "negative fcm-outage time");
    }
    if (!(o.drop_prob >= 0.0 && o.drop_prob <= 1.0)) {
      return defect(List::kFcmOutages, i, "fcm-outage drop_prob out of [0, 1]");
    }
    if (auto d = add_window(fcm, List::kFcmOutages, i, o.region,
                            {o.start, o.duration})) {
      return d;
    }
  }
  // A capacity event's per-home cloud window can grow to its envelope: the
  // refusal plus the longest load-coupled re-admission stagger.
  std::vector<Window> envelopes;
  std::vector<Window> capacity;
  for (std::size_t i = 0; i < plan.cloud_capacity.size(); ++i) {
    const fleet::CloudCapacityEvent& e = plan.cloud_capacity[i];
    if (negative({e.start, e.duration, e.recovery_spread, e.extra_latency})) {
      return defect(List::kCloudCapacity, i, "negative cloud-capacity time");
    }
    if (!(e.fraction > 0.0 && e.fraction <= 1.0)) {
      return defect(List::kCloudCapacity, i,
                    "cloud-capacity fraction out of (0, 1]");
    }
    if (auto d = add_window(envelopes, List::kCloudCapacity, i, 0,
                            {e.start, e.duration, e.recovery_spread})) {
      return d;
    }
    // Inside the envelope, so within the cap.
    add_window(capacity, List::kCloudCapacity, i, 0, {e.start, e.duration});
  }
  std::vector<Window> wan;
  for (std::size_t i = 0; i < plan.wan_degrades.size(); ++i) {
    const fleet::WanDegradeWindow& w = plan.wan_degrades[i];
    if (w.region >= plan.regions) {
      return defect(List::kWanDegrades, i, region_out_of_range(w.region));
    }
    if (negative({w.start, w.duration, w.extra_latency})) {
      return defect(List::kWanDegrades, i, "negative wan-degrade time");
    }
    if (auto d = add_window(wan, List::kWanDegrades, i, w.region,
                            {w.start, w.duration})) {
      return d;
    }
  }
  for (std::size_t i = 0; i < plan.restart_waves.size(); ++i) {
    const fleet::GuardRestartWave& w = plan.restart_waves[i];
    if (negative({w.start, w.stagger})) {
      return defect(List::kRestartWaves, i, "negative restart-wave time");
    }
    if (!end_within_cap({w.start, w.stagger})) {
      return defect(List::kRestartWaves, i,
                    "restart wave ends past the 2^62 ns time cap");
    }
    if (!(w.fraction > 0.0 && w.fraction <= 1.0)) {
      return defect(List::kRestartWaves, i,
                    "restart-wave fraction out of (0, 1]");
    }
  }

  std::vector<Window> grouped = fcm;
  grouped.insert(grouped.end(), envelopes.begin(), envelopes.end());
  grouped.insert(grouped.end(), wan.begin(), wan.end());
  if (auto d = first_overlap(std::move(grouped))) return d;

  // The base plan runs in every home, so any fleet window may meet it in the
  // overlap groups FaultInjector::arm enforces.
  std::vector<Window> base_wan_latency;
  for (std::size_t i = 0; i < base.links.size(); ++i) {
    const LinkFault& f = base.links[i];
    if (f.where == LinkFault::Where::kWan &&
        f.kind == LinkFault::Kind::kLatencySpike &&
        !negative({f.start, f.duration})) {
      add_window(base_wan_latency, List::kLinks, i, 0, {f.start, f.duration});
    }
  }
  if (auto d = first_collision(fcm, windows_of(List::kFcm, base.fcm),
                               "fcm_outage")) {
    return d;
  }
  if (auto d = first_collision(envelopes, windows_of(List::kCloud, base.cloud),
                               "cloud_capacity")) {
    return d;
  }
  if (auto d = first_collision(capacity,
                               windows_of(List::kBrownouts, base.brownouts),
                               "cloud_capacity brownout")) {
    return d;
  }
  return first_collision(wan, base_wan_latency, "wan_degrade");
}

}  // namespace vg::faults
