#include "faults/FaultInjector.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "faults/PlanCheck.h"

namespace vg::faults {

net::Link* FaultInjector::link_for(LinkFault::Where where) const {
  return where == LinkFault::Where::kLan ? targets_.lan : targets_.wan;
}

void FaultInjector::note(FaultEvent::Kind kind, std::uint64_t param) {
  FaultEvent ev;
  ev.kind = kind;
  ev.param = param;
  ev.when = sim_.now();
  log_.push_back(ev);
  ++injected_;
  if (observer_) observer_(ev);
}

void FaultInjector::arm(const FaultPlan& plan) {
  const auto reject = [&plan](const std::string& what) {
    throw std::invalid_argument{"FaultInjector: plan '" + plan.name + "': " +
                                what};
  };
  if (const auto defect = check_plan(plan, targets_.devices.size())) {
    reject(to_string(*defect));
  }
  // The wiring: every entry's target exists.
  for (const LinkFault& f : plan.links) {
    if (link_for(f.where) == nullptr) {
      reject("targets a link that is not wired");
    }
  }
  if (targets_.cloud == nullptr &&
      !(plan.cloud.empty() && plan.brownouts.empty())) {
    reject("needs a cloud target");
  }
  if (targets_.fcm == nullptr && !plan.fcm.empty()) {
    reject("needs an fcm target");
  }
  if (targets_.guard == nullptr && !plan.restarts.empty()) {
    reject("needs a guard target");
  }
  for (const DeviceFault& f : plan.devices) {
    if (targets_.devices[f.device] == nullptr) {
      reject("targets missing device " + std::to_string(f.device));
    }
  }
  const sim::TimePoint t0 = sim_.now();

  for (const LinkFault& f : plan.links) {
    net::Link& link = *link_for(f.where);
    const sim::TimePoint start = t0 + f.start;
    const sim::TimePoint end = start + f.duration;
    const auto param = static_cast<std::uint64_t>(f.where);
    switch (f.kind) {
      case LinkFault::Kind::kFlap:
        link.add_flap(start, end);
        sim_.at(start,
                [this, param] { note(FaultEvent::Kind::kFlapStart, param); });
        sim_.at(end,
                [this, param] { note(FaultEvent::Kind::kFlapEnd, param); });
        break;
      case LinkFault::Kind::kBurst:
        link.add_burst_loss(start, end, f.ge);
        sim_.at(start,
                [this, param] { note(FaultEvent::Kind::kBurstStart, param); });
        sim_.at(end,
                [this, param] { note(FaultEvent::Kind::kBurstEnd, param); });
        break;
      case LinkFault::Kind::kLatencySpike:
        link.add_latency_spike(start, end, f.extra_latency);
        sim_.at(start, [this, param] {
          note(FaultEvent::Kind::kLatencyStart, param);
        });
        sim_.at(end,
                [this, param] { note(FaultEvent::Kind::kLatencyEnd, param); });
        break;
    }
  }

  for (const CloudOutage& f : plan.cloud) {
    const auto param = static_cast<std::uint64_t>(f.rst_existing ? 1 : 0);
    sim_.at(t0 + f.start, [this, rst = f.rst_existing, param] {
      targets_.cloud->set_avs_available(false, rst);
      note(FaultEvent::Kind::kCloudDown, param);
    });
    sim_.at(t0 + f.start + f.duration, [this] {
      targets_.cloud->set_avs_available(true);
      note(FaultEvent::Kind::kCloudUp, 0);
    });
  }

  for (const CloudBrownout& f : plan.brownouts) {
    const auto param =
        static_cast<std::uint64_t>(f.extra_latency.ns() / 1'000'000);
    sim_.at(t0 + f.start, [this, extra = f.extra_latency, param] {
      targets_.cloud->set_avs_extra_delay(extra);
      note(FaultEvent::Kind::kBrownoutStart, param);
    });
    sim_.at(t0 + f.start + f.duration, [this] {
      targets_.cloud->set_avs_extra_delay(sim::Duration{});
      note(FaultEvent::Kind::kBrownoutEnd, 0);
    });
  }

  for (const FcmFault& f : plan.fcm) {
    const sim::TimePoint start = t0 + f.start;
    const sim::TimePoint end = start + f.duration;
    targets_.fcm->add_fault_window(start, end, f.extra_delay, f.drop_prob);
    const auto param = static_cast<std::uint64_t>(f.drop_prob * 100.0);
    sim_.at(start,
            [this, param] { note(FaultEvent::Kind::kFcmDegraded, param); });
    sim_.at(end, [this] { note(FaultEvent::Kind::kFcmNormal, 0); });
  }

  for (const DeviceFault& f : plan.devices) {
    home::MobileDevice* dev = targets_.devices[f.device];
    const auto param = static_cast<std::uint64_t>(f.device);
    sim_.at(t0 + f.start, [this, dev, param] {
      dev->set_responsive(false);
      note(FaultEvent::Kind::kDeviceDown, param);
    });
    if (f.duration.ns() > 0) {
      sim_.at(t0 + f.start + f.duration, [this, dev, param] {
        dev->set_responsive(true);
        note(FaultEvent::Kind::kDeviceUp, param);
      });
    }
  }

  for (const GuardRestart& f : plan.restarts) {
    sim_.at(t0 + f.at, [this] {
      targets_.guard->restart();
      note(FaultEvent::Kind::kGuardRestart, 0);
    });
  }
}

}  // namespace vg::faults
