#pragma once

#include <functional>
#include <vector>

#include "cloud/CloudFarm.h"
#include "faults/FaultPlan.h"
#include "home/Fcm.h"
#include "home/MobileDevice.h"
#include "netsim/Node.h"
#include "simcore/Simulation.h"
#include "voiceguard/GuardBox.h"

/// \file FaultInjector.h
/// Arms a FaultPlan against a concrete testbed. arm() first runs the plan's
/// checker (faults::check_plan, with the wired device count) and then checks
/// the wiring: every entry's link, cloud, FCM, guard or device target must
/// exist. Either failure throws std::invalid_argument naming the plan, before
/// anything is installed. It then installs link/FCM windows at absolute
/// times, and schedules the discrete faults (cloud outage, device crash,
/// guard restart) plus a boundary FaultEvent for every window. The injector
/// uses no randomness of its own, so an armed plan perturbs nothing outside
/// its windows.

namespace vg::faults {

class FaultInjector {
 public:
  /// What the plan may act on. Unused targets can stay null; a plan that
  /// references a missing one fails validation in arm().
  struct Targets {
    net::Link* lan{nullptr};
    net::Link* wan{nullptr};
    cloud::CloudFarm* cloud{nullptr};
    home::FcmService* fcm{nullptr};
    std::vector<home::MobileDevice*> devices;
    guard::GuardBox* guard{nullptr};
  };

  using Observer = std::function<void(const FaultEvent&)>;

  FaultInjector(sim::Simulation& sim, Targets targets)
      : sim_(sim), targets_(std::move(targets)) {}

  /// Called at every fault boundary, after it took effect (e.g. to annotate a
  /// wire trace). Set before arm().
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Checks and installs \p plan, with all times relative to now.
  void arm(const FaultPlan& plan);

  /// Fault boundaries that have fired so far, in simulation order.
  [[nodiscard]] const std::vector<FaultEvent>& log() const { return log_; }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  void note(FaultEvent::Kind kind, std::uint64_t param);
  net::Link* link_for(LinkFault::Where where) const;

  sim::Simulation& sim_;
  Targets targets_;
  Observer observer_;
  std::vector<FaultEvent> log_;
  std::uint64_t injected_{0};
};

}  // namespace vg::faults
