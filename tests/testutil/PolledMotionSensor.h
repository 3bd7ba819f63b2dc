#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "home/MotionSensor.h"
#include "home/Person.h"
#include "simcore/Simulation.h"

/// \file PolledMotionSensor.h
/// The stair sensor as it was before it learned to sleep: it samples every
/// watched person every poll_interval for as long as the simulation runs.
/// Kept only as the reference the sleeping home::MotionSensor is checked
/// against (tests/test_home.cpp). Must not outlive a running simulation: its
/// pending sample is never cancelled.

namespace vg::testutil {

class PolledMotionSensor {
 public:
  PolledMotionSensor(sim::Simulation& sim, radio::Rect region,
                     home::MotionSensor::Options opts)
      : sim_(sim), region_(region), opts_(opts) {}

  void watch(home::Person& p) {
    people_.push_back(&p);
    inside_.push_back(false);
  }

  void subscribe(std::function<void()> cb) {
    subscribers_.push_back(std::move(cb));
  }

  [[nodiscard]] std::uint64_t activations() const { return activations_; }
  /// Samples that saw an entry but fell inside the cooldown.
  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }

  void start() {
    if (started_) return;
    started_ = true;
    poll();
  }

  [[nodiscard]] bool covers(radio::Vec3 p) const {
    return region_.contains(p.xy()) && p.z >= opts_.z_min && p.z <= opts_.z_max;
  }

 private:
  void poll() {
    bool fire = false;
    for (std::size_t i = 0; i < people_.size(); ++i) {
      const bool contains = covers(people_[i]->position());
      const bool entered = contains && !inside_[i] && people_[i]->moving();
      inside_[i] = contains;
      fire = fire || entered;
    }
    if (fire && sim_.now() < quiet_until_) ++suppressed_;
    if (fire && sim_.now() >= quiet_until_) {
      ++activations_;
      quiet_until_ = sim_.now() + opts_.cooldown;
      for (const auto& cb : subscribers_) {
        sim_.after(opts_.trigger_latency, [cb] { cb(); });
      }
    }
    sim_.after(opts_.poll_interval, [this] { poll(); });
  }

  sim::Simulation& sim_;
  radio::Rect region_;
  home::MotionSensor::Options opts_;
  std::vector<home::Person*> people_;
  std::vector<bool> inside_;  // parallel to people_: was inside last poll
  std::vector<std::function<void()>> subscribers_;
  sim::TimePoint quiet_until_{};
  std::uint64_t activations_{0};
  std::uint64_t suppressed_{0};
  bool started_{false};
};

}  // namespace vg::testutil
