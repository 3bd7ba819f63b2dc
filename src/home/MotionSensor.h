#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "home/Person.h"
#include "radio/Geometry.h"
#include "simcore/Simulation.h"

/// \file MotionSensor.h
/// A PIR motion sensor (the paper used a Philips Hue near the stairs). It
/// fires when any watched person is inside its coverage region *and moving*,
/// then stays quiet for a cooldown. The floor tracker records an RSSI trace
/// on each activation (§V-B2).

namespace vg::home {

class MotionSensor {
 public:
  struct Options {
    sim::Duration poll_interval = sim::milliseconds(200);
    /// Minimum spacing between reported events (burst dedup). The sensor is
    /// edge-triggered: it reports when a moving person *enters* its coverage,
    /// like a PIR arming on a new heat source, so one staircase crossing
    /// yields exactly one event.
    sim::Duration cooldown = sim::seconds(2);
    sim::Duration trigger_latency = sim::milliseconds(350);  // Hue -> bridge -> LAN
    /// Height band covered by the PIR. A staircase sensor sees people *on*
    /// the stairs, not someone on the floor above walking across the
    /// stairwell's footprint.
    double z_min = -1e9;
    double z_max = 1e9;
  };

  MotionSensor(sim::Simulation& sim, radio::Rect region)
      : MotionSensor(sim, region, Options{}) {}
  /// Throws std::invalid_argument when opts.poll_interval is not positive.
  MotionSensor(sim::Simulation& sim, radio::Rect region, Options opts);
  /// Cancels the pending poll and unregisters from every watched person.
  ~MotionSensor();

  MotionSensor(const MotionSensor&) = delete;
  MotionSensor& operator=(const MotionSensor&) = delete;

  void watch(Person& p);

  /// Adds an activation subscriber (fires after the trigger latency).
  void subscribe(std::function<void()> cb) {
    subscribers_.push_back(std::move(cb));
  }

  [[nodiscard]] std::uint64_t activations() const { return activations_; }

  /// Starts sampling, first at the current time. Samples follow the grid
  /// start + k * poll_interval, but only while a watched person moves: a
  /// sample that finds everyone still ends the sampling, and the next change
  /// of a watched person's motion (Person::teleport / follow_path) resumes it
  /// at the first grid tick not before that change and after the last
  /// sample. A still world cannot change what a sample sees, so the edges
  /// reported match sampling every tick (DESIGN.md, "Event-driven sensing",
  /// names the two contrived script shapes where they do not). Safe to call
  /// once.
  void start();

  /// True if \p p is inside the sensor's 3-D coverage.
  [[nodiscard]] bool covers(radio::Vec3 p) const {
    return region_.contains(p.xy()) && p.z >= opts_.z_min && p.z <= opts_.z_max;
  }

 private:
  friend class Person;  // wake() on a motion change, forget() on destruction

  struct Watched {
    Person* person;
    bool inside;  // was inside the coverage at the last sample
  };

  void poll();
  /// Resumes sampling after a watched person's motion state changed; a no-op
  /// before start() or while a sample is already pending.
  void wake();
  void forget(const Person& p);

  sim::Simulation& sim_;
  radio::Rect region_;
  Options opts_;
  std::vector<Watched> watched_;
  std::vector<std::function<void()>> subscribers_;
  sim::TimePoint quiet_until_{};
  std::uint64_t activations_{0};
  bool started_{false};
  sim::TimePoint grid_start_{};
  std::int64_t last_tick_{0};  // grid index of the last sample
  sim::EventId next_poll_{};   // the pending sample; empty while asleep
};

}  // namespace vg::home
