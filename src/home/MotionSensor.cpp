#include "home/MotionSensor.h"

#include <algorithm>
#include <stdexcept>

namespace vg::home {

MotionSensor::MotionSensor(sim::Simulation& sim, radio::Rect region,
                           Options opts)
    : sim_(sim), region_(region), opts_(opts) {
  if (opts_.poll_interval.ns() <= 0) {
    throw std::invalid_argument{"MotionSensor: poll_interval must be positive"};
  }
}

MotionSensor::~MotionSensor() {
  sim_.cancel(next_poll_);
  for (const Watched& w : watched_) std::erase(w.person->watchers_, this);
}

void MotionSensor::watch(Person& p) {
  watched_.push_back({&p, false});
  p.watchers_.push_back(this);
  wake();
}

void MotionSensor::forget(const Person& p) {
  std::erase_if(watched_, [&p](const Watched& w) { return w.person == &p; });
}

void MotionSensor::start() {
  if (started_) return;
  started_ = true;
  grid_start_ = sim_.now();
  poll();
}

void MotionSensor::wake() {
  if (!started_ || next_poll_ != sim::EventId{}) return;
  const std::int64_t interval = opts_.poll_interval.ns();
  const std::int64_t since = (sim_.now() - grid_start_).ns();
  const std::int64_t tick =
      std::max(last_tick_ + 1, (since + interval - 1) / interval);
  next_poll_ = sim_.at(grid_start_ + opts_.poll_interval * tick, [this] {
    next_poll_ = {};
    poll();
  });
}

void MotionSensor::poll() {
  last_tick_ = (sim_.now() - grid_start_).ns() / opts_.poll_interval.ns();
  bool fire = false;
  bool anyone_moving = false;
  for (Watched& w : watched_) {
    const bool moving = w.person->moving();
    const bool contains = covers(w.person->position());
    fire = fire || (contains && !w.inside && moving);
    w.inside = contains;
    anyone_moving = anyone_moving || moving;
  }
  if (fire && sim_.now() >= quiet_until_) {
    ++activations_;
    quiet_until_ = sim_.now() + opts_.cooldown;
    for (const auto& cb : subscribers_) {
      sim_.after(opts_.trigger_latency, [cb] { cb(); });
    }
  }
  // Nobody moving: the next sample would see this one's world again, so
  // sleep until a watched person's motion changes (Person wakes us).
  if (anyone_moving) wake();
}

}  // namespace vg::home
