#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cloud/CloudFarm.h"
#include "home/Fcm.h"
#include "home/MobileDevice.h"
#include "home/MotionSensor.h"
#include "home/Person.h"
#include "home/Testbed.h"
#include "netsim/Host.h"
#include "netsim/Router.h"
#include "simcore/Arena.h"
#include "speaker/EchoDot.h"
#include "speaker/GoogleHomeMini.h"
#include "voiceguard/Decision.h"
#include "voiceguard/FloorTracker.h"
#include "voiceguard/GuardBox.h"

/// \file World.h
/// One fully-wired testbed: floor plan + people + devices + speaker + guard
/// box + cloud, matching the deployment of Fig. 2 / Fig. 5. This is the
/// integration surface the examples, the experiment driver and the benches
/// build on.
///
/// Topology:  speaker ── guard box ── home router ── {AVS pool, misc Amazon,
/// Google, DNS}; the guard box is inline exactly like the paper's laptop.

namespace vg::workload {

struct WorldConfig {
  enum class TestbedKind { kHouse, kApartment, kOffice };
  enum class SpeakerType { kEchoDot, kGoogleHomeMini };

  TestbedKind testbed = TestbedKind::kHouse;
  int deployment = 1;  // speaker deployment location, 1 or 2
  SpeakerType speaker = SpeakerType::kEchoDot;
  guard::GuardMode mode = guard::GuardMode::kVoiceGuard;
  /// Owners each carry one device; the office scenario uses one owner with a
  /// smartwatch instead of a phone.
  int owner_count = 2;
  bool use_watch = false;
  bool motion_sensor = true;  // meaningful in the two-floor house only
  std::uint64_t seed = 1;
  /// Graceful-degradation knobs, forwarded into GuardBox::Options and
  /// RssiDecisionModule::Options. Defaults match the seed behavior.
  guard::FailPolicy fail_policy = guard::FailPolicy::kFailClosed;
  sim::Duration verdict_timeout = sim::Duration{};  // 0 (default) disables
  std::size_t hold_queue_cap = 256;                  // 0 disables
  int fcm_max_retries = 0;  // 0 keeps benign runs bit-identical to seed
  sim::Duration fcm_retry_initial = sim::from_seconds(1.5);
  /// Client-side resilience knobs (fleet fault plans opt in; the defaults are
  /// bit-identical to seed). The speaker trio land in EchoDotModel::Options,
  /// the FCM pair in RssiDecisionModule::Options.
  double reconnect_backoff = 1.0;  // reconnect window scale per failed attempt
  sim::Duration reconnect_backoff_cap = sim::seconds(60);
  int reconnect_budget = 0;        // fast retries per streak; 0 = unbounded
  double fcm_retry_jitter = 0.0;   // fraction shaved off each retry wait
  int fcm_retry_budget = 0;        // lifetime re-push cap; 0 = unbounded
  /// Overrides the testbed's propagation calibration when set.
  std::optional<radio::PathLossParams> radio{};
  /// When false the simulation uses heap (seed) allocation semantics; used
  /// by the allocation parity tests. Ignored if \p arena is set.
  bool use_arena = true;
  /// Lend an external arena to the world's Simulation instead of owning one
  /// (episode reuse: TrialRunner resets a worker-local arena per trial).
  /// Must outlive the world.
  sim::Arena* arena = nullptr;
  /// Chunk granularity for an owned arena (fleet homes shrink this to fit
  /// their packet state). Ignored if \p arena set.
  std::size_t arena_chunk = sim::Arena::kDefaultChunk;
  /// Path-loss memo slots per owner-device scanner (radio::ScanParams::
  /// cache_slots). Behaviourally neutral at any size — a hit returns the
  /// identical double a recompute would — so fleet homes, which measure from
  /// a handful of positions, shrink it from the 32 KiB default table.
  std::size_t device_cache_slots = 512;
  /// Share an immutable testbed (geometry, wall grid, propagation tables)
  /// instead of building a private copy. Must match \p testbed's kind and
  /// outlive the world; nothing mutates a testbed after construction, so one
  /// instance serves any number of homes (fleet::WorldTemplate relies on
  /// this).
  const home::Testbed* shared_testbed = nullptr;
};

/// Builds the floor plan + propagation calibration for \p kind. Exposed so
/// fleet::WorldTemplate can build the one shared instance per population.
home::Testbed make_testbed(WorldConfig::TestbedKind kind);

/// The calibration a world learns once (the paper's user-performed setup):
/// per-device RSSI thresholds from the walk-around app, and the floor
/// tracker's training fits (two-floor house only). Captured from a fully
/// calibrated world and injected into clones so a fleet pays the setup walk
/// once per template, not once per home.
struct CalibrationArtifacts {
  struct TrackerFit {
    guard::TraceClass label;
    double slope;
    double intercept;
  };
  std::vector<double> thresholds;                     // one per owner device
  std::vector<std::vector<TrackerFit>> tracker_fits;  // one list per tracker
};

/// The single source of the WorldConfig -> module-options mapping, shared by
/// SmartHomeWorld::build_network and anything wiring guard components by hand
/// (fleet instantiation must not drift from the single-world path).
guard::RssiDecisionModule::Options decision_options(const WorldConfig& cfg);
/// Same for the guard box; \p speaker_ips is wired by the caller because the
/// speaker host does not exist until the network is built.
guard::GuardBox::Options guard_options(const WorldConfig& cfg);

class SmartHomeWorld {
 public:
  explicit SmartHomeWorld(WorldConfig cfg);

  /// Runs the setup the paper's user performs once: the walk-around
  /// threshold-learning app per device, and (two-floor house) the floor
  /// tracker's training traces. Advances simulated time.
  void calibrate();

  /// The artifacts calibrate() learned, for reuse by worlds with the same
  /// config (thresholds and training depend only on config + seed geometry).
  [[nodiscard]] CalibrationArtifacts calibration_artifacts() const;

  /// Memoized calibration: boots the speaker (8 s, as calibrate() does) and
  /// installs \p art instead of re-walking the house. Advances simulated time
  /// by the boot only.
  void calibrate_from(const CalibrationArtifacts& art);

  /// Installs \p art at the current instant without advancing time — the
  /// event-driven path (fleet homes schedule this at their boot deadline).
  /// The speaker must have finished booting so the guard knows the endpoints.
  void install_calibration(const CalibrationArtifacts& art);

  // --- access ---------------------------------------------------------------
  sim::Simulation& sim() { return *sim_; }
  const home::Testbed& testbed() const { return *testbed_; }
  guard::GuardBox& guard() { return *guard_; }
  guard::RssiDecisionModule& decision() { return *decision_; }
  cloud::CloudFarm& cloud() { return *cloud_; }
  home::FcmService& fcm() { return *fcm_; }
  const radio::BluetoothBeacon& beacon() const { return *beacon_; }
  net::Host& speaker_host() { return *speaker_host_; }
  /// The speaker--guard and guard--router links (fault-injection targets).
  net::Link& lan_link() { return *lan_link_; }
  net::Link& wan_link() { return *uplink_; }

  [[nodiscard]] int owner_count() const { return static_cast<int>(owners_.size()); }
  home::Person& owner(int i) { return *owners_.at(static_cast<std::size_t>(i)); }
  home::MobileDevice& device(int i) {
    return *devices_.at(static_cast<std::size_t>(i));
  }
  home::Person& attacker() { return *attacker_; }
  guard::FloorTracker* floor_tracker(int i) {
    return i < static_cast<int>(trackers_.size()) ? trackers_[static_cast<std::size_t>(i)].get()
                                                  : nullptr;
  }
  home::MotionSensor* motion_sensor() { return sensor_.get(); }
  [[nodiscard]] double learned_threshold(int i) const {
    return thresholds_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int speaker_floor() const { return speaker_floor_; }

  speaker::EchoDotModel* echo() { return echo_.get(); }
  speaker::GoogleHomeMiniModel* ghm() { return ghm_.get(); }

  // --- speaker --------------------------------------------------------------
  void hear_command(const speaker::CommandSpec& cmd);
  [[nodiscard]] const std::vector<speaker::InteractionResult>& interactions()
      const;

  /// True if the cloud actually executed command \p id (attack-success and
  /// user-experience ground truth).
  [[nodiscard]] bool command_executed(std::uint64_t id) const;

  // --- movement -------------------------------------------------------------
  /// Walks \p person to \p target, routing through the staircase when the
  /// target is on another floor (slowly on the stairs, ~8 s, as measured in
  /// §V-B2). \p done fires on arrival.
  void move_person(home::Person& person, radio::Vec3 target,
                   std::function<void()> done = nullptr);

  [[nodiscard]] radio::Vec3 location_pos(int number) const {
    return testbed_->location(number).pos;
  }
  radio::Vec3 random_point_in_room(const std::string& room, sim::Rng& rng) const;

  /// The walk path the threshold app uses for this deployment (the speaker
  /// room's boundary; in the office, the boundary of the legitimate area).
  [[nodiscard]] std::vector<radio::Vec3> threshold_walk_path() const;

  /// The stair motion sensor's coverage (the stair core; empty optional when
  /// the testbed has no stairs).
  [[nodiscard]] std::optional<radio::Rect> stair_sensor_region() const;

  /// The legitimate command area: the speaker's room in the homes, the
  /// learned box around the speaker in the office (Fig. 8c's red box).
  [[nodiscard]] radio::Rect legitimate_area() const;
  [[nodiscard]] bool in_legitimate_area(const radio::Vec3& p) const;

  /// A random point inside the legitimate area, at device height.
  radio::Vec3 random_legit_spot(sim::Rng& rng) const;

  /// Runs the simulation until \p pred holds (checked after every event) or
  /// \p max_wait simulated time passed. Returns whether pred held.
  bool run_until(const std::function<bool()>& pred, sim::Duration max_wait);

  /// Convenience: run the simulation forward by \p d.
  void run_for(sim::Duration d);

  const WorldConfig& config() const { return cfg_; }

  /// The propagation calibration in effect (config override or testbed's).
  [[nodiscard]] const radio::PathLossParams& radio_params() const {
    return cfg_.radio ? *cfg_.radio : testbed_->radio_params();
  }

 private:
  void build_network();
  void build_people();
  void train_floor_trackers();
  /// Registers devices with the decision module and resets everyone to their
  /// start spots — the shared tail of calibrate() / install_calibration().
  void register_devices_and_reset();
  [[nodiscard]] radio::Vec3 spot_near_speaker(int i) const;

  WorldConfig cfg_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  /// Owned when built privately; null when cfg_.shared_testbed is borrowed.
  std::unique_ptr<home::Testbed> owned_testbed_;
  const home::Testbed* testbed_{nullptr};
  int speaker_floor_{0};

  std::unique_ptr<net::Router> router_;
  net::Link* lan_link_{nullptr};
  net::Link* uplink_{nullptr};
  std::unique_ptr<cloud::CloudFarm> cloud_;
  std::unique_ptr<net::Host> speaker_host_;
  std::unique_ptr<radio::BluetoothBeacon> beacon_;
  std::unique_ptr<home::FcmService> fcm_;
  std::unique_ptr<guard::RssiDecisionModule> decision_;
  std::unique_ptr<guard::GuardBox> guard_;
  std::unique_ptr<speaker::EchoDotModel> echo_;
  std::unique_ptr<speaker::GoogleHomeMiniModel> ghm_;

  std::vector<std::unique_ptr<home::Person>> owners_;
  std::vector<std::unique_ptr<home::MobileDevice>> devices_;
  std::vector<std::unique_ptr<guard::FloorTracker>> trackers_;
  std::vector<double> thresholds_;
  std::unique_ptr<home::Person> attacker_;
  std::unique_ptr<home::MotionSensor> sensor_;
};

}  // namespace vg::workload
