#include "fleet/FleetRunner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "faults/FaultInjector.h"
#include "simcore/BatchRunner.h"
#include "workload/Corpus.h"
#include "workload/ScenarioFuzz.h"
#include "workload/ScenarioRun.h"

namespace vg::fleet {

namespace {

/// Simulated time of the speaker-boot deadline: the calibration artifacts are
/// installed (and the fault plan armed) here, matching the 8 s boot window
/// run_scenario_scripted's calibrate() waits out.
constexpr sim::Duration kBoot = sim::seconds(8);

/// Arena chunk for per-home simulations. A scripted home allocates tens of
/// kilobytes of packet state; 8 KiB chunks fit that closer than the 64 KiB
/// default, whose larger chunks add allocated bytes per home with no gain in
/// peak RSS.
constexpr std::size_t kHomeArenaChunk = 8 * 1024;

/// Path-loss memo slots per owner-device scanner. The 512-slot default is
/// sized for one long-lived world that walks its calibration; a fleet home
/// installs its calibration instead and measures from a handful of teleport
/// positions. A hit returns the identical double, so the size moves memory
/// only: 8 slots are 512 B per scanner instead of 32 KiB, allocated and
/// freed once per home.
constexpr std::size_t kHomeCacheSlots = 8;

/// One mutable home: a SmartHomeWorld wired copy-on-write from the shared
/// template, with its entire script pre-scheduled as events so construction
/// is allocation + wiring and run_to_end() is the only driver. Strict shard
/// affinity: a FleetHome never leaves the shard (thread) that made it.
class FleetHome {
 public:
  FleetHome(const WorldTemplate& tmpl, std::uint64_t index)
      : tmpl_(&tmpl), index_(index), spec_(tmpl.home_spec(index)) {
    workload::WorldConfig cfg = workload::world_config_from_spec(spec_);
    // home_spec() strips [fleet_faults] from the derived spec so it stays
    // loader-valid, so the population's resilience policy rides in from the
    // template instead of from the spec.
    const ResiliencePolicy& res = tmpl.resilience();
    cfg.reconnect_backoff = res.reconnect_backoff;
    cfg.reconnect_backoff_cap = res.reconnect_backoff_cap;
    cfg.reconnect_budget = res.reconnect_budget;
    cfg.fcm_retry_jitter = res.fcm_retry_jitter;
    cfg.fcm_retry_budget = res.fcm_retry_budget;
    cfg.shared_testbed = &tmpl.testbed();
    cfg.arena_chunk = kHomeArenaChunk;
    cfg.device_cache_slots = kHomeCacheSlots;
    world_ = std::make_unique<workload::SmartHomeWorld>(cfg);

    faults::FaultInjector::Targets targets;
    targets.lan = &world_->lan_link();
    targets.wan = &world_->wan_link();
    targets.cloud = &world_->cloud();
    targets.fcm = &world_->fcm();
    for (int i = 0; i < world_->owner_count(); ++i) {
      targets.devices.push_back(&world_->device(i));
    }
    targets.guard = &world_->guard();
    injector_ = std::make_unique<faults::FaultInjector>(world_->sim(), targets);

    const sim::TimePoint t0 = sim::TimePoint{} + kBoot;
    end_ = t0 + spec_.schedule.drain;

    // Boot deadline: install the memoized calibration (the guard knows the
    // voice endpoints by now) and arm the fault plan, exactly what the
    // blocking runner does after calibrate().
    world_->sim().at(t0, [this, &tmpl] {
      world_->install_calibration(tmpl.calibration());
      injector_->arm(spec_.faults);
    });

    // The command script, pre-scheduled: teleport 1 s ahead of each command,
    // then the command itself. RNG draws happen inside the events in command
    // order (offsets are strictly increasing), so the draw sequence is the
    // same as the blocking runner's loop.
    const radio::Vec3 attack_spot = workload::scripted_attack_spot(*world_);
    const workload::CommandCorpus& corpus =
        workload::corpus_for_speaker(spec_.speaker);
    for (std::size_t i = 0; i < spec_.schedule.commands.size(); ++i) {
      const scenario::CommandStep& step = spec_.schedule.commands[i];
      world_->sim().at(t0 + step.at - sim::seconds(1),
                       [this, attack_spot, attack = step.attack] {
                         sim::Rng& rng = world_->sim().rng("chaos.script");
                         world_->owner(0).teleport(
                             attack ? attack_spot
                                    : world_->random_legit_spot(rng));
                       });
      world_->sim().at(t0 + step.at, [this, &corpus, i] {
        sim::Rng& rng = world_->sim().rng("chaos.script");
        world_->hear_command(
            corpus.sample(rng, static_cast<std::uint64_t>(i) + 1));
      });
    }
  }

  /// Simulates the home up to its end: the boot deadline, the command
  /// script and the drain, in one run_until.
  void run_to_end() { world_->sim().run_until(end_); }

  /// Folds this finished home into \p acc and releases nothing: the caller
  /// destroys the home, freeing its world before the next one is built.
  void finish(AggregateStats& acc) const {
    std::uint64_t attacks = 0;
    for (const scenario::CommandStep& c : spec_.schedule.commands) {
      attacks += c.attack ? 1 : 0;
    }
    const workload::ChaosResult r = workload::collect_scripted_result(
        *world_, spec_, injector_->injected());
    acc.add_home(r, world_->sim().executed_events(),
                 spec_.schedule.commands.size(), attacks);
    for (const double s : world_->decision().latencies_s()) {
      acc.add_latency(s);
    }
    for (const auto& q : world_->decision().history()) {
      for (const auto& rep : q.reports) acc.add_rssi(rep.rssi);
    }

    // Orchestration accounting: how much of the fleet plan landed on this
    // home. apply() only ever appends to the base [faults], so the delta is
    // the entry-count difference.
    if (tmpl_->orchestrator() != nullptr) {
      const std::uint64_t orchestrated = spec_.faults.total_entries() -
                                         tmpl_->base().faults.total_entries();
      acc.add_orchestration(
          tmpl_->orchestrator()->region_of(tmpl_->home_seed(index_)),
          orchestrated);
    }
    // Recovery: for any fault-touched home, the gap between the last fault
    // transition and the speaker's final cloud session (re-)establishment.
    // A session that survived every fault recovers in 0. Mini homes carry no
    // persistent session, so they trivially recover.
    if (!injector_->log().empty()) {
      const sim::TimePoint last_fault = injector_->log().back().when;
      bool recovered = true;
      std::uint64_t ns = 0;
      if (const speaker::EchoDotModel* echo = world_->echo()) {
        recovered = echo->connected();
        if (recovered && echo->last_established_at() > last_fault) {
          ns = static_cast<std::uint64_t>(
              (echo->last_established_at() - last_fault).ns());
        }
      }
      acc.add_recovery(ns, recovered);
    }
  }

 private:
  const WorldTemplate* tmpl_;
  std::uint64_t index_;
  scenario::ScenarioSpec spec_;
  std::unique_ptr<workload::SmartHomeWorld> world_;
  std::unique_ptr<faults::FaultInjector> injector_;
  sim::TimePoint end_{};
};

}  // namespace

void validate_fleet_config(const FleetConfig& cfg, std::uint64_t homes) {
  if (homes == 0) {
    throw std::invalid_argument{"fleet: population must have at least 1 home"};
  }
  if (homes > FleetConfig::kMaxHomes) {
    throw std::invalid_argument{
        "fleet: population of " + std::to_string(homes) + " homes exceeds " +
        std::to_string(FleetConfig::kMaxHomes)};
  }
  if (cfg.shards == 0) {
    throw std::invalid_argument{"fleet: shards must be >= 1"};
  }
}

AggregateStats run_fleet(const WorldTemplate& tmpl, const FleetConfig& cfg,
                         WakeTelemetry* telemetry) {
  const std::uint64_t homes = cfg.homes != 0 ? cfg.homes : tmpl.homes();
  validate_fleet_config(cfg, homes);

  // One thread per shard that has homes to run, at most: a thread past that
  // would only sit idle.
  const unsigned asked =
      cfg.workers != 0 ? cfg.workers
                       : std::max(1u, std::thread::hardware_concurrency());
  const auto workers = static_cast<unsigned>(std::min<std::uint64_t>(
      std::min(asked, cfg.shards), homes));
  sim::BatchRunner pool{workers};
  const std::vector<AggregateStats> per_shard = pool.map<AggregateStats>(
      cfg.shards, [&](std::size_t s) {
        const std::uint64_t begin = homes * s / cfg.shards;
        return run_fleet_serial(tmpl, begin,
                                homes * (s + 1) / cfg.shards - begin);
      });

  AggregateStats total;
  for (const AggregateStats& s : per_shard) total.merge(s);
  if (telemetry != nullptr) {
    *telemetry = WakeTelemetry{.workers = pool.worker_count()};
  }
  return total;
}

AggregateStats run_fleet_serial(const WorldTemplate& tmpl, std::uint64_t first,
                                std::uint64_t count) {
  AggregateStats acc;
  for (std::uint64_t i = first; i < first + count; ++i) {
    FleetHome home{tmpl, i};
    home.run_to_end();
    home.finish(acc);
  }
  return acc;
}

void register_fuzz_population_check() {
  workload::set_population_check(
      [](const scenario::ScenarioSpec& spec) -> std::vector<std::string> {
        std::vector<std::string> violations;
        try {
          const WorldTemplate tmpl{spec};
          const AggregateStats serial =
              run_fleet_serial(tmpl, 0, tmpl.homes());
          FleetConfig cfg;
          cfg.shards = 2;
          const AggregateStats sharded = run_fleet(tmpl, cfg);
          if (!(serial == sharded)) {
            violations.push_back(
                "fleet population parity broken: serial fingerprint " +
                std::to_string(serial.fingerprint()) + " != sharded " +
                std::to_string(sharded.fingerprint()) + " over " +
                std::to_string(tmpl.homes()) + " homes");
          }
          if (serial.counters().commands == 0) {
            violations.push_back(
                "fleet population ran zero commands across " +
                std::to_string(tmpl.homes()) + " homes");
          }
        } catch (const std::exception& e) {
          violations.push_back(std::string{"fleet population check threw: "} +
                               e.what());
        }
        return violations;
      });
}

}  // namespace vg::fleet
