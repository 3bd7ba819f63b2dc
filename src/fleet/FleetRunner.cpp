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

/// Advancement quantum: the grid of run_until horizons every home is driven
/// on (target k is min(k·kEpoch, end)). The wake calendar only ever *skips*
/// horizons on this grid that provably execute nothing — the horizons it
/// does run are exactly the round-robin loop's, keeping the event/RNG
/// interleaving bit-identical while a shard still genuinely interleaves its
/// population in simulated time.
constexpr sim::Duration kEpoch = sim::seconds(10);

/// Arena chunk for per-home simulations. A scripted home allocates tens of
/// kilobytes of packet state; 8 KiB chunks keep 10^5 resident homes from
/// reserving 64 KiB minimums each.
constexpr std::size_t kHomeArenaChunk = 8 * 1024;

/// Path-loss memo slots per owner-device scanner. The 512-slot default is
/// sized for one long-lived world that walks its calibration; a fleet home
/// installs its calibration instead and measures from a handful of teleport
/// positions. A hit returns the identical double, so the size moves memory
/// only: 8 slots are 512 B per scanner instead of 32 KiB, which matters for
/// homes that sit resident through hours of idle drain (EXPERIMENTS.md,
/// "Why fleet homes do not hibernate").
constexpr std::size_t kHomeCacheSlots = 8;

/// Consecutive calendar horizons a popped home runs before re-entering the
/// heap. Homes never interact and the stats fold is order-independent, so
/// the batch cannot change the merged result; running one hot home several
/// horizons in a row instead of cycling the whole resident set through the
/// cache every epoch is a large locality win on event-dense populations.
constexpr std::uint32_t kWakeBatch = 8;

/// One mutable home: a SmartHomeWorld wired copy-on-write from the shared
/// template, with its entire script pre-scheduled as events so construction
/// is allocation + wiring and advance_to() is the only driver. Strict shard
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

  /// The next run_until horizon on the epoch grid at which this home has a
  /// pending event — its wake time. Every grid horizon strictly before it
  /// would execute zero events (no pending event is at or before it), so
  /// skipping them cannot perturb the event or RNG stream; every horizon at
  /// or past it is one the plain epoch round-robin would also run. Returns
  /// end_ when no pending event lands before the end (the final, possibly
  /// empty, run_until(end_) the round-robin also performs).
  [[nodiscard]] sim::TimePoint next_wake() const {
    const std::optional<sim::TimePoint> next = world_->sim().next_event_at();
    if (!next.has_value() || *next > end_) return end_;
    if (*next <= target_) return std::min(target_ + kEpoch, end_);
    const std::int64_t k =
        ((*next - target_).ns() + kEpoch.ns() - 1) / kEpoch.ns();
    return std::min(target_ + kEpoch * k, end_);
  }

  /// Full epochs between the current horizon and \p wake that the calendar
  /// skips (the round-robin would have run each as an empty run_until).
  [[nodiscard]] std::uint64_t epochs_skipped_to(sim::TimePoint wake) const {
    const std::int64_t gap = (wake - target_).ns();
    return gap > kEpoch.ns()
               ? static_cast<std::uint64_t>((gap - 1) / kEpoch.ns())
               : 0;
  }

  /// Simulates up to \p target (a value obtained from next_wake()); returns
  /// true when the home reached its end.
  bool advance_to(sim::TimePoint target) {
    target_ = target;
    world_->sim().run_until(target_);
    return target_ >= end_;
  }

  /// Runs to the end in one go (the serial reference path), wake to wake.
  void run_to_end() {
    while (!advance_to(next_wake())) {
    }
  }

  /// Folds this finished home into \p acc and releases nothing: the caller
  /// destroys the home, freeing its world before the next one is admitted.
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
  sim::TimePoint target_{};
  sim::TimePoint end_{};
};

/// One entry in a shard's wake calendar: a resident home and the horizon it
/// next needs to run at. The heap owns the homes — finishing a home is a
/// pop_heap + pop_back (the swap-and-pop that replaced the old O(n²)
/// vector::erase residency loop).
struct Resident {
  sim::TimePoint wake;
  std::uint64_t order;  // home index; deterministic tie-break at equal wakes
  std::unique_ptr<FleetHome> home;
};

struct LaterWake {
  bool operator()(const Resident& a, const Resident& b) const {
    if (a.wake != b.wake) return a.wake > b.wake;
    return a.order > b.order;
  }
};

struct ShardResult {
  AggregateStats stats;
  WakeTelemetry tel;
};

/// One shard: streams homes [begin, end) through at most \p max_resident
/// live worlds on the wake calendar, folding each finished home into the
/// returned stats. Stats folds are integer-exact and order-independent, so
/// the calendar's earliest-wake-first order (vs the old round-robin) leaves
/// the merged result bit-identical.
ShardResult run_range(const WorldTemplate& tmpl, std::uint64_t begin,
                      std::uint64_t end, std::uint64_t max_resident) {
  ShardResult out;
  const std::uint64_t cap =
      max_resident == 0 ? (end > begin ? end - begin : 1) : max_resident;
  out.tel.resident_cap = cap;
  std::vector<Resident> calendar;
  calendar.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(cap, end > begin ? end - begin : 1)));
  std::uint64_t next = begin;
  const auto admit = [&] {
    while (calendar.size() < cap && next < end) {
      auto home = std::make_unique<FleetHome>(tmpl, next);
      calendar.push_back(Resident{home->next_wake(), next, std::move(home)});
      std::push_heap(calendar.begin(), calendar.end(), LaterWake{});
      ++next;
    }
  };
  admit();
  while (!calendar.empty()) {
    std::pop_heap(calendar.begin(), calendar.end(), LaterWake{});
    Resident r = std::move(calendar.back());
    calendar.pop_back();
    bool finished = false;
    sim::TimePoint wake = r.wake;
    for (std::uint32_t b = 0; b < kWakeBatch; ++b) {
      ++out.tel.wakes;
      out.tel.epochs_skipped += r.home->epochs_skipped_to(wake);
      if (r.home->advance_to(wake)) {
        finished = true;
        break;
      }
      wake = r.home->next_wake();
    }
    if (finished) {
      r.home->finish(out.stats);
      r.home.reset();  // free the world before admitting its replacement
      admit();
      continue;
    }
    r.wake = wake;
    calendar.push_back(std::move(r));
    std::push_heap(calendar.begin(), calendar.end(), LaterWake{});
  }
  return out;
}

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

  const unsigned workers =
      cfg.workers != 0
          ? cfg.workers
          : std::min<unsigned>(cfg.shards,
                               std::max(1u, std::thread::hardware_concurrency()));
  sim::BatchRunner pool{workers};
  const std::vector<ShardResult> per_shard = pool.map<ShardResult>(
      cfg.shards, [&](std::size_t s) {
        return run_range(tmpl, homes * s / cfg.shards,
                         homes * (s + 1) / cfg.shards, cfg.max_resident);
      });

  AggregateStats total;
  WakeTelemetry tel;
  for (const ShardResult& s : per_shard) {
    total.merge(s.stats);
    tel.merge(s.tel);
  }
  tel.workers = pool.worker_count();
  if (telemetry != nullptr) *telemetry = tel;
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
          cfg.max_resident = 2;
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
