/// Fleet chaos: recovery of a 10k-home fleet from an orchestrated storm.
///
/// Runs a population through one of the named fleet fault plans (regional
/// FCM outages, a shared-backend capacity crunch, correlated WAN
/// degradation, a staggered restart wave — see fleet::fleet_fault_plans())
/// and measures how long the fleet takes to recover. Before the timed run,
/// a serial-vs-sharded parity probe over a slice of the same template
/// guards the orchestration's bit-exactness; after it, the recovery
/// invariants are asserted hard — every home re-established its cloud
/// session before the horizon, and the resilience policy kept the
/// reconnect storm bounded (no unbudgeted retry hammering).
///
/// Env knobs: VG_FLEET_CHAOS_HOMES (default 10000), VG_FLEET_CHAOS_SHARDS
/// (default 8), VG_FLEET_CHAOS_PLAN (default "correlated-storm").
///
/// Emits a machine-readable line:
///   BENCH_JSON {"bench":"fleet_chaos",...,"time_to_fleet_recovery_ms":...,
///               "mean_recovery_ms":...,"reconnects_per_home":...}
///
/// time_to_fleet_recovery_ms is simulated time (deterministic for a given
/// plan + population), so tools/benchdiff gates it as lower-is-better: a
/// regression means the fleet genuinely recovers slower, not that the
/// runner was busy.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "fleet/FleetFaultOrchestrator.h"
#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/ScenarioLoader.h"

using namespace vg;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// The benched population: the same representative apartment home as
/// bench_fleet, with a horizon long enough for the slowest named plan
/// (correlated-storm's restart wave ends at 110 s) plus recovery slack.
constexpr const char* kChaosScn = R"([scenario]
name = bench-fleet-chaos
kind = home
seed = 42
speaker = echo_dot

[home]
testbed = apartment
owners = 2

[schedule]
command = 10 legit
command = 25 attack
command = 40 legit
drain_s = 130

[population]
homes = 10000
command_jitter_s = 1.5
attack_flip = 0.2
)";

}  // namespace

int main() {
  const std::uint64_t homes = env_u64("VG_FLEET_CHAOS_HOMES", 10000);
  const auto shards =
      static_cast<unsigned>(env_u64("VG_FLEET_CHAOS_SHARDS", 8));
  const char* plan_env = std::getenv("VG_FLEET_CHAOS_PLAN");
  const std::string plan_name =
      (plan_env != nullptr && *plan_env != '\0') ? plan_env
                                                 : "correlated-storm";

  bench::header("Fleet chaos (orchestrated storm, time to recovery)",
                "src/fleet/ — FleetFaultOrchestrator over a shared template");

  const fleet::FleetFaultPlan* plan = fleet::fleet_fault_plan(plan_name);
  if (plan == nullptr) {
    std::fprintf(stderr, "FATAL: unknown fleet fault plan '%s'\n",
                 plan_name.c_str());
    return 1;
  }

  scenario::ScenarioSpec spec = scenario::ScenarioLoader::load(kChaosScn);
  spec.population.homes = homes;
  spec.fleet_faults = *plan;
  const fleet::WorldTemplate tmpl{spec};

  // Parity probe before the timed run: a small slice of the same storm,
  // serial vs sharded. A mismatch is a correctness bug, not a perf result.
  {
    const std::uint64_t probe = std::min<std::uint64_t>(homes, 64);
    fleet::FleetConfig pcfg;
    pcfg.homes = probe;
    pcfg.shards = 4;
    const fleet::AggregateStats serial =
        fleet::run_fleet_serial(tmpl, 0, probe);
    if (!(fleet::run_fleet(tmpl, pcfg) == serial)) {
      std::fprintf(stderr,
                   "FATAL: fleet/serial parity broken under plan '%s'\n",
                   plan_name.c_str());
      return 1;
    }
  }

  fleet::FleetConfig cfg;
  cfg.homes = homes;
  cfg.shards = shards;

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const fleet::AggregateStats stats = fleet::run_fleet(tmpl, cfg);
  const double run_s =
      std::chrono::duration<double>(clock::now() - t0).count();

  // Recovery invariants, asserted hard: the bench is meaningless if the
  // storm never fired or any home failed to come back.
  const auto& c = stats.counters();
  if (c.orchestrated_homes == 0 || c.orchestrated_faults == 0) {
    std::fprintf(stderr, "FATAL: plan '%s' orchestrated nothing\n",
                 plan_name.c_str());
    return 1;
  }
  if (c.unrecovered_homes != 0) {
    std::fprintf(stderr,
                 "FATAL: %llu home(s) never re-established their cloud "
                 "session before the horizon\n",
                 static_cast<unsigned long long>(c.unrecovered_homes));
    return 1;
  }
  // Bounded reconnect storm: the backoff/budget envelope keeps the mean
  // well under one reconnect attempt per simulated second per home; a blown
  // bound means the resilience policy stopped reaching the homes.
  const double reconnects_per_home =
      static_cast<double>(c.reconnects) / static_cast<double>(homes);
  if (reconnects_per_home > 32.0) {
    std::fprintf(stderr, "FATAL: reconnect storm unbounded (%.1f per home)\n",
                 reconnects_per_home);
    return 1;
  }

  const double ttfr_ms =
      static_cast<double>(stats.time_to_fleet_recovery_ns()) / 1e6;
  const double mean_recovery_ms = stats.mean_recovery_s() * 1000.0;
  const double homes_per_sec = static_cast<double>(homes) / run_s;

  std::printf("plan      : %s (%s)\n", plan_name.c_str(),
              plan->to_string().c_str());
  std::printf("run       : %llu homes, %u shard(s), %.3f s wall\n",
              static_cast<unsigned long long>(homes), shards, run_s);
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("recovery  : fleet %.1f ms, mean %.1f ms over %llu sample(s), "
              "%.2f reconnects/home\n",
              ttfr_ms, mean_recovery_ms,
              static_cast<unsigned long long>(stats.recovery_samples()),
              reconnects_per_home);

  std::printf(
      "\nBENCH_JSON {\"bench\":\"fleet_chaos\",\"plan\":\"%s\","
      "\"homes\":%llu,\"shards\":%u,\"run_seconds\":%.3f,"
      "\"homes_per_sec\":%.0f,\"orchestrated_homes\":%llu,"
      "\"orchestrated_faults\":%llu,\"recovery_samples\":%llu,"
      "\"time_to_fleet_recovery_ms\":%.3f,\"mean_recovery_ms\":%.3f,"
      "\"reconnects_per_home\":%.3f}\n",
      plan_name.c_str(), static_cast<unsigned long long>(homes), shards,
      run_s, homes_per_sec,
      static_cast<unsigned long long>(c.orchestrated_homes),
      static_cast<unsigned long long>(c.orchestrated_faults),
      static_cast<unsigned long long>(stats.recovery_samples()), ttfr_ms,
      mean_recovery_ms, reconnects_per_home);
  return 0;
}
