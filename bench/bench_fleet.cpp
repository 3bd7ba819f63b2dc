/// Fleet throughput: how many simulated homes one box runs per second, and
/// at what memory.
///
/// Instantiates a population from one shared WorldTemplate (testbed +
/// memoized calibration artifacts) and runs it through run_fleet: each shard
/// builds, runs, folds and destroys its homes one at a time, so a run holds
/// one live home per worker and its peak RSS does not grow with the
/// population.
///
/// Env knobs: VG_FLEET_HOMES (default 250000), VG_FLEET_SHARDS (default 8).
/// The worker count is min(shards, cores).
///
/// Emits a machine-readable line whose run shape is (homes, shards); events
/// is the run's exact work counter and rss_bytes its peak RSS:
///   BENCH_JSON {"bench":"fleet","homes":...,"shards":...,"workers":...,
///               "homes_per_sec":...,"events_per_sec":...,"events":...,
///               "rss_bytes":...}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common.h"
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

/// The benched population: an apartment home, three commands under jitter
/// and attack flips, one light LAN flap — representative of a fuzzed fleet
/// spec without being fault-dominated.
constexpr const char* kFleetScn = R"([scenario]
name = bench-fleet
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
drain_s = 75

[faults]
link = lan flap 15 2

[population]
homes = 250000
command_jitter_s = 1.5
attack_flip = 0.2
)";

std::uint64_t peak_rss_bytes() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024;  // Linux: KiB
}

}  // namespace

int main() {
  const std::uint64_t homes = env_u64("VG_FLEET_HOMES", 250000);
  const auto shards =
      static_cast<unsigned>(env_u64("VG_FLEET_SHARDS", 8));

  bench::header("Fleet throughput (homes per second, peak memory)",
                "src/fleet/ — one home at a time per shard, streaming stats");

  using clock = std::chrono::steady_clock;

  const auto t0 = clock::now();
  const scenario::ScenarioSpec spec =
      scenario::ScenarioLoader::load(kFleetScn);
  const fleet::WorldTemplate tmpl{spec};
  const double template_s =
      std::chrono::duration<double>(clock::now() - t0).count();

  // Parity probe before the timed run: a small slice of the same template,
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
                   "FATAL: fleet/serial parity broken over %llu homes\n",
                   static_cast<unsigned long long>(probe));
      return 1;
    }
  }

  fleet::FleetConfig cfg;
  cfg.homes = homes;
  cfg.shards = shards;

  fleet::WakeTelemetry tel;
  const auto t1 = clock::now();
  const fleet::AggregateStats stats = fleet::run_fleet(tmpl, cfg, &tel);
  const double run_s =
      std::chrono::duration<double>(clock::now() - t1).count();

  const std::uint64_t events = stats.counters().events;
  const double homes_per_sec = static_cast<double>(homes) / run_s;
  const double events_per_sec = static_cast<double>(events) / run_s;
  const std::uint64_t rss = peak_rss_bytes();

  std::printf("template  : built in %.3f s (testbed + calibration, shared "
              "by all %llu homes)\n",
              template_s, static_cast<unsigned long long>(homes));
  std::printf("run       : %llu homes, %u shard(s), %u worker(s), one live "
              "home per worker\n",
              static_cast<unsigned long long>(homes), shards, tel.workers);
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("throughput: %9.0f homes/s, %12.0f events/s (%.3f s)\n",
              homes_per_sec, events_per_sec, run_s);
  std::printf("memory    : peak RSS %.1f MiB\n",
              static_cast<double>(rss) / (1024.0 * 1024.0));

  std::printf(
      "\nBENCH_JSON {\"bench\":\"fleet\",\"homes\":%llu,\"shards\":%u,"
      "\"workers\":%u,\"template_seconds\":%.3f,\"run_seconds\":%.3f,"
      "\"homes_per_sec\":%.0f,\"events_per_sec\":%.0f,\"events\":%llu,"
      "\"rss_bytes\":%llu}\n",
      static_cast<unsigned long long>(homes), shards, tel.workers, template_s,
      run_s, homes_per_sec, events_per_sec,
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(rss));
  return 0;
}
