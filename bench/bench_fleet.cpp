/// Fleet throughput: how many concurrent simulated homes one box sustains.
///
/// Instantiates a population from one shared WorldTemplate (testbed +
/// memoized calibration artifacts) and runs every home CONCURRENTLY — with
/// max_resident = 0 each shard constructs its whole range up front and the
/// wake calendar pops homes in earliest-wake order, so the peak-RSS number
/// really is the cost of N live homes, not N sequential ones.
///
/// Env knobs: VG_FLEET_HOMES (default 250000), VG_FLEET_SHARDS (default 8),
/// VG_FLEET_RESIDENT (default 0 = whole shard range resident).
///
/// Peak RSS is reported two ways. rss_bytes_per_100k_homes divides by every
/// home the run streamed through; rss_bytes_per_live_home divides by the
/// homes that can be live at once (resident cap × concurrently running
/// shards), the figure that does not swing with the run shape.
///
/// Emits a machine-readable line:
///   BENCH_JSON {"bench":"fleet",...,"homes_per_sec":...,
///               "events_per_sec":...,"rss_bytes_per_100k_homes":...,
///               "live_homes":...,"rss_bytes_per_live_home":...}

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
  const std::uint64_t resident = env_u64("VG_FLEET_RESIDENT", 0);

  bench::header("Fleet throughput (concurrent homes per box)",
                "src/fleet/ — wake-calendar scheduling, streaming stats");

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
    pcfg.max_resident = 3;
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
  cfg.max_resident = resident;

  fleet::WakeTelemetry tel;
  const auto t1 = clock::now();
  const fleet::AggregateStats stats = fleet::run_fleet(tmpl, cfg, &tel);
  const double run_s =
      std::chrono::duration<double>(clock::now() - t1).count();

  const double homes_per_sec = static_cast<double>(homes) / run_s;
  const double events_per_sec =
      static_cast<double>(stats.counters().events) / run_s;
  const std::uint64_t rss = peak_rss_bytes();
  const double rss_per_100k =
      static_cast<double>(rss) * 100000.0 / static_cast<double>(homes);
  const std::uint64_t live_homes =
      tel.resident_cap * std::min<std::uint64_t>(tel.workers, shards);
  const double rss_per_live_home =
      static_cast<double>(rss) / static_cast<double>(live_homes);

  std::printf("template  : built in %.3f s (testbed + calibration, shared "
              "by all %llu homes)\n",
              template_s, static_cast<unsigned long long>(homes));
  std::printf("run       : %llu homes, %u shard(s), %u worker(s), "
              "resident cap %llu/shard, %llu live home(s) at most\n",
              static_cast<unsigned long long>(homes), shards, tel.workers,
              static_cast<unsigned long long>(tel.resident_cap),
              static_cast<unsigned long long>(live_homes));
  std::printf("calendar  : %llu wakes (%.2f/home), %llu empty epochs "
              "skipped (%.2f/home)\n",
              static_cast<unsigned long long>(tel.wakes),
              static_cast<double>(tel.wakes) / static_cast<double>(homes),
              static_cast<unsigned long long>(tel.epochs_skipped),
              static_cast<double>(tel.epochs_skipped) /
                  static_cast<double>(homes));
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("throughput: %9.0f homes/s, %12.0f events/s (%.3f s)\n",
              homes_per_sec, events_per_sec, run_s);
  std::printf("memory    : peak RSS %.1f MiB, %.1f MiB per 100k homes, "
              "%.1f KiB per live home\n",
              static_cast<double>(rss) / (1024.0 * 1024.0),
              rss_per_100k / (1024.0 * 1024.0), rss_per_live_home / 1024.0);

  std::printf(
      "\nBENCH_JSON {\"bench\":\"fleet\",\"homes\":%llu,\"shards\":%u,"
      "\"resident\":%llu,\"resident_cap\":%llu,\"workers\":%u,"
      "\"template_seconds\":%.3f,\"run_seconds\":%.3f,"
      "\"homes_per_sec\":%.0f,\"events_per_sec\":%.0f,"
      "\"wakes_per_home\":%.2f,\"epochs_skipped_per_home\":%.2f,"
      "\"rss_bytes\":%llu,\"rss_bytes_per_100k_homes\":%.0f,"
      "\"live_homes\":%llu,\"rss_bytes_per_live_home\":%.0f}\n",
      static_cast<unsigned long long>(homes), shards,
      static_cast<unsigned long long>(resident),
      static_cast<unsigned long long>(tel.resident_cap), tel.workers,
      template_s, run_s, homes_per_sec, events_per_sec,
      static_cast<double>(tel.wakes) / static_cast<double>(homes),
      static_cast<double>(tel.epochs_skipped) / static_cast<double>(homes),
      static_cast<unsigned long long>(rss), rss_per_100k,
      static_cast<unsigned long long>(live_homes), rss_per_live_home);
  return 0;
}
