#pragma once

#include <cstdint>

#include "fleet/AggregateStats.h"
#include "fleet/WorldTemplate.h"

/// \file FleetRunner.h
/// Runs a population of homes instantiated from one WorldTemplate across
/// per-shard event queues with strict home-affinity: every home lives and
/// dies on exactly one shard, shards share only the immutable template, and
/// each shard folds results into its own AggregateStats. Homes never
/// interact and AggregateStats merges are integer-exact, so the final stats
/// are bit-identical regardless of shard count, worker count, or residency
/// interleaving — the parity invariant pinned by tests/test_fleet.cpp.
///
/// Scheduling model: each shard keeps its resident homes in a *wake
/// calendar* — a min-heap keyed on the next 10 s epoch horizon at which a
/// home has a pending event (sim::Simulation::next_event_at()). A home idle
/// between scheduled commands costs one O(log n) heap pop per wake instead
/// of an empty run_until per epoch, and the horizons that do run are exactly
/// the horizons the plain epoch round-robin would have run — skipped spans
/// are provably event-free — so the event/RNG interleaving is bit-identical
/// to the round-robin loop (the FleetPins literals pin it).
///
/// Memory model: a shard keeps at most max_resident homes constructed at a
/// time (0 = its whole range), each on its own 8 KiB-chunk arena with
/// 8-slot scanner path-loss memos; results are streamed into the shard's
/// stats as homes finish. An idle home keeps what it holds until it
/// finishes. Nothing is O(homes) but the loop counter.

namespace vg::fleet {

struct FleetConfig {
  /// Homes to run; 0 means "whatever the template's population declares".
  std::uint64_t homes{0};
  /// Shards (contiguous, even home ranges). Fanned across BatchRunner
  /// workers.
  unsigned shards{1};
  /// Worker threads; 0 = min(shards, hardware_concurrency).
  unsigned workers{0};
  /// Concurrently-resident homes per shard; 0 = the shard's entire range at
  /// once (true fleet concurrency — bench_fleet's default).
  std::uint64_t max_resident{0};

  /// Backstop against typo'd populations; far above the bench scale.
  static constexpr std::uint64_t kMaxHomes = 4'000'000;
};

/// Wake-calendar observability, aggregated across shards. Deliberately kept
/// out of AggregateStats: stats are the parity fingerprint, telemetry is how
/// the scheduler earned them (it is itself deterministic for a fixed config,
/// but resident caps and worker counts are run-shape, not results).
struct WakeTelemetry {
  /// run_until horizons actually executed (one per horizon, possibly
  /// several per heap pop).
  std::uint64_t wakes{0};
  /// Empty 10 s epoch quanta the calendar skipped wholesale.
  std::uint64_t epochs_skipped{0};
  /// Always 0 (homes never hibernate); kept only because perfbench reads them.
  std::uint64_t hibernations{0};
  std::uint64_t trim_bytes{0};
  /// Resolved worker count the pool actually ran with.
  unsigned workers{0};
  /// Resolved per-shard residency cap (max over shards; max_resident == 0
  /// resolves to the largest shard range).
  std::uint64_t resident_cap{0};

  void merge(const WakeTelemetry& o) {
    wakes += o.wakes;
    epochs_skipped += o.epochs_skipped;
    workers = workers > o.workers ? workers : o.workers;
    resident_cap = resident_cap > o.resident_cap ? resident_cap : o.resident_cap;
  }
};

/// Validates \p cfg against a population of \p homes homes. Throws
/// std::invalid_argument naming the violated constraint (zero shards or a
/// home count out of bounds).
void validate_fleet_config(const FleetConfig& cfg, std::uint64_t homes);

/// Runs the fleet: shards fan across a BatchRunner pool, each shard streams
/// its range of homes through the wake calendar and folds them into one
/// AggregateStats; shard stats merge into the returned total. When
/// \p telemetry is non-null the merged wake-calendar counters land there.
AggregateStats run_fleet(const WorldTemplate& tmpl, const FleetConfig& cfg,
                         WakeTelemetry* telemetry = nullptr);

/// The parity reference: the same per-home runner, one home at a time on the
/// caller's thread, folded into one AggregateStats. Bit-identical to
/// run_fleet over the same homes at any shard count.
AggregateStats run_fleet_serial(const WorldTemplate& tmpl, std::uint64_t first,
                                std::uint64_t count);

/// Installs the fleet parity check into the scenario fuzzer
/// (workload::set_population_check): scripted specs carrying a [population]
/// get run both serially and sharded and their stats fingerprints compared.
/// Must be called explicitly by harnesses that link vg_fleet (static
/// initializers in static libraries are dropped by the linker).
void register_fuzz_population_check();

}  // namespace vg::fleet
