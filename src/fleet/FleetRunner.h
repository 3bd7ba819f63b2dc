#pragma once

#include <cstdint>

#include "fleet/AggregateStats.h"
#include "fleet/WorldTemplate.h"

/// \file FleetRunner.h
/// Runs a population of homes instantiated from one WorldTemplate across
/// shards with strict home-affinity: every home lives and dies on exactly one
/// shard, shards share only the immutable template, and each shard folds
/// results into its own AggregateStats. Homes never interact and
/// AggregateStats merges are integer-exact, so the final stats are
/// bit-identical regardless of shard or worker count — the parity invariant
/// pinned by tests/test_fleet.cpp.
///
/// Scheduling and memory model: a shard runs its contiguous range of homes
/// one at a time, in the loop run_fleet_serial runs. Each home is built from
/// the template, driven to its end with one run_until, folded into the
/// shard's stats and destroyed before the next is built, so a run holds one
/// live home per worker thread. Nothing is O(homes) but the loop counter.

namespace vg::fleet {

struct FleetConfig {
  /// Homes to run; 0 means "whatever the template's population declares".
  std::uint64_t homes{0};
  /// Shards (contiguous, even home ranges). Fanned across BatchRunner
  /// workers.
  unsigned shards{1};
  /// Worker threads; 0 = the core count. The pool never starts more threads
  /// than there are shards or homes to run.
  unsigned workers{0};

  /// Backstop against typo'd populations; far above the bench scale.
  static constexpr std::uint64_t kMaxHomes = 4'000'000;
};

/// Run-shape observability, kept out of AggregateStats: stats are the parity
/// fingerprint, the worker count is how the run was laid out.
struct WakeTelemetry {
  /// Resolved worker count the pool actually ran with.
  unsigned workers{0};
  /// Always 0: homes run start to finish, so there is no wake calendar, no
  /// skipped epoch and no hibernation. Kept only because perfbench reads
  /// them.
  std::uint64_t wakes{0};
  std::uint64_t epochs_skipped{0};
  std::uint64_t hibernations{0};
  std::uint64_t trim_bytes{0};
};

/// Validates \p cfg against a population of \p homes homes. Throws
/// std::invalid_argument naming the violated constraint (zero shards or a
/// home count out of bounds).
void validate_fleet_config(const FleetConfig& cfg, std::uint64_t homes);

/// Runs the fleet: shards fan across a BatchRunner pool, each shard runs its
/// range of homes through run_fleet_serial, and the shard stats merge into
/// the returned total. When \p telemetry is non-null the resolved worker
/// count lands there.
AggregateStats run_fleet(const WorldTemplate& tmpl, const FleetConfig& cfg,
                         WakeTelemetry* telemetry = nullptr);

/// The per-home loop: homes [first, first + count), one at a time on the
/// caller's thread, folded into one AggregateStats. Every run_fleet shard
/// runs it over its range, and called over the whole population it is the
/// parity reference: bit-identical to run_fleet at any shard count.
AggregateStats run_fleet_serial(const WorldTemplate& tmpl, std::uint64_t first,
                                std::uint64_t count);

/// Installs the fleet parity check into the scenario fuzzer
/// (workload::set_population_check): scripted specs carrying a [population]
/// get run both serially and sharded and their stats fingerprints compared.
/// Must be called explicitly by harnesses that link vg_fleet (static
/// initializers in static libraries are dropped by the linker).
void register_fuzz_population_check();

}  // namespace vg::fleet
