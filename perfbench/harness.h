#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

/// \file harness.h
/// The contract between the benchmark harness (main.cpp) and the four
/// workloads (workloads.cpp). A workload derives every input from the run
/// seed, runs numbered jobs on demand and checks each job's outputs; the
/// harness owns the clock, the repetition and the reporting.

namespace vgbench {

/// What a job did, as counted by the simulator itself. Deterministic for a
/// given job input, so these are the like-for-like work counters next to the
/// noisy wall-clock numbers.
struct Counters {
  std::uint64_t homes{0};           // simulated homes
  std::uint64_t events{0};          // simulation kernel events executed
  std::uint64_t records{0};         // trace records replayed
  std::uint64_t spikes{0};          // traffic spikes the recognizer opened
  std::uint64_t fcm_pushes{0};      // verdict queries pushed to devices
  std::uint64_t wakes{0};           // fleet wake-calendar horizons run
  std::uint64_t epochs_skipped{0};  // empty epochs the calendar skipped
  std::uint64_t hibernations{0};    // homes parked between distant wakes
  std::uint64_t trim_bytes{0};      // bytes hibernation handed back
};

/// Host seconds spent in a job's two stages: building the program objects
/// the job runs on, then running the engine over them.
struct StageTimes {
  double build_s{0};
  double run_s{0};
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Derives this run's inputs from \p seed and runs job 0 once, untimed:
  /// the warm-up, and the result the timed job 0 must reproduce. Each call
  /// starts from scratch, so the harness can time it repeatedly.
  virtual void setup(std::uint64_t seed) = 0;

  /// Runs job \p k (build, then run), recording the stage times and adding
  /// the job's counters. Jobs with the same \p k do identical work.
  virtual void run_job(std::uint64_t k, StageTimes& t, Counters& c) = 0;

  /// Checks the outputs of the job run last. Returns an empty string when
  /// they are correct, otherwise what is wrong.
  virtual std::string check_job(std::uint64_t k) = 0;

  /// Checks job 0 against an independent path through the simulator (a
  /// serial reference, the library's own trial runner, or the live guard's
  /// verdicts). Empty when they agree.
  virtual std::string verify() = 0;
};

/// The workload called \p name, or null if there is none.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace vgbench
