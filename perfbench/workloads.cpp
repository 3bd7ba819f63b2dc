/// The four benchmark workloads. Each job is one thing a user of the
/// simulator does, split into a build stage and a run stage:
///
///   fleet-commands  a population of apartment homes that each take three
///                   voice commands (some issued with the owner away, so the
///                   guard must block them) under a LAN flap: .scn load and
///                   WorldTemplate (testbed + calibration), then run_fleet.
///                   Exercises every layer of the paper's pipeline — kernel,
///                   TCP proxy, recognizer, FCM query, BLE RSSI verdict —
///                   plus the fleet scheduler.
///   fleet-idle      a population of apartment homes that take one command
///                   and then idle for two simulated hours on heartbeats and
///                   keep-alives: the wake calendar's skipped epochs and home
///                   hibernation carry this one, the verdict path barely runs.
///   protocol-7day   the paper's 7-day real-world protocol (§V-B3) in one
///                   house: SmartHomeWorld + calibration walk, then ~160
///                   owner and attacker commands under ExperimentDriver.
///   replay-corpus   offline recognition of a captured trace corpus: columnar
///                   decode (BatchDecoder), then BatchReplayer. No simulation
///                   kernel at all; the corpus is captured in setup.
///
/// In the simulation workloads job k derives its input seed from (run seed,
/// k), so a run covers many distinct inputs; replay-corpus replays the same
/// corpus in every job. Two runs with the same seed do identical work.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/ScenarioLoader.h"
#include "simcore/Arena.h"
#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "workload/Experiment.h"
#include "workload/ScenarioRun.h"
#include "workload/TrialRunner.h"
#include "workload/World.h"

namespace vgbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 finalizer: independent 64-bit values from consecutive inputs.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The simulator seed of input \p k in a run seeded with \p seed (48 bits,
/// so it survives any integer field of the .scn format).
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t k) {
  return mix(mix(seed) + k) >> 16;
}

std::string fill_seed(const char* scn, std::uint64_t seed) {
  std::string text{scn};
  const std::string key = "{seed}";
  text.replace(text.find(key), key.size(), std::to_string(seed));
  return text;
}

// --- fleets ----------------------------------------------------------------

struct FleetShape {
  const char* scn;  // .scn text with a {seed} placeholder
  std::uint64_t homes;
  std::uint64_t commands_per_home;
  bool expect_blocks;  // some commands are issued with every owner away
};

/// 256 homes keep a job near 0.1 s on one core, so a run times over a hundred
/// of them; one owner per home means an "attack" step (owner teleported to
/// the farthest room) must come back malicious and be dropped.
constexpr FleetShape kFleetCommands{R"([scenario]
name = fleet-commands
kind = home
seed = {seed}
speaker = echo_dot

[home]
testbed = apartment
owners = 1

[schedule]
command = 10 legit
command = 25 attack
command = 40 legit
drain_s = 75

[faults]
link = lan flap 15 2

[population]
homes = 256
command_jitter_s = 1.5
attack_flip = 0.2
)",
                                    256, 3, true};

/// Two hours of drain per home is the idle steady state: a heartbeat every
/// 30 s, keep-alive probes, nothing for the guard to hold. The apartment, not
/// the house: a house home has events in every 10 s epoch, so the calendar
/// would never skip one. 64 homes keep a job near 0.1 s.
constexpr FleetShape kFleetIdle{R"([scenario]
name = fleet-idle
kind = home
seed = {seed}
speaker = echo_dot

[home]
testbed = apartment
owners = 2

[schedule]
command = 10 legit
drain_s = 7200

[population]
homes = 64
command_jitter_s = 1.5
)",
                                64, 1, false};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const FleetShape& shape) : shape_(shape) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    StageTimes t;
    Counters c;
    run_job(0, t, c);
    reference_ = last_;
  }

  void run_job(std::uint64_t k, StageTimes& t, Counters& c) override {
    const std::string text = fill_seed(shape_.scn, input_seed(seed_, k));
    const auto t0 = Clock::now();
    tmpl_.emplace(vg::scenario::ScenarioLoader::load(text));
    t.build_s = seconds_since(t0);

    vg::fleet::FleetConfig cfg;
    cfg.shards = 2;
    cfg.workers = 1;  // single-core timing, like the other workloads
    vg::fleet::WakeTelemetry tel;
    const auto t1 = Clock::now();
    last_ = vg::fleet::run_fleet(*tmpl_, cfg, &tel);
    t.run_s = seconds_since(t1);

    const auto& s = last_.counters();
    c.homes += s.homes;
    c.events += s.events;
    c.spikes += s.spikes;
    c.fcm_pushes += s.fcm_pushes;
    c.wakes += tel.wakes;
    c.epochs_skipped += tel.epochs_skipped;
    c.hibernations += tel.hibernations;
    c.trim_bytes += tel.trim_bytes;
  }

  std::string check_job(std::uint64_t k) override {
    const auto& s = last_.counters();
    if (s.homes != shape_.homes) {
      return "ran " + std::to_string(s.homes) + " homes, expected " +
             std::to_string(shape_.homes);
    }
    if (s.commands != shape_.homes * shape_.commands_per_home) {
      return "ran " + std::to_string(s.commands) + " commands";
    }
    if (s.held_outstanding != 0 || s.unresolved_spikes != 0) {
      return "spikes left unresolved or packets left held at the horizon";
    }
    if (s.released + s.blocked == 0 || s.commands_executed == 0) {
      return "no command reached a verdict or the cloud";
    }
    if (shape_.expect_blocks && s.blocked == 0) {
      return "no command issued with the owner away was blocked";
    }
    const double mean_latency = last_.mean_latency_s();
    if (mean_latency < 0.3 || mean_latency > 6.0) {
      return "mean decision latency " + std::to_string(mean_latency) +
             " s is outside [0.3, 6] s (the paper measures ~1.5 s)";
    }
    if (k == 0 && !(last_ == reference_)) {
      return "job 0 differs from the same job run in setup";
    }
    return {};
  }

  std::string verify() override {
    tmpl_.emplace(vg::scenario::ScenarioLoader::load(
        fill_seed(shape_.scn, input_seed(seed_, 0))));
    const vg::fleet::AggregateStats serial =
        vg::fleet::run_fleet_serial(*tmpl_, 0, shape_.homes);
    if (!(serial == reference_)) {
      return "sharded fleet stats differ from the serial reference";
    }
    return {};
  }

 private:
  FleetShape shape_;
  std::uint64_t seed_{0};
  std::optional<vg::fleet::WorldTemplate> tmpl_;
  vg::fleet::AggregateStats last_;
  vg::fleet::AggregateStats reference_;
};

// --- the 7-day protocol ----------------------------------------------------

struct TrialDigest {
  vg::analysis::ConfusionMatrix confusion;
  std::uint64_t issued{0};
  std::uint64_t events{0};
  std::vector<std::pair<std::uint64_t, bool>> executed;  // (id, executed)

  friend bool operator==(const TrialDigest& a, const TrialDigest& b) {
    return a.confusion.tp == b.confusion.tp &&
           a.confusion.fn == b.confusion.fn &&
           a.confusion.tn == b.confusion.tn &&
           a.confusion.fp == b.confusion.fp && a.issued == b.issued &&
           a.events == b.events && a.executed == b.executed;
  }
};

class ProtocolWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    StageTimes t;
    Counters c;
    run_job(0, t, c);
    reference_ = last_;
  }

  void run_job(std::uint64_t k, StageTimes& t, Counters& c) override {
    // The episode-arena reuse workload::run_trial does: the previous job's
    // world is gone, so its arena chunks can be recycled.
    arena_.reset();
    vg::workload::TrialSpec spec = trial(k);
    spec.world.arena = &arena_;

    const auto t0 = Clock::now();
    vg::workload::SmartHomeWorld world{spec.world};
    world.calibrate();
    t.build_s = seconds_since(t0);

    const auto t1 = Clock::now();
    vg::workload::ExperimentDriver protocol{world, spec.experiment};
    protocol.run();
    t.run_s = seconds_since(t1);

    last_.confusion = protocol.confusion();
    last_.issued = protocol.legit_issued() + protocol.malicious_issued();
    last_.events = world.sim().executed_events();
    last_.executed.clear();
    for (const auto& o : protocol.outcomes()) {
      last_.executed.emplace_back(o.id, o.executed);
    }

    c.homes += 1;
    c.events += last_.events;
    c.spikes += world.guard().spike_events().size();
    c.fcm_pushes += world.fcm().pushes_sent();
  }

  std::string check_job(std::uint64_t k) override {
    if (last_.issued == 0 || last_.confusion.total() != last_.issued) {
      return "judged " + std::to_string(last_.confusion.total()) + " of " +
             std::to_string(last_.issued) + " issued commands";
    }
    // Tables II-IV report 97-100% per 7-day case and a few seeds land near
    // 86%; a guard that let every command through would score ~57%.
    if (last_.confusion.accuracy() < 0.75) {
      return "accuracy " + std::to_string(last_.confusion.accuracy()) +
             " is below 75%";
    }
    if (k == 0 && !(last_ == reference_)) {
      return "job 0 differs from the same job run in setup";
    }
    return {};
  }

  std::string verify() override {
    const vg::workload::TrialResult r = vg::workload::run_trial(trial(0));
    TrialDigest d;
    d.confusion = r.confusion;
    d.issued = r.legit_issued + r.malicious_issued;
    d.events = r.executed_events;
    for (const auto& o : r.outcomes) d.executed.emplace_back(o.id, o.executed);
    if (!(d == reference_)) {
      return "the library's trial runner disagrees with the benchmark's job";
    }
    return {};
  }

 private:
  /// Table II's first case: the two-floor house, Echo Dot at location 1, two
  /// owners with phones, seven simulated days.
  [[nodiscard]] vg::workload::TrialSpec trial(std::uint64_t k) const {
    vg::workload::TrialSpec spec;
    spec.world.testbed = vg::workload::WorldConfig::TestbedKind::kHouse;
    spec.world.speaker = vg::workload::WorldConfig::SpeakerType::kEchoDot;
    spec.world.deployment = 1;
    spec.world.owner_count = 2;
    spec.world.seed = input_seed(seed_, k);
    spec.experiment.duration = vg::sim::days(7);
    return spec;
  }

  std::uint64_t seed_{0};
  vg::sim::Arena arena_;
  TrialDigest last_;
  TrialDigest reference_;
};

// --- trace replay ----------------------------------------------------------

/// The capture corpus: the three homes and both speaker chains of the golden
/// corpus, each looped over the format's maximum of 64 commands, plus a
/// bursty chain with short idle gaps between commands.
constexpr const char* kCaptures[] = {
    R"([scenario]
name = chain-echo-tcp
kind = chain
seed = {seed}
speaker = echo_dot

[schedule]
commands = 64
boot_s = 10
gap_base_s = 20
gap_jitter_s = 10
tail_s = 8

[chain]
avs_migration_s = 90
misc_connection_s = 120
)",
    R"([scenario]
name = chain-mini-quic
kind = chain
seed = {seed}
speaker = home_mini

[schedule]
commands = 64
boot_s = 10
gap_base_s = 18
gap_jitter_s = 8
tail_s = 8

[chain]
avs_migration_s = 0
quic_probability = 1
)",
    R"([scenario]
name = chain-echo-bursty
kind = chain
seed = {seed}
speaker = echo_dot

[schedule]
commands = 64
boot_s = 10
gap_base_s = 5
gap_jitter_s = 2
tail_s = 8

[chain]
avs_migration_s = 0
misc_connection_s = 60
)",
    R"([scenario]
name = house-echo
kind = home
seed = {seed}
speaker = echo_dot

[home]
testbed = house
deployment = 1
owners = 2
watch = off
motion_sensor = on

[schedule]
commands = 64
boot_s = 10
gap_base_s = 24
gap_jitter_s = 8
tail_s = 8
)",
    R"([scenario]
name = apartment-mini
kind = home
seed = {seed}
speaker = home_mini

[home]
testbed = apartment
deployment = 1
owners = 2
watch = off
motion_sensor = on

[schedule]
commands = 64
boot_s = 10
gap_base_s = 24
gap_jitter_s = 8
tail_s = 8
)",
    R"([scenario]
name = office-echo
kind = home
seed = {seed}
speaker = echo_dot

[home]
testbed = office
deployment = 1
owners = 1
watch = on
motion_sensor = on

[schedule]
commands = 64
boot_s = 10
gap_base_s = 24
gap_jitter_s = 8
tail_s = 8
)",
};

/// Each shape is captured under this many seeds: a corpus of ~55k records,
/// a few milliseconds per pass.
constexpr int kCapturesPerShape = 4;

class ReplayWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    traces_.clear();
    std::uint64_t i = 0;
    for (int copy = 0; copy < kCapturesPerShape; ++copy) {
      for (const char* scn : kCaptures) {
        const vg::scenario::ScenarioSpec spec = vg::scenario::ScenarioLoader::load(
            fill_seed(scn, input_seed(seed, i++)));
        vg::workload::TraceScenarioResult r =
            vg::workload::run_scenario_capture(spec);
        traces_.push_back(Trace{std::move(r.bytes), std::move(r.live_spikes)});
      }
    }
    batches_.resize(traces_.size());
    results_.resize(traces_.size());
    StageTimes t;
    Counters c;
    run_job(0, t, c);
  }

  void run_job(std::uint64_t, StageTimes& t, Counters& c) override {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      vg::trace::BatchDecoder::decode(traces_[i].bytes, batches_[i]);
    }
    t.build_s = seconds_since(t0);

    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      replayer_.run(batches_[i], results_[i]);
    }
    t.run_s = seconds_since(t1);

    for (const auto& r : results_) {
      c.records += r.frames;
      c.spikes += r.spikes.size();
    }
  }

  std::string check_job(std::uint64_t) override {
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      if (std::string why = compare(traces_[i], results_[i]); !why.empty()) {
        return "trace " + std::to_string(i) + ": " + why;
      }
    }
    return {};
  }

  /// The live guard's verdicts at capture time are the reference: replay
  /// must reproduce them spike for spike (checked on every job, too).
  std::string verify() override {
    std::uint64_t spikes = 0;
    for (const Trace& tr : traces_) spikes += tr.live.size();
    if (spikes == 0) return "the captured corpus holds no spikes";
    return check_job(0);
  }

 private:
  struct Trace {
    std::vector<std::uint8_t> bytes;
    std::vector<vg::guard::SpikeEvent> live;
  };

  static std::string compare(const Trace& tr,
                             const vg::trace::BatchReplayResult& got) {
    if (got.spikes.size() != tr.live.size()) {
      return "replayed " + std::to_string(got.spikes.size()) +
             " spikes, the live guard saw " + std::to_string(tr.live.size());
    }
    for (std::size_t s = 0; s < got.spikes.size(); ++s) {
      const vg::trace::BatchSpike& a = got.spikes[s];
      const vg::guard::SpikeEvent& b = tr.live[s];
      const bool same_prefix =
          a.prefix_len == b.prefix.size() &&
          std::equal(b.prefix.begin(), b.prefix.end(), a.prefix.begin());
      if (a.flow_id != b.flow_id || a.udp != b.udp || a.start != b.start ||
          a.cls != b.cls || a.rule != b.rule || !same_prefix) {
        return "spike " + std::to_string(s) + " differs from the live verdict";
      }
    }
    return {};
  }

  std::vector<Trace> traces_;
  std::vector<vg::trace::ColumnBatch> batches_;
  std::vector<vg::trace::BatchReplayResult> results_;
  vg::trace::BatchReplayer replayer_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "fleet-commands") {
    return std::make_unique<FleetWorkload>(kFleetCommands);
  }
  if (name == "fleet-idle") return std::make_unique<FleetWorkload>(kFleetIdle);
  if (name == "protocol-7day") return std::make_unique<ProtocolWorkload>();
  if (name == "replay-corpus") return std::make_unique<ReplayWorkload>();
  return nullptr;
}

}  // namespace vgbench
