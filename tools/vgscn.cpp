/// vgscn — declarative scenario tool.
///
///   vgscn validate <file.scn>             parse + validate, report defects
///   vgscn describe <file.scn>             summary and canonical form
///   vgscn gen <seed> [out.scn]            generate a world from a fuzz seed
///   vgscn run <file.scn> | --seed N       run the invariant harness
///   vgscn fuzz [--first N] [--count N]    sweep a fuzz seed range
///   vgscn fleet <file.scn> [flags]        run a population of homes
///   vgscn list                            list the checked-in scenario ports
///
/// `run --seed N` reproduces exactly what the generative fuzzer checked for
/// that seed (generate, `.scn` round-trip, run, chaos/degradation invariants,
/// trace round-trip and replay parity) — it is the one-line repro printed by
/// a failing fuzz test. `run <file.scn>` applies the same harness to a
/// hand-written scenario.
///
/// Exit codes: 0 success (run/fuzz: every invariant holds), 1 runtime error
/// or invariant violation, 2 usage error, 3 I/O error (missing/unreadable
/// file), 4 parse or validation error in a `.scn`.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/FleetFaultOrchestrator.h"
#include "fleet/FleetRunner.h"
#include "scenario/Generator.h"
#include "scenario/ScenarioLoader.h"
#include "scenario/ScnParser.h"
#include "scenario/Serialize.h"
#include "workload/ChaosScenarios.h"
#include "workload/ScenarioFuzz.h"
#include "workload/ScenarioRun.h"
#include "workload/TraceScenarios.h"

using namespace vg;

namespace {

constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitInvalid = 4;

const char kUsageText[] =
    "usage:\n"
    "  vgscn validate <file.scn>\n"
    "  vgscn describe <file.scn>\n"
    "  vgscn gen <seed> [out.scn]\n"
    "  vgscn run <file.scn> | --seed N\n"
    "  vgscn fuzz [--first N] [--count N]\n"
    "  vgscn fleet <file.scn> [--homes N] [--shards N] [--workers N]\n"
    "              [--fault-plan NAME] [--region-report] [--check]\n"
    "  vgscn list\n"
    "  vgscn --help | --version\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return kExitUsage;
}

int cmd_help() {
  std::fputs(kUsageText, stdout);
  std::printf(
      "\ncommands:\n"
      "  validate  parse and validate a scenario; every defect names the\n"
      "            offending section, key and line\n"
      "  describe  one-line summary plus the canonical serialized form\n"
      "  gen       generate the scenario a fuzz seed denotes and write it as\n"
      "            canonical .scn (stdout when no output path is given)\n"
      "  run       run the generative fuzzer's invariant harness on one\n"
      "            scenario: .scn round-trip, chaos/degradation invariants,\n"
      "            trace round-trip and replay parity\n"
      "  fuzz      run the harness over a seed range and print the report\n"
      "  fleet     instantiate a population of homes from a scripted .scn\n"
      "            (its [population] section, or --homes) and stream their\n"
      "            aggregate stats; --shards N fans them across shards,\n"
      "            each running its homes one at a time, --workers N sets\n"
      "            the pool thread count (0 = cores; never more than\n"
      "            shards or homes),\n"
      "            --fault-plan NAME overrides the [fleet_faults] section\n"
      "            with a named orchestration plan (see `vgscn list`),\n"
      "            --region-report prints per-region degradation counters,\n"
      "            --check additionally verifies serial/sharded parity\n"
      "  list      list the checked-in chaos plans, trace scenarios and\n"
      "            named fleet fault plans\n"
      "\nexit codes:\n"
      "  0  success (run/fuzz: every invariant holds)\n"
      "  1  runtime error or invariant violation\n"
      "  2  usage error\n"
      "  3  I/O error (missing or unreadable file)\n"
      "  4  parse or validation error in a .scn\n");
  return 0;
}

/// Distinguishes `.scn` open/read failures (exit 3) from validation failures
/// (ScnError, exit 4): ScnError also derives from std::runtime_error, so the
/// plain runtime_error that ScenarioLoader::load_file throws for I/O is
/// rewrapped here before it can be confused with anything else.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

scenario::ScenarioSpec load_spec(const std::string& path) {
  try {
    return scenario::ScenarioLoader::load_file(path);
  } catch (const scenario::ScnError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw IoError{e.what()};
  }
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

int cmd_validate(const std::string& path) {
  const scenario::ScenarioSpec spec = load_spec(path);
  std::printf("%s: ok (%s)\n", path.c_str(), spec.summary().c_str());
  return 0;
}

int cmd_describe(const std::string& path) {
  const scenario::ScenarioSpec spec = load_spec(path);
  std::printf("%s\n\n%s", spec.summary().c_str(),
              scenario::write_scn(spec).c_str());
  return 0;
}

int cmd_gen(const std::string& seed_arg, const std::string& out) {
  std::uint64_t seed = 0;
  if (!parse_u64(seed_arg, seed)) return usage();
  const scenario::ScenarioSpec spec = scenario::Generator::generate(seed);
  if (out.empty()) {
    std::fputs(scenario::write_scn(spec).c_str(), stdout);
    return 0;
  }
  try {
    scenario::save_scn(spec, out);
  } catch (const std::runtime_error& e) {
    throw IoError{e.what()};
  }
  std::printf("wrote %s (%s)\n", out.c_str(), spec.summary().c_str());
  return 0;
}

int check_and_report(const scenario::ScenarioSpec& spec) {
  std::printf("%s\n", spec.summary().c_str());
  if (spec.scripted()) {
    // The counters the invariants are phrased over; printed before the
    // verdict so a violation can be read in context.
    const workload::ChaosResult r =
        workload::run_scenario_scripted(spec, nullptr);
    std::printf("%s\n", r.to_string().c_str());
  }
  const std::vector<std::string> violations = workload::check_scenario(spec);
  if (violations.empty()) {
    std::printf("every invariant holds\n");
    return 0;
  }
  std::printf("%zu invariant violation(s):\n", violations.size());
  for (const std::string& v : violations) {
    std::printf("  - %s\n", v.c_str());
  }
  return kExitError;
}

int cmd_run_seed(const std::string& seed_arg) {
  std::uint64_t seed = 0;
  if (!parse_u64(seed_arg, seed)) return usage();
  return check_and_report(scenario::Generator::generate(seed));
}

int cmd_run_file(const std::string& path) {
  return check_and_report(load_spec(path));
}

int cmd_fuzz(std::uint64_t first, std::uint64_t count) {
  const workload::FuzzReport report = workload::fuzz_scenarios(first, count);
  std::printf("%s\n", report.to_string().c_str());
  for (const workload::FuzzFailure& f : report.failures) {
    std::printf("%s\n", f.message.c_str());
  }
  return report.ok() ? 0 : kExitError;
}

int cmd_fleet(const std::string& path, std::uint64_t homes, unsigned shards,
              unsigned workers, const std::string& plan_name,
              bool region_report, bool check) {
  scenario::ScenarioSpec spec = load_spec(path);
  if (!plan_name.empty()) {
    const fleet::FleetFaultPlan* plan = fleet::fleet_fault_plan(plan_name);
    if (plan == nullptr) {
      std::fprintf(stderr, "vgscn: unknown fleet fault plan '%s'; known:\n",
                   plan_name.c_str());
      for (const fleet::FleetFaultPlan& p : fleet::fleet_fault_plans()) {
        std::fprintf(stderr, "  %s\n", p.name.c_str());
      }
      return kExitUsage;
    }
    spec.fleet_faults = *plan;
  }
  // --homes sets the population this run uses, which is also the one the
  // fleet plan is checked against.
  if (homes != 0) spec.population.homes = homes;

  // Validate-before-install: a plan that is malformed for this population
  // (or collides with the spec's own [faults]) is a validation error, the
  // same class as a bad .scn.
  std::optional<fleet::WorldTemplate> tmpl;
  try {
    tmpl.emplace(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "vgscn: %s\n", e.what());
    return kExitInvalid;
  }

  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  const std::uint64_t total = tmpl->homes();
  // An out-of-range run shape (e.g. --homes past FleetConfig::kMaxHomes) is
  // a usage error, caught here before anything is printed.
  try {
    fleet::validate_fleet_config(cfg, total);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "vgscn: %s\n", e.what());
    return kExitUsage;
  }

  std::printf("%s\n", spec.summary().c_str());
  std::printf("fleet: %llu home(s) across %u shard(s)\n",
              static_cast<unsigned long long>(total), shards);
  fleet::WakeTelemetry tel;
  const fleet::AggregateStats stats = fleet::run_fleet(*tmpl, cfg, &tel);
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("pool: %u worker(s), one live home each\n", tel.workers);

  if (region_report) {
    const auto& degraded = stats.region_degraded();
    std::printf("region report (%u region(s)):\n", spec.fleet_faults.regions);
    for (std::uint32_t r = 0; r < spec.fleet_faults.regions; ++r) {
      std::printf("  region %2u: %llu degraded home(s)\n", r,
                  static_cast<unsigned long long>(degraded[r]));
    }
  }

  std::vector<std::string> violations;
  if (stats.counters().homes != total) {
    violations.push_back("ran " + std::to_string(stats.counters().homes) +
                         " homes, expected " + std::to_string(total));
  }
  if (stats.counters().commands == 0) {
    violations.push_back("fleet ran zero commands");
  }
  if (!spec.faults.empty() && stats.counters().faults_injected == 0) {
    violations.push_back(
        "fault plan is non-empty but no home injected a fault");
  }
  if (!spec.fleet_faults.empty() &&
      stats.counters().orchestrated_homes == 0) {
    violations.push_back("fleet plan '" + spec.fleet_faults.name +
                         "' is non-empty but orchestrated zero homes");
  }
  if (tmpl->orchestrator() != nullptr &&
      stats.counters().unrecovered_homes != 0) {
    violations.push_back(
        std::to_string(stats.counters().unrecovered_homes) +
        " home(s) never re-established their cloud session after the last "
        "fault window");
  }
  if (check) {
    const fleet::AggregateStats serial =
        fleet::run_fleet_serial(*tmpl, 0, total);
    if (serial == stats) {
      std::printf("parity: serial fingerprint %llu matches sharded run\n",
                  static_cast<unsigned long long>(serial.fingerprint()));
    } else {
      violations.push_back(
          "serial/sharded parity broken: serial fingerprint " +
          std::to_string(serial.fingerprint()) + " != sharded " +
          std::to_string(stats.fingerprint()));
    }
  }
  if (violations.empty()) {
    std::printf("every fleet invariant holds\n");
    return 0;
  }
  std::printf("%zu fleet invariant violation(s):\n", violations.size());
  for (const std::string& v : violations) {
    std::printf("  - %s\n", v.c_str());
  }
  return kExitError;
}

int cmd_list() {
  for (const faults::FaultPlan& p : workload::chaos_plans()) {
    std::printf("chaos  %-18s %s\n", p.name.c_str(),
                ("chaos-" + p.name + ".scn").c_str());
  }
  for (const workload::TraceScenario& s : workload::trace_scenarios()) {
    std::printf("trace  %-18s trace-%s.scn (seed %llu)\n", s.name.c_str(),
                s.name.c_str(),
                static_cast<unsigned long long>(s.default_seed));
  }
  for (const fleet::FleetFaultPlan& p : fleet::fleet_fault_plans()) {
    std::printf("fleet  %-18s %s\n", p.name.c_str(), p.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Static initializers in static libraries are linker-dropped, so the fleet
  // parity check is wired into the fuzzer explicitly here.
  fleet::register_fuzz_population_check();
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "--help" || cmd == "help") return cmd_help();
    if (cmd == "--version" || cmd == "version") {
      std::printf("vgscn (scenario format v1)\n");
      return 0;
    }
    if (cmd == "list") {
      if (args.size() != 1) return usage();
      return cmd_list();
    }
    if (cmd == "validate") {
      if (args.size() != 2) return usage();
      return cmd_validate(args[1]);
    }
    if (cmd == "describe") {
      if (args.size() != 2) return usage();
      return cmd_describe(args[1]);
    }
    if (cmd == "gen") {
      if (args.size() < 2 || args.size() > 3) return usage();
      return cmd_gen(args[1], args.size() == 3 ? args[2] : std::string{});
    }
    if (cmd == "run") {
      if (args.size() == 3 && args[1] == "--seed") return cmd_run_seed(args[2]);
      if (args.size() == 2 && args[1] != "--seed") return cmd_run_file(args[1]);
      return usage();
    }
    if (cmd == "fuzz") {
      std::uint64_t first = 1;
      std::uint64_t count = 100;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--first" && i + 1 < args.size()) {
          if (!parse_u64(args[++i], first)) return usage();
        } else if (args[i] == "--count" && i + 1 < args.size()) {
          if (!parse_u64(args[++i], count)) return usage();
        } else {
          return usage();
        }
      }
      return cmd_fuzz(first, count);
    }
    if (cmd == "fleet") {
      if (args.size() < 2 || args[1].rfind("--", 0) == 0) return usage();
      std::uint64_t homes = 0;
      std::uint64_t shards = 1;
      std::uint64_t workers = 0;
      std::string plan_name;
      bool region_report = false;
      bool check = false;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--homes" && i + 1 < args.size()) {
          if (!parse_u64(args[++i], homes) || homes == 0) return usage();
        } else if (args[i] == "--shards" && i + 1 < args.size()) {
          if (!parse_u64(args[++i], shards) || shards == 0 ||
              shards > 4096) {
            return usage();
          }
        } else if (args[i] == "--workers" && i + 1 < args.size()) {
          // 0 = auto (the core count); cap matches --shards.
          if (!parse_u64(args[++i], workers) || workers > 4096) {
            return usage();
          }
        } else if (args[i] == "--fault-plan" && i + 1 < args.size()) {
          plan_name = args[++i];
          if (plan_name.empty()) return usage();
        } else if (args[i] == "--region-report") {
          region_report = true;
        } else if (args[i] == "--check") {
          check = true;
        } else {
          return usage();
        }
      }
      return cmd_fleet(args[1], homes, static_cast<unsigned>(shards),
                       static_cast<unsigned>(workers), plan_name,
                       region_report, check);
    }
    return usage();
  } catch (const IoError& e) {
    std::fprintf(stderr, "vgscn: %s\n", e.what());
    return kExitIo;
  } catch (const scenario::ScnError& e) {
    std::fprintf(stderr, "vgscn: %s\n", e.what());
    return kExitInvalid;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgscn: %s\n", e.what());
    return kExitError;
  }
}
