/// vgbench: the benchmark program for the VoiceGuard simulator.
///
/// Usage: vgbench --workload NAME --seed N --seconds S --trace 0|1
///
/// One run sets the workload up from the seed, then runs jobs back to back
/// for S seconds of host time, timing each one and checking every job's
/// outputs outside the timed region; kSetupRepeats setups are spread over
/// the run and their median is setup_s.
/// It ends with one cross-check of job 0 against an independent path through
/// the simulator. The last line of standard output is a JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// with the end-to-end metrics under --trace 0 and the per-layer metrics
/// under --trace 1. Progress and diagnostics go to standard error. Exit code
/// 0 when every output was correct, 1 otherwise, 2 on a usage error.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

// Global allocation counting: every operator new in the process (simulator,
// standard library) bumps these, so allocations per job is a deterministic
// work counter for the allocator layer.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;
using vgbench::Counters;
using vgbench::StageTimes;

/// Setups per run; their median is setup_s.
constexpr std::size_t kSetupRepeats = 9;

/// Failed jobs whose diagnostics are printed; the rest are only counted.
constexpr std::uint64_t kMaxReported = 5;

/// Other tenants of the host contend for the physical cores behind this
/// machine's CPUs, and which CPU is slowed changes every few seconds, so a
/// thread that stays on one CPU can spend a whole run slowed by half again.
/// Moving each job (and setup) to the next CPU the process may use spreads
/// the jobs over all of them instead.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_{0};
};

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
};

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc{} && p == end && p != s;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      a.seed = n;
      have[1] = true;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 &&
               n <= 600) {
      a.seconds = static_cast<double>(n);
      have[2] = true;
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      a.trace = n == 1;
      have[3] = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

/// Linear interpolation between order statistics, q in [0, 1].
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// The process's peak resident set (VmHWM). getrusage's ru_maxrss would not
/// do: it survives exec, so it starts at the launching interpreter's size.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Shortest decimal form that reads back as the same double.
std::string number(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string to_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                    const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + std::string{metrics[i].name} + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vgbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::unique_ptr<vgbench::Workload> w =
      vgbench::make_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr,
                 "vgbench: unknown workload '%s' (fleet-commands, fleet-idle, "
                 "protocol-7day, replay-corpus)\n",
                 args.workload.c_str());
    return 2;
  }

  try {
    CpuRotation cpus;
    std::vector<double> setup_s;
    const auto timed_setup = [&] {
      cpus.next();
      const auto t0 = Clock::now();
      w->setup(args.seed);
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    };
    timed_setup();

    std::vector<double> job_ms, build_ms, run_ms, run_ns_per_item;
    Counters counters;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    std::uint64_t failed = 0;
    double measured = 0;
    const auto start = Clock::now();
    for (std::uint64_t k = 0; measured < args.seconds; ++k) {
      // Setups are spread over the run rather than done back to back, so
      // their median samples the same host conditions as the jobs do.
      if (measured >= args.seconds * static_cast<double>(setup_s.size()) /
                          kSetupRepeats) {
        timed_setup();
      }
      cpus.next();
      StageTimes t;
      const std::uint64_t items0 = counters.events + counters.records;
      const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      const std::uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
      const auto t0 = Clock::now();
      w->run_job(k, t, counters);
      const auto t1 = Clock::now();
      allocs += g_allocs.load(std::memory_order_relaxed) - a0;
      alloc_bytes += g_alloc_bytes.load(std::memory_order_relaxed) - b0;
      job_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      build_ms.push_back(t.build_s * 1e3);
      run_ms.push_back(t.run_s * 1e3);
      const std::uint64_t items = counters.events + counters.records - items0;
      run_ns_per_item.push_back(
          items != 0 ? t.run_s * 1e9 / static_cast<double>(items) : 0.0);

      if (const std::string why = w->check_job(k); !why.empty()) {
        if (++failed <= kMaxReported) {
          std::fprintf(stderr, "vgbench: job %llu is wrong: %s\n",
                       static_cast<unsigned long long>(k), why.c_str());
        }
      }
      measured = std::chrono::duration<double>(Clock::now() - start).count();
    }
    while (setup_s.size() < kSetupRepeats) timed_setup();

    const std::string why = w->verify();
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "vgbench: cross-check failed: %s\n", why.c_str());
    }
    const std::uint64_t attempted = job_ms.size() + 1;
    const auto jobs = static_cast<double>(job_ms.size());
    const auto homes =
        static_cast<double>(std::max<std::uint64_t>(counters.homes, 1));
    const auto per_job = [&](std::uint64_t n) {
      return static_cast<double>(n) / jobs;
    };
    const auto per_home = [&](std::uint64_t n) {
      return static_cast<double>(n) / homes;
    };

    // Job times are reported at their 10th percentile: this host runs
    // through phases of contention from other tenants that slow every job by
    // up to half again, and the low percentile is the figure those phases
    // leave alone (see README.md).
    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"job_ms_p10", quantile(job_ms, 0.1), "ms"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"},
          {"setup_s", quantile(setup_s, 0.5), "s"},
      };
    } else {
      metrics = {
          {"build_ms_p10", quantile(build_ms, 0.1), "ms"},
          {"run_ms_p10", quantile(run_ms, 0.1), "ms"},
          {"run_ns_per_item_p10", quantile(run_ns_per_item, 0.1), "ns"},
          {"events_per_job", per_job(counters.events), "count"},
          {"allocs_per_job", per_job(allocs), "count"},
          {"alloc_kib_per_job", per_job(alloc_bytes) / 1024.0, "KiB"},
          {"spikes_per_job", per_job(counters.spikes), "count"},
          {"fcm_pushes_per_job", per_job(counters.fcm_pushes), "count"},
          {"wakes_per_home", per_home(counters.wakes), "count"},
          {"epochs_skipped_per_home", per_home(counters.epochs_skipped),
           "count"},
          {"hibernations_per_home", per_home(counters.hibernations), "count"},
          {"trim_kib_per_home", per_home(counters.trim_bytes) / 1024.0, "KiB"},
      };
    }
    std::fprintf(stderr,
                 "vgbench: %s seed %llu: %zu jobs in %.2f s, %llu failed; "
                 "job ms min %.3f p50 %.3f p90 %.3f max %.3f; setup s "
                 "min %.4f p50 %.4f max %.4f\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), job_ms.size(),
                 measured, static_cast<unsigned long long>(failed),
                 quantile(job_ms, 0), quantile(job_ms, 0.5),
                 quantile(job_ms, 0.9), quantile(job_ms, 1),
                 quantile(setup_s, 0), quantile(setup_s, 0.5),
                 quantile(setup_s, 1));
    std::printf("%s\n", to_json(failed == 0, attempted, failed, metrics).c_str());
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgbench: %s\n", e.what());
    return 1;
  }
}
