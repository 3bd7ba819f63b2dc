/// Micro-benchmarks (google-benchmark) for the hot paths of the guard box:
/// per-packet classification must be cheap enough for a laptop to keep up
/// with line-rate speaker traffic (§IV-A's "general-purpose computing
/// device is sufficient" claim).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "analysis/Stats.h"
#include "home/Testbed.h"
#include "radio/Propagation.h"
#include "simcore/EventQueue.h"
#include "simcore/Rng.h"
#include "speaker/TrafficPatterns.h"
#include "voiceguard/Recognizer.h"

using namespace vg;

namespace {

void BM_SpikeClassifierCommand(benchmark::State& state) {
  sim::RngRegistry reg{1};
  auto& rng = reg.stream("b");
  std::vector<std::vector<std::uint32_t>> prefixes;
  for (int i = 0; i < 256; ++i) {
    prefixes.push_back(speaker::gen_phase1_prefix(rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard::classify_spike(prefixes[i++ & 255]));
  }
}
BENCHMARK(BM_SpikeClassifierCommand);

void BM_SpikeClassifierResponse(benchmark::State& state) {
  sim::RngRegistry reg{2};
  auto& rng = reg.stream("b");
  std::vector<std::vector<std::uint32_t>> prefixes;
  for (int i = 0; i < 256; ++i) {
    prefixes.push_back(speaker::gen_phase2_prefix(rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard::classify_spike(prefixes[i++ & 255]));
  }
}
BENCHMARK(BM_SpikeClassifierResponse);

void BM_SignatureMatch(benchmark::State& state) {
  for (auto _ : state) {
    guard::SignatureMatcher m{speaker::kAvsConnectionSignature};
    for (std::uint32_t len : speaker::kAvsConnectionSignature) {
      benchmark::DoNotOptimize(m.feed(len));
    }
  }
}
BENCHMARK(BM_SignatureMatch);

void BM_LinearRegression40(benchmark::State& state) {
  std::vector<double> ys(40);
  for (int i = 0; i < 40; ++i) ys[static_cast<std::size_t>(i)] = -0.2 * i - 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::linear_regression_uniform(ys, 0.2));
  }
}
BENCHMARK(BM_LinearRegression40);

// The DFA fed record-by-record (the guard box's actual call shape, as opposed
// to the whole-prefix classify_spike above): response pair, then an
// undecided 7-record spike — the worst case, since nothing decides early.
void BM_SpikeClassifierIncremental(benchmark::State& state) {
  static constexpr std::uint32_t kResponse[] = {500, 77, 33};
  static constexpr std::uint32_t kUndecided[] = {400, 401, 402, 403,
                                                 404, 405, 406};
  for (auto _ : state) {
    guard::SpikeClassifier r;
    for (std::uint32_t len : kResponse) benchmark::DoNotOptimize(r.feed(len));
    guard::SpikeClassifier u;
    for (std::uint32_t len : kUndecided) benchmark::DoNotOptimize(u.feed(len));
    benchmark::DoNotOptimize(u.finalize());
  }
}
BENCHMARK(BM_SpikeClassifierIncremental);

void BM_RssiThroughHousePlan(benchmark::State& state) {
  const home::Testbed tb = home::Testbed::two_floor_house();
  const radio::PathLossParams p{};
  const radio::Vec3 spk = tb.speaker_position(1);
  std::size_t i = 0;
  const auto& locs = tb.locations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        radio::mean_rssi(tb.plan(), p, spk, locs[i++ % locs.size()].pos));
  }
}
BENCHMARK(BM_RssiThroughHousePlan);

// Wall-attenuation walk alone (the expensive core of mean_rssi), per testbed:
// the grid index's win scales with wall count, so all three plans are pinned.
void BM_WallAttenuation(benchmark::State& state, const home::Testbed& tb) {
  const radio::Vec3 spk = tb.speaker_position(1);
  std::size_t i = 0;
  const auto& locs = tb.locations();
  for (auto _ : state) {
    const auto& loc = locs[i++ % locs.size()];
    benchmark::DoNotOptimize(tb.plan().wall_attenuation(spk, loc.pos));
  }
}
BENCHMARK_CAPTURE(BM_WallAttenuation, house, home::Testbed::two_floor_house());
BENCHMARK_CAPTURE(BM_WallAttenuation, apartment, home::Testbed::apartment());
BENCHMARK_CAPTURE(BM_WallAttenuation, office, home::Testbed::office());

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    q.schedule(sim::TimePoint{t += 10}, [] {});
    q.schedule(sim::TimePoint{t + 5}, [] {});
    q.pop().cb();
    q.pop().cb();
  }
}
BENCHMARK(BM_EventQueueScheduleFire);

// What a fleet home pays per stream it creates: most streams are drawn only
// a handful of times, so creation plus the first draw dominates their cost.
void BM_RngFreshStreamFirstDraw(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::RngRegistry registry{seed++};
    benchmark::DoNotOptimize(
        registry.stream("net.link.jitter").uniform_int(-2'000'000, 2'000'000));
  }
}
BENCHMARK(BM_RngFreshStreamFirstDraw);

// A draw from a stream already held (the per-packet jitter draw).
void BM_RngSteadyDraw(benchmark::State& state) {
  sim::RngRegistry registry{1};
  sim::Rng& rng = registry.stream("net.link.jitter");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(-2'000'000, 2'000'000));
  }
}
BENCHMARK(BM_RngSteadyDraw);

// Captures per-benchmark adjusted real time while still printing the normal
// console table, then emits one grep-able BENCH_JSON summary line (repo
// convention, see bench_throughput).
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      results_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void print_json_line() const {
    std::string fields;
    for (const auto& [name, ns] : results_) {
      if (!fields.empty()) fields += ',';
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"%s\":%.1f", name.c_str(), ns);
      fields += buf;
    }
    std::printf("\nBENCH_JSON {\"bench\":\"micro_components\",\"unit\":\"ns\","
                "%s}\n",
                fields.c_str());
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.print_json_line();
  benchmark::Shutdown();
  return 0;
}
