#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/EventQueue.h"
#include "simcore/Log.h"
#include "simcore/Rng.h"
#include "simcore/Simulation.h"
#include "simcore/Time.h"

namespace vg::sim {
namespace {

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ((seconds(1) + milliseconds(500)).millis(), 1500.0);
  EXPECT_EQ((seconds(3) - seconds(1)).seconds(), 2.0);
  EXPECT_EQ((milliseconds(10) * 3).millis(), 30.0);
  EXPECT_EQ((seconds(10) / 4).millis(), 2500.0);
  EXPECT_LT(seconds(1), seconds(2));
}

TEST(Time, FromSecondsRoundtrip) {
  EXPECT_NEAR(from_seconds(1.622).seconds(), 1.622, 1e-9);
  EXPECT_EQ(from_seconds(0.001).ns(), 1'000'000);
}

TEST(Time, TimePointArithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + seconds(5);
  EXPECT_EQ((t1 - t0).seconds(), 5.0);
  EXPECT_EQ((t1 - seconds(2)).seconds(), 3.0);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(TimePoint{} + hours(1) + minutes(2) + seconds(3) +
                        milliseconds(45)),
            "1:02:03.045");
  EXPECT_EQ(format_duration(milliseconds(40)), "40.000 ms");
  EXPECT_EQ(format_duration(from_seconds(1.622)), "1.622 s");
}

TEST(Time, ScaledRoundsTowardZero) {
  EXPECT_EQ(seconds(10).scaled(0.15).ns(), 1'500'000'000);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  RngRegistry a{42}, b{42}, c{43};
  EXPECT_EQ(a.stream("x").uniform_int(0, 1'000'000),
            b.stream("x").uniform_int(0, 1'000'000));
  // Different seed: overwhelmingly likely to differ.
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    any_diff |= a.stream("y").uniform_int(0, 1'000'000) !=
                c.stream("y").uniform_int(0, 1'000'000);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, StreamsAreIndependentByName) {
  RngRegistry a{7};
  // Drawing from stream "p" must not change what "q" produces.
  RngRegistry b{7};
  (void)a.stream("p").uniform();
  (void)a.stream("p").uniform();
  EXPECT_EQ(a.stream("q").uniform_int(0, 1'000'000),
            b.stream("q").uniform_int(0, 1'000'000));
}

TEST(Rng, UniformBounds) {
  RngRegistry r{1};
  auto& s = r.stream("u");
  for (int i = 0; i < 1000; ++i) {
    const double v = s.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const auto k = s.uniform_int(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  RngRegistry r{1};
  auto& s = r.stream("w");
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    counts[s.weighted_index({0.0, 1.0, 9.0})]++;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 4);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  RngRegistry r{1};
  EXPECT_THROW(r.stream("w").weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(r.stream("w").weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, IndexRejectsEmptyRange) {
  RngRegistry r{1};
  auto& s = r.stream("i");
  EXPECT_THROW(s.index(0), std::invalid_argument);
  EXPECT_THROW(s.pick(std::vector<int>{}), std::invalid_argument);
  EXPECT_EQ(s.index(1), 0u);
}

// Literals captured from the standard-engine implementation: a change to the
// name hashing, the seeding or the engine moves every stream of every run.
TEST(Rng, SeedingIsPinned) {
  struct Pinned {
    std::uint64_t root;
    const char* name;
    std::uint64_t hash;
    std::int64_t draws[8];  // full-range uniform_int, i.e. raw engine words
  };
  const Pinned pinned[] = {
      {1, "net.link.jitter", 0xA25631661C1AFCA0ULL,
       {-8094904198104649194, 4779543893311800747, 3825173355237605343,
        -8263916562029495929, -4287872781103835532, -4695662935361127912,
        -1871513436608380851, -2235707404743677216}},
      {42, "radio.rssi.phone-1", 0x8EBD0C61777E4356ULL,
       {8564957467154827874, 7662097070644676798, 5084928499109099811,
        3022639678880725584, -3359514425125876784, 234986302664052573,
        4318844526805783649, -8028839921058622160}},
      {~0ULL, "speaker.echo.traffic", 0x3E67D2EA71F0D470ULL,
       {-2681128736890115, -5382641244497784994, -1716024520352071640,
        2346065946068491496, -3174784522945735468, -527674891125042245,
        8683862115501262942, -7538859949677799382}},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.name);
    EXPECT_EQ(RngRegistry::hash_name(p.root, p.name), p.hash);
    RngRegistry r{p.root};
    Rng& s = r.stream(p.name);
    for (std::int64_t want : p.draws) {
      EXPECT_EQ(s.uniform_int(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max()),
                want);
    }
  }
}

// Components hold the Rng& a registry hands out (RngHandle), so the
// reference must survive the registry growing and rehashing.
TEST(RngRegistry, StreamReferencesSurviveGrowth) {
  RngRegistry r{3};
  Rng& held = r.stream("held");
  const double first = held.uniform();
  for (int i = 0; i < 1000; ++i) (void)r.stream("s" + std::to_string(i)).uniform();
  EXPECT_EQ(&r.stream("held"), &held);

  RngRegistry fresh{3};
  Rng& ref = fresh.stream("held");
  EXPECT_EQ(ref.uniform(), first);
  EXPECT_EQ(held.uniform(), ref.uniform());
}

// Handles resolve streams lazily, at each component's first draw, so the
// order in which streams come into existence varies run to run; it must not
// change what any stream draws.
TEST(RngRegistry, CreationOrderDoesNotChangeDraws) {
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("stream." + std::to_string(i));
  RngRegistry forward{9}, backward{9};
  for (const auto& n : names) (void)forward.stream(n);
  for (auto it = names.rbegin(); it != names.rend(); ++it) (void)backward.stream(*it);
  for (const auto& n : names) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(forward.stream(n).uniform_int(0, 1'000'000'000),
                backward.stream(n).uniform_int(0, 1'000'000'000))
          << n;
    }
  }
}

TEST(RngHandle, ResolvesOnceToTheRegistryStream) {
  RngRegistry r{5};
  RngHandle literal;
  RngHandle built;
  int names_built = 0;
  auto make_name = [&names_built] {
    ++names_built;
    return std::string{"radio.rssi."} + "phone-1";
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(&literal.get(r, "net.link.jitter"), &r.stream("net.link.jitter"));
    EXPECT_EQ(&built.get(r, make_name), &r.stream("radio.rssi.phone-1"));
  }
  EXPECT_EQ(names_built, 1);
}

TEST(Rng, ChanceExtremes) {
  RngRegistry r{1};
  auto& s = r.stream("c");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.chance(0.0));
    EXPECT_TRUE(s.chance(1.0));
  }
}

TEST(Rng, ShuffleKeepsElements) {
  RngRegistry r{1};
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  r.stream("s").shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{30}, [&] { order.push_back(3); });
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.schedule(TimePoint{20}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimePoint{100}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.schedule(TimePoint{10}, [&] { ++fired; });
  q.schedule(TimePoint{20}, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventId id = q.schedule(TimePoint{10}, [] {});
  q.schedule(TimePoint{20}, [] {});
  q.pop().cb();
  q.cancel(id);  // already fired
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), TimePoint{20});
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  EventId id = q.schedule(TimePoint{10}, [] {});
  q.schedule(TimePoint{20}, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  TimePoint seen;
  sim.after(seconds(5), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, TimePoint{} + seconds(5));
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.after(seconds(1), [&] { ++fired; });
  sim.after(seconds(10), [&] { ++fired; });
  sim.run_until(TimePoint{} + seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint{} + seconds(5));
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsScheduledExactlyAtHorizonRun) {
  Simulation sim;
  bool fired = false;
  sim.after(seconds(5), [&] { fired = true; });
  sim.run_until(TimePoint{} + seconds(5));
  EXPECT_TRUE(fired);
}

TEST(Simulation, SchedulingIntoPastThrows) {
  Simulation sim;
  sim.after(seconds(1), [] {});
  sim.run_all();
  EXPECT_THROW(sim.at(TimePoint{} + milliseconds(1), [] {}), std::logic_error);
}

TEST(Simulation, NestedSchedulingWorks) {
  Simulation sim;
  std::vector<double> times;
  sim.after(seconds(1), [&] {
    times.push_back(sim.now().seconds());
    sim.after(seconds(1), [&] { times.push_back(sim.now().seconds()); });
  });
  sim.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulation, CancelTimer) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.after(seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(Logger, CaptureSinkReceivesRecords) {
  Simulation sim;
  std::vector<LogRecord> records;
  sim.logger().add_sink(LogLevel::kInfo, capture_sink(records));
  sim.after(seconds(2), [&] { sim.log(LogLevel::kInfo, "test", "hello"); });
  sim.log(LogLevel::kDebug, "test", "filtered");
  sim.run_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "test");
  EXPECT_EQ(records[0].message, "hello");
  EXPECT_EQ(records[0].time, TimePoint{} + seconds(2));
}

TEST(Logger, LevelFiltering) {
  Logger log;
  std::vector<LogRecord> warns, all;
  log.add_sink(LogLevel::kWarn, capture_sink(warns));
  log.add_sink(LogLevel::kTrace, capture_sink(all));
  log.log(TimePoint{}, LogLevel::kInfo, "c", "info");
  log.log(TimePoint{}, LogLevel::kError, "c", "err");
  EXPECT_EQ(warns.size(), 1u);
  EXPECT_EQ(all.size(), 2u);
}

}  // namespace
}  // namespace vg::sim
