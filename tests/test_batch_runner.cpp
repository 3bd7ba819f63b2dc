#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/BatchRunner.h"
#include "workload/TrialRunner.h"

namespace vg {
namespace {

// ---------------------------------------------------------------------------
// BatchRunner mechanics
// ---------------------------------------------------------------------------

TEST(BatchRunner, MapReturnsResultsInSubmissionOrder) {
  sim::BatchRunner pool{4};
  EXPECT_EQ(pool.worker_count(), 4u);
  const auto out = pool.map<int>(100, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(BatchRunner, RunsEveryJobExactlyOnce) {
  sim::BatchRunner pool{3};
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(BatchRunner, EmptyBatchIsNoop) {
  sim::BatchRunner pool{2};
  pool.run(0, [](std::size_t) { FAIL() << "job ran for empty batch"; });
}

TEST(BatchRunner, PoolIsReusableAcrossBatches) {
  sim::BatchRunner pool{2};
  for (int round = 0; round < 5; ++round) {
    const auto out =
        pool.map<std::size_t>(10, [](std::size_t i) { return i + 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}), 55u);
  }
}

TEST(BatchRunner, PropagatesJobExceptions) {
  sim::BatchRunner pool{2};
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error{"boom"};
                        }),
               std::runtime_error);
  // The pool must still be usable after a failed batch.
  const auto out = pool.map<int>(3, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(BatchRunner, DefaultWorkerCountIsHardwareConcurrency) {
  sim::BatchRunner pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

// ---------------------------------------------------------------------------
// Serial / parallel parity: the same trial matrix must produce bit-identical
// per-trial results through the pool and on a single thread.
// ---------------------------------------------------------------------------

std::vector<workload::TrialSpec> parity_matrix() {
  using workload::WorldConfig;
  std::vector<workload::TrialSpec> specs;
  const struct {
    WorldConfig::TestbedKind kind;
    int owners;
    bool watch;
    std::uint64_t seed;
  } cases[] = {
      {WorldConfig::TestbedKind::kHouse, 2, false, 11},
      {WorldConfig::TestbedKind::kApartment, 2, false, 12},
      {WorldConfig::TestbedKind::kOffice, 1, true, 13},
  };
  for (const auto& c : cases) {
    workload::TrialSpec spec;
    spec.world.testbed = c.kind;
    spec.world.owner_count = c.owners;
    spec.world.use_watch = c.watch;
    spec.world.seed = c.seed;
    spec.experiment.duration = sim::hours(12);
    spec.experiment.episode_mean = sim::minutes(20);
    spec.label = "trial-" + std::to_string(c.seed);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(BatchRunnerParity, ThreeTrialMatrixMatchesSerialBitForBit) {
  const auto specs = parity_matrix();
  const auto serial = workload::run_trials_serial(specs);

  sim::BatchRunner pool{3};  // force real concurrency even on small machines
  const auto batched = workload::run_trials(specs, pool);

  ASSERT_EQ(serial.size(), batched.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& b = batched[i];
    SCOPED_TRACE(s.label);
    EXPECT_EQ(s.label, b.label);

    // Identical confusion matrices...
    EXPECT_EQ(s.confusion.tp, b.confusion.tp);
    EXPECT_EQ(s.confusion.fn, b.confusion.fn);
    EXPECT_EQ(s.confusion.tn, b.confusion.tn);
    EXPECT_EQ(s.confusion.fp, b.confusion.fp);

    // ...identical kernel trajectories...
    EXPECT_EQ(s.executed_events, b.executed_events);
    EXPECT_EQ(s.legit_issued, b.legit_issued);
    EXPECT_EQ(s.malicious_issued, b.malicious_issued);

    // ...and identical per-command outcome vectors.
    ASSERT_EQ(s.outcomes.size(), b.outcomes.size());
    for (std::size_t k = 0; k < s.outcomes.size(); ++k) {
      const auto& so = s.outcomes[k];
      const auto& bo = b.outcomes[k];
      EXPECT_EQ(so.id, bo.id);
      EXPECT_EQ(so.malicious, bo.malicious);
      EXPECT_EQ(so.executed, bo.executed);
      EXPECT_EQ(so.when, bo.when);
      EXPECT_EQ(so.issuer, bo.issuer);
      EXPECT_EQ(so.owner_whereabouts, bo.owner_whereabouts);
    }
  }
}

// Repeated batched runs are also self-identical (no hidden shared state
// between worlds living on different pool threads).
TEST(BatchRunnerParity, RepeatedBatchRunsAreIdentical) {
  const auto specs = parity_matrix();
  sim::BatchRunner pool{2};
  const auto a = workload::run_trials(specs, pool);
  const auto b = workload::run_trials(specs, pool);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].executed_events, b[i].executed_events);
    EXPECT_EQ(a[i].confusion.total(), b[i].confusion.total());
    EXPECT_EQ(a[i].outcomes.size(), b[i].outcomes.size());
  }
}

}  // namespace
}  // namespace vg
