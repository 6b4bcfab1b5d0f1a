// ParallelRunner: sharded sweeps must be indistinguishable from serial ones
// — result[i] is bit-for-bit the serial run(specs[i]) — and the
// pool must cover every index exactly once and surface worker exceptions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/parallel_runner.h"
#include "util/parallel.h"

namespace wlsync::analysis {
namespace {

RunSpec cheap_spec() {
  RunSpec spec;
  spec.params = core::make_params(5, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.rounds = 5;
  return spec;
}

RunSpec startup_spec(std::uint64_t seed) {
  RunSpec spec;
  spec.mode = RunMode::kStartup;
  spec.params = core::make_params(5, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 12;
  spec.initial_clock_spread = 1.0;
  spec.seed = seed;
  return spec;
}

RunSpec reintegration_spec(std::uint64_t seed) {
  RunSpec spec;
  spec.mode = RunMode::kReintegration;
  spec.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.crash_at = 25.0;
  spec.wake_at = 95.0;
  spec.rounds = 30;
  spec.seed = seed;
  return spec;
}

TEST(ParallelRunner, MatchesSerialBitForBit) {
  std::vector<RunSpec> specs = seed_sweep(cheap_spec(), 100, 12);
  specs.push_back(startup_spec(3));
  specs.push_back(reintegration_spec(3));
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = ParallelRunner(4).run_adaptive(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], sharded[i])) << "trial " << i;
  }
  // Distinct seeds really are distinct trials.
  EXPECT_FALSE(results_identical(serial[0], serial[1]));
}

TEST(ParallelRunner, IdentityComparesModePayloads) {
  // The flat maintenance fields stay at their defaults in both modes, so
  // only the payload physics can tell two such runs apart.
  const RunResult startup = run(startup_spec(1));
  EXPECT_TRUE(results_identical(startup, run(startup_spec(1))));
  EXPECT_FALSE(results_identical(startup, run(startup_spec(2))));
  const RunResult rejoin = run(reintegration_spec(1));
  EXPECT_TRUE(results_identical(rejoin, run(reintegration_spec(1))));
  EXPECT_FALSE(results_identical(rejoin, run(reintegration_spec(2))));
  EXPECT_FALSE(results_identical(startup, rejoin));
}

TEST(ParallelRunner, MatchesSerialUnderBothSchedulers) {
  RunSpec base = cheap_spec();
  base.scheduler = engine::SchedulerKind::kCalendar;
  const std::vector<RunSpec> specs = seed_sweep(base, 7, 6);
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = ParallelRunner(3).run_adaptive(specs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], sharded[i])) << "trial " << i;
  }
}

TEST(ParallelRunner, PdesAutoTuneDeclinesInsideWorkers) {
  // A default-pdes_workers LM trial on the n = 128 mesh is one the
  // auto-tuner shards when run alone; inside a sweep worker it must stay
  // serial, since the sweep already claims the cores.
  RunSpec base;
  base.params = core::make_params(128, 42, 1e-5, 0.01, 1e-3, 10.0);
  base.algo = Algo::kLM;
  base.rounds = 4;
  const std::vector<RunSpec> specs = seed_sweep(base, 21, 4);
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = ParallelRunner(4).run_adaptive(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GE(serial[i].pdes_workers_used, 2) << "trial " << i;
    EXPECT_EQ(sharded[i].pdes_workers_used, 0) << "trial " << i;
    EXPECT_EQ(sharded[i].pdes_refusal,
              "auto-tune declined: inside a ParallelRunner worker")
        << "trial " << i;
    EXPECT_TRUE(results_identical(serial[i], sharded[i])) << "trial " << i;
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& hit : hits) hit = 0;
  util::parallel_for(kCount, 8, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, WorkStealingCoversSkewedCosts) {
  // One chunk holds all the expensive work; the other workers must steal
  // it rather than idle, and every index still runs exactly once.
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& hit : hits) hit = 0;
  util::parallel_for(kCount, 4, [&](std::size_t i) {
    if (i < kCount / 4) {
      // The first worker's own chunk is pathologically slow.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ++hits[i];
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  EXPECT_THROW(util::parallel_for(64, 4,
                                  [](std::size_t i) {
                                    if (i == 13) {
                                      throw std::runtime_error("trial 13");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, MarksWorkersAndRunsInlineWhenSerial) {
  // Pool threads carry the in-worker flag; a one-thread call runs inline on
  // the caller, whose flag WorkerScope sets and restores.
  std::vector<std::atomic<int>> flagged(16);
  for (auto& flag : flagged) flag = 0;
  util::parallel_for(16, 4, [&](std::size_t i) {
    flagged[i] = util::in_worker() ? 1 : 0;
  });
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(flagged[i], 1) << i;
  EXPECT_FALSE(util::in_worker());
  const std::thread::id caller = std::this_thread::get_id();
  util::parallel_for(3, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(util::in_worker());
  });
  {
    const util::WorkerScope scope;
    EXPECT_TRUE(util::in_worker());
  }
  EXPECT_FALSE(util::in_worker());
}

TEST(ParallelRunner, HandlesEmptyAndDefaults) {
  EXPECT_TRUE(ParallelRunner(2).run_adaptive({}).empty());
  EXPECT_GE(ParallelRunner(0).threads(), 1);  // hardware default
  util::parallel_for(0, 0, [](std::size_t) { FAIL(); });
}

// ------------------------------------------------------------------------
// Self-balancing: cost-aware chunks + telemetry-guided stealing are
// scheduling-only — results stay bit-identical to a serial sweep on skewed
// grids.

std::vector<RunSpec> skewed_grid() {
  // A grid deliberately mixing cheap and expensive trials: small and
  // mid-size n, mesh and sparse graphs, with and without the gradient
  // pair scan.
  std::vector<RunSpec> specs;
  for (const std::int32_t n : {4, 10, 25}) {
    RunSpec spec;
    spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
    spec.rounds = 5;
    if (n == 25) {
      spec.topology.kind = net::TopologyKind::kKRegular;
      spec.topology.degree = 6;
      spec.measure_gradient = true;
    }
    const std::vector<RunSpec> seeded = seed_sweep(spec, 40, 4);
    specs.insert(specs.end(), seeded.begin(), seeded.end());
  }
  return specs;
}

TEST(ParallelRunner, AdaptiveIsThreadCountInvariant) {
  const std::vector<RunSpec> specs = skewed_grid();
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  for (const int threads : {4, 8}) {
    const std::vector<RunResult> wide =
        ParallelRunner(threads).run_adaptive(specs);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(results_identical(serial[i], wide[i]))
          << threads << " threads, trial " << i;
    }
  }
}

TEST(ParallelRunner, AdaptiveStreamsEveryResultExactlyOnce) {
  const std::vector<RunSpec> specs = seed_sweep(cheap_spec(), 300, 9);
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);

  std::vector<int> seen(specs.size(), 0);
  std::vector<RunResult> streamed_copies(specs.size());
  const std::vector<RunResult> streamed = ParallelRunner(4).run_adaptive(
      specs, [&](std::size_t i, const RunResult& r) {
        // Serialized by the runner: plain writes are safe here.
        ++seen[i];
        streamed_copies[i] = r;
        EXPECT_GT(r.wall_seconds, 0.0);
      });

  ASSERT_EQ(streamed.size(), serial.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << i;
    EXPECT_TRUE(results_identical(serial[i], streamed[i])) << i;
    EXPECT_TRUE(results_identical(serial[i], streamed_copies[i])) << i;
  }
}

TEST(ParallelRunner, AdaptivePropagatesWorkerExceptions) {
  std::vector<RunSpec> specs = seed_sweep(cheap_spec(), 3, 6);
  specs[4].params.n = -1;  // invalid: Experiment construction throws
  EXPECT_THROW((void)ParallelRunner(3).run_adaptive(specs), std::exception);
}

TEST(ParallelRunner, CostPriorOrdersObviousCases) {
  RunSpec small = cheap_spec();
  RunSpec large = cheap_spec();
  large.params = core::make_params(512, 170, 1e-5, 0.01, 1e-3, 10.0);
  EXPECT_GT(ParallelRunner::estimate_cost(large),
            ParallelRunner::estimate_cost(small));
  RunSpec sparse = large;
  sparse.topology.kind = net::TopologyKind::kKRegular;
  sparse.topology.degree = 16;
  EXPECT_LT(ParallelRunner::estimate_cost(sparse),
            ParallelRunner::estimate_cost(large));
  RunSpec gradient = sparse;
  gradient.measure_gradient = true;
  EXPECT_GT(ParallelRunner::estimate_cost(gradient),
            ParallelRunner::estimate_cost(sparse));
}

TEST(SeedSweep, AssignsSequentialSeeds) {
  const std::vector<RunSpec> specs = seed_sweep(cheap_spec(), 40, 3);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].seed, 40u);
  EXPECT_EQ(specs[1].seed, 41u);
  EXPECT_EQ(specs[2].seed, 42u);
}

}  // namespace
}  // namespace wlsync::analysis
