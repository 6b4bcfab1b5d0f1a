// ParallelRunner: sharded sweeps must be indistinguishable from serial ones
// — result[i] is bit-for-bit the serial run(specs[i]) — and the
// pool must cover every index exactly once and surface worker exceptions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
  spec.algo = Algo::kStartup;
  spec.params = core::make_params(5, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 12;
  spec.initial_clock_spread = 1.0;
  spec.seed = seed;
  return spec;
}

RunSpec rejoin_spec(std::uint64_t seed) {
  RunSpec spec;
  spec.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.dynamics.leave(25.0, 0).rejoin(95.0, 0);
  spec.rounds = 30;
  spec.seed = seed;
  return spec;
}

TEST(ParallelRunner, MatchesSerialBitForBit) {
  std::vector<RunSpec> specs = seed_sweep(cheap_spec(), 100, 12);
  specs.push_back(startup_spec(3));
  specs.push_back(rejoin_spec(3));
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
  // Start-up and rejoin runs carry a payload beside the shared fields;
  // identity must separate seeds of each and the two kinds of run.
  const RunResult startup = run(startup_spec(1));
  EXPECT_TRUE(results_identical(startup, run(startup_spec(1))));
  EXPECT_FALSE(results_identical(startup, run(startup_spec(2))));
  const RunResult rejoin = run(rejoin_spec(1));
  EXPECT_TRUE(results_identical(rejoin, run(rejoin_spec(1))));
  EXPECT_FALSE(results_identical(rejoin, run(rejoin_spec(2))));
  EXPECT_FALSE(results_identical(startup, rejoin));
}

// One step away from any value, per member type.
void change(bool& x) { x = !x; }
void change(double& x) { x += 1.0; }
template <typename Int>
void change(Int& x) {
  ++x;
}
template <typename T>
void change(std::vector<T>& v) {
  v.push_back(T{1});
}

TEST(ParallelRunner, IdentitySeesEveryPhysicsFieldAndNoTelemetry) {
  RunSpec maintenance = cheap_spec();
  maintenance.measure_gradient = true;
  const RunResult base_maintenance = run(maintenance);
  const RunResult base_startup = run(startup_spec(1));
  const RunResult base_rejoin = run(rejoin_spec(1));
  ASSERT_TRUE(base_maintenance.gradient.measured());
  ASSERT_TRUE(base_startup.startup.has_value());
  ASSERT_EQ(base_rejoin.rejoins.size(), 1u);

  // Every telemetry member off its default: identity must not notice.
  RunTelemetry busy;
  busy.wall_seconds = 1.0;
  busy.engine_seconds = 1.0;
  busy.observe.enabled = true;
  busy.observe.peak_history_bytes = 1;
  busy.fastpath_engaged = true;
  busy.fastpath_fast_count = 1;
  busy.fastpath_exchanges = 1;
  busy.fastpath_rearms = 1;
  busy.fastpath_region_events = 1;
  busy.fastpath_threads = 1;
  busy.pdes_workers_used = 1;
  busy.fastpath_refusal = "refused";
  busy.pdes_refusal = "refused";
  busy.pdes_epochs = 1;
  busy.pdes_stalls = 1;
  busy.queue_ops = 1;
  busy.peak_pending = 1;
  busy.fanout_direct = 1;
  busy.history_bytes = 1;

  using Perturbation = std::pair<const char*, std::function<void(RunResult&)>>;
#define PHYSICS_FIELD(path) \
  Perturbation { #path, [](RunResult& r) { change(r.path); } }
  const std::vector<Perturbation> common = {
      PHYSICS_FIELD(honest),
      PHYSICS_FIELD(gamma_bound),
      PHYSICS_FIELD(gamma_measured),
      PHYSICS_FIELD(adj_bound),
      PHYSICS_FIELD(max_abs_adj),
      PHYSICS_FIELD(begin_spread),
      PHYSICS_FIELD(skew_at_round),
      PHYSICS_FIELD(validity.holds),
      PHYSICS_FIELD(validity.max_upper_violation),
      PHYSICS_FIELD(validity.max_lower_violation),
      PHYSICS_FIELD(validity.measured_hi_slope),
      PHYSICS_FIELD(validity.measured_lo_slope),
      PHYSICS_FIELD(gradient.distances),
      PHYSICS_FIELD(gradient.max_skew),
      PHYSICS_FIELD(gradient.mean_skew),
      PHYSICS_FIELD(gradient.p99_skew),
      PHYSICS_FIELD(gradient.frontier),
      PHYSICS_FIELD(gradient.pair_count),
      PHYSICS_FIELD(gradient.slope),
      PHYSICS_FIELD(gradient.diameter),
      PHYSICS_FIELD(final_skew),
      PHYSICS_FIELD(diverged),
      PHYSICS_FIELD(messages),
      PHYSICS_FIELD(nic_dropped),
      PHYSICS_FIELD(starved_updates),
      PHYSICS_FIELD(nic.arrivals),
      PHYSICS_FIELD(nic.served),
      PHYSICS_FIELD(nic.dropped),
      PHYSICS_FIELD(nic.service_events),
      PHYSICS_FIELD(nic.worst_dropped),
      PHYSICS_FIELD(nic.peak_queue),
      PHYSICS_FIELD(nic.max_burst),
      PHYSICS_FIELD(tmin0),
      PHYSICS_FIELD(tmax0),
      PHYSICS_FIELD(t_end),
      PHYSICS_FIELD(completed_rounds),
      PHYSICS_FIELD(stabilized_round),
      PHYSICS_FIELD(stabilization_time),
      PHYSICS_FIELD(dynamics_applied),
      PHYSICS_FIELD(rejoins),
  };
  const std::vector<Perturbation> startup = {
      PHYSICS_FIELD(startup->handoff_done),
      PHYSICS_FIELD(startup->post_handoff_skew),
  };
  const std::vector<Perturbation> rejoin = {
      PHYSICS_FIELD(rejoins[0].pid),
      PHYSICS_FIELD(rejoins[0].join_time),
      PHYSICS_FIELD(rejoins[0].join_round),
      PHYSICS_FIELD(rejoins[0].spread_with_joiner),
      PHYSICS_FIELD(rejoins[0].skew_after),
  };
#undef PHYSICS_FIELD

  const auto check = [&](const RunResult& base, const char* mode,
                         const std::vector<Perturbation>& payload) {
    ASSERT_TRUE(results_identical(base, base)) << mode;
    RunResult relabeled = base;
    static_cast<RunTelemetry&>(relabeled) = busy;
    EXPECT_TRUE(results_identical(relabeled, base)) << mode;
    for (const auto* fields : {&common, &payload}) {
      for (const auto& [name, perturb] : *fields) {
        RunResult moved = base;
        perturb(moved);
        EXPECT_FALSE(results_identical(moved, base)) << mode << ": " << name;
      }
    }
    // Engaging or dropping a payload is a physics change too.
    RunResult toggled = base;
    if (toggled.startup) {
      toggled.startup.reset();
    } else {
      toggled.startup.emplace();
    }
    EXPECT_FALSE(results_identical(toggled, base)) << mode << ": startup";
  };
  check(base_maintenance, "maintenance", {});
  check(base_startup, "startup", startup);
  check(base_rejoin, "rejoin", rejoin);
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

RunSpec lm_mesh_spec() {
  // A default-pdes_workers LM trial on the n = 128 mesh: one the auto-tuner
  // shards (k = 2) when it runs alone on two or more cores.
  RunSpec spec;
  spec.params = core::make_params(128, 42, 1e-5, 0.01, 1e-3, 10.0);
  spec.algo = Algo::kLM;
  spec.rounds = 4;
  return spec;
}

TEST(ParallelRunner, PdesAutoTuneDeclinesInsideWorkers) {
  // Inside a sweep the trial stays serial at every thread count, the
  // inline one-thread sweep included: the sweep already claims the cores,
  // and the engine must not depend on how many it claims.
  const std::vector<RunSpec> specs = seed_sweep(lm_mesh_spec(), 21, 4);
  for (const int threads : {1, 4}) {
    const std::vector<RunResult> swept =
        ParallelRunner(threads).run_adaptive(specs);
    ASSERT_EQ(swept.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const RunResult alone = run(specs[i]);
      if (util::hardware_threads() >= 2) {
        EXPECT_GE(alone.pdes_workers_used, 2) << "trial " << i;
      }
      EXPECT_EQ(swept[i].pdes_workers_used, 0)
          << threads << " threads, trial " << i;
      EXPECT_EQ(swept[i].pdes_refusal,
                "auto-tune declined: inside a ParallelRunner worker")
          << threads << " threads, trial " << i;
      EXPECT_TRUE(results_identical(alone, swept[i]))
          << threads << " threads, trial " << i;
    }
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
  // pair scan, plus a trial the PDES auto-tuner shards when run alone.
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
  specs.push_back(lm_mesh_spec());
  return specs;
}

/// Every telemetry member but the two wall clocks.
RunTelemetry telemetry_sans_wall(const RunResult& result) {
  RunTelemetry telemetry = result;
  telemetry.wall_seconds = 0.0;
  telemetry.engine_seconds = 0.0;
  return telemetry;
}

TEST(ParallelRunner, AdaptiveIsThreadCountInvariant) {
  // Bit-identical physics and the same engine choices (pdes_refusal,
  // pdes_workers_used, fastpath_threads, ...) at any thread count and in
  // any trial order.
  const std::vector<RunSpec> specs = skewed_grid();
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  const auto expect_same = [&](const std::vector<RunResult>& other,
                               bool reversed, const std::string& what) {
    ASSERT_EQ(serial.size(), other.size()) << what;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const RunResult& mine = other[reversed ? other.size() - 1 - i : i];
      EXPECT_TRUE(results_identical(serial[i], mine)) << what << ", trial " << i;
      EXPECT_TRUE(telemetry_sans_wall(serial[i]) == telemetry_sans_wall(mine))
          << what << ", trial " << i;
    }
  };
  for (const int threads : {4, 8}) {
    expect_same(ParallelRunner(threads).run_adaptive(specs), false,
                std::to_string(threads) + " threads");
  }
  const std::vector<RunSpec> backwards(specs.rbegin(), specs.rend());
  expect_same(ParallelRunner(4).run_adaptive(backwards), true,
              "reversed, 4 threads");
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
