// Network layer: exchange-graph construction invariants, bit-identity of
// the batched fan-out engine against the seed's per-recipient scheduling
// (the guarantee that makes batching a pure performance knob), sparse-graph
// determinism under the parallel runner, and the sharded measurement
// pipeline's 1e-12 regression against the per-sample scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/measure.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
#include "net/topology.h"
#include "util/rng.h"

namespace wlsync {
namespace {

using analysis::DelayKind;
using analysis::RunResult;
using analysis::RunSpec;
using net::Topology;
using net::TopologyKind;

// ------------------------------------------------------------- topology ---

void expect_invariants(const Topology& topo) {
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    const auto peers = topo.neighbors(p);
    EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
    EXPECT_EQ(std::adjacent_find(peers.begin(), peers.end()), peers.end());
    EXPECT_TRUE(std::binary_search(peers.begin(), peers.end(), p))
        << "self-loop missing at " << p;
    for (std::int32_t q : peers) {
      const auto back = topo.neighbors(q);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), p))
          << "asymmetric edge " << p << " -> " << q;
    }
  }
}

TEST(Topology, FullMeshShape) {
  const Topology topo = Topology::full_mesh(5);
  EXPECT_EQ(topo.n(), 5);
  EXPECT_TRUE(topo.is_full_mesh());
  EXPECT_TRUE(topo.connected());
  EXPECT_EQ(topo.edge_count(), 25u);
  for (std::int32_t p = 0; p < 5; ++p) {
    ASSERT_EQ(topo.degree(p), 5);
    for (std::int32_t q = 0; q < 5; ++q) EXPECT_EQ(topo.neighbors(p)[static_cast<std::size_t>(q)], q);
  }
  expect_invariants(topo);
}

TEST(Topology, RingOfCliquesShape) {
  const Topology topo = Topology::ring_of_cliques(24, 6);
  EXPECT_EQ(topo.n(), 24);
  EXPECT_FALSE(topo.is_full_mesh());
  EXPECT_TRUE(topo.connected());
  expect_invariants(topo);
  // Interior clique members see their clique only (6, self included);
  // bridge endpoints see one more.
  EXPECT_EQ(topo.degree(1), 6);
  EXPECT_EQ(topo.degree(5), 7);   // last of clique 0 bridges to 6
  EXPECT_EQ(topo.degree(6), 7);   // first of clique 1 bridged from 5
}

TEST(Topology, KRegularConnectedSymmetric) {
  const Topology topo = Topology::k_regular(64, 8, /*seed=*/7);
  EXPECT_EQ(topo.n(), 64);
  EXPECT_TRUE(topo.connected());
  EXPECT_FALSE(topo.is_full_mesh());
  expect_invariants(topo);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    EXPECT_GE(topo.degree(p), 3);  // ring + self at the very least
  }
  // Deterministic in the seed.
  const Topology again = Topology::k_regular(64, 8, /*seed=*/7);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    const auto a = topo.neighbors(p);
    const auto b = again.neighbors(p);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(Topology, CustomAdjacencyNormalized) {
  // Asymmetric, unsorted, no self-loops: from_adjacency must repair all.
  const Topology topo = Topology::from_adjacency({{1}, {2}, {}, {0}});
  EXPECT_EQ(topo.n(), 4);
  expect_invariants(topo);
  EXPECT_TRUE(topo.connected());
  EXPECT_THROW(Topology::from_adjacency({{3}}), std::invalid_argument);
}

TEST(Topology, BuildValidatesConnectivityAndSize) {
  net::TopologySpec spec;
  spec.kind = TopologyKind::kCustom;
  spec.custom = {{0}, {1}};  // two isolated nodes
  EXPECT_THROW(net::build_topology(spec, 2), std::invalid_argument);
  spec.custom = {{0, 1}, {1, 0}};
  EXPECT_NO_THROW(net::build_topology(spec, 2));
  EXPECT_THROW(net::build_topology(spec, 3), std::invalid_argument);
}

// --------------------------------------------- randomized property tests ---

/// Connected random graph as raw adjacency lists: a random attachment tree
/// (guarantees connectivity) plus `extra` random edges.  Lists are left
/// asymmetric, unsorted, and self-loop-free on purpose — from_adjacency
/// must repair all of that.
std::vector<std::vector<std::int32_t>> random_adjacency(util::Rng& rng,
                                                        std::int32_t n,
                                                        std::int32_t extra) {
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
  for (std::int32_t v = 1; v < n; ++v) {
    lists[static_cast<std::size_t>(v)].push_back(
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))));
  }
  for (std::int32_t e = 0; e < extra; ++e) {
    const auto a = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
    lists[a].push_back(b);
  }
  return lists;
}

TEST(TopologyProperties, RandomGraphsNormalizedConnectedRoundTrip) {
  util::Rng rng(20260727);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::int32_t>(2 + rng.below(40));
    const auto extra = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(2 * n)));
    const Topology topo = Topology::from_adjacency(random_adjacency(rng, n, extra));
    ASSERT_EQ(topo.n(), n);
    expect_invariants(topo);  // symmetry, self-loops, sorted, duplicate-free

    // connected() agrees with BFS reachability (the tree construction makes
    // every one of these graphs connected).
    EXPECT_TRUE(topo.connected());
    const std::vector<std::int32_t>& from0 = topo.distances_from(0);
    for (std::int32_t v = 0; v < n; ++v) {
      EXPECT_GE(from0[static_cast<std::size_t>(v)], 0) << "trial " << trial;
    }

    // CSR round-trip: feeding neighbors() back through from_adjacency must
    // reproduce the structure exactly.
    std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p) {
      const auto peers = topo.neighbors(p);
      lists[static_cast<std::size_t>(p)].assign(peers.begin(), peers.end());
    }
    const Topology rebuilt = Topology::from_adjacency(lists);
    ASSERT_EQ(rebuilt.n(), n);
    ASSERT_EQ(rebuilt.edge_count(), topo.edge_count());
    for (std::int32_t p = 0; p < n; ++p) {
      const auto a = topo.neighbors(p);
      const auto b = rebuilt.neighbors(p);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "trial " << trial << " node " << p;
    }
  }
}

TEST(TopologyProperties, RandomDisconnectedGraphsDetected) {
  util::Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    // Two random connected components with no cross edges.
    const auto n1 = static_cast<std::int32_t>(2 + rng.below(10));
    const auto n2 = static_cast<std::int32_t>(2 + rng.below(10));
    std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n1 + n2));
    for (std::int32_t v = 1; v < n1; ++v) {
      lists[static_cast<std::size_t>(v)].push_back(
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))));
    }
    for (std::int32_t v = 1; v < n2; ++v) {
      lists[static_cast<std::size_t>(n1 + v)].push_back(
          n1 + static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))));
    }
    const Topology topo = Topology::from_adjacency(lists);
    expect_invariants(topo);
    EXPECT_FALSE(topo.connected());
    EXPECT_EQ(topo.diameter(), -1);
    EXPECT_EQ(topo.distances_from(0)[static_cast<std::size_t>(n1)], -1);
  }
}

TEST(TopologyProperties, RandomExpandersSeededAndSane) {
  util::Rng rng(5150);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<std::int32_t>(16 + rng.below(100));
    const std::uint64_t seed = rng();
    const Topology topo = Topology::k_regular(n, 8, seed);
    expect_invariants(topo);
    EXPECT_TRUE(topo.connected());
    // Distances are symmetric (spot-checked along a random row).
    const auto i = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
    const std::vector<std::int32_t>& row = topo.distances_from(i);
    for (std::int32_t j = 0; j < n; ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)],
                topo.distances_from(j)[static_cast<std::size_t>(i)]);
    }
  }
}

// ------------------------------------------------- fan-out bit-identity ---

bool traces_identical(const analysis::RoundTrace& a,
                      const analysis::RoundTrace& b) {
  auto same = [](const std::vector<analysis::RoundEvent>& u,
                 const std::vector<analysis::RoundEvent>& v) {
    if (u.size() != v.size()) return false;
    for (std::size_t i = 0; i < u.size(); ++i) {
      if (u[i].pid != v[i].pid || u[i].round != v[i].round ||
          u[i].real_time != v[i].real_time || u[i].value != v[i].value ||
          u[i].value2 != v[i].value2) {
        return false;
      }
    }
    return true;
  };
  return same(a.begins(), b.begins()) && same(a.updates(), b.updates()) &&
         same(a.joins(), b.joins());
}

RunSpec fanout_spec() {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 20260727;
  return spec;
}

/// Runs `spec` through the batched fan-out engine and the seed's
/// per-recipient engine; both executions must be indistinguishable.
void check_batched_matches_reference(RunSpec spec) {
  RunSpec batched = spec;
  batched.batch_fanout = true;
  RunSpec reference = spec;
  reference.batch_fanout = false;

  analysis::Experiment batched_run(batched);
  analysis::Experiment reference_run(reference);
  const RunResult batched_result = batched_run.run();
  const RunResult reference_result = reference_run.run();
  EXPECT_TRUE(analysis::results_identical(batched_result, reference_result));
  EXPECT_TRUE(traces_identical(batched_run.trace(), reference_run.trace()));
  EXPECT_GT(batched_run.trace().begins().size(), 0u);
  EXPECT_EQ(batched_run.simulator().messages_sent(),
            reference_run.simulator().messages_sent());
  EXPECT_EQ(batched_run.simulator().events_processed(),
            reference_run.simulator().events_processed());
}

TEST(FanoutDeterminism, MatchesPerRecipientEngineAcrossDelayModels) {
  // kFast/kSlow produce exact delivery-time ties across a whole broadcast —
  // the seq-block reservation is what keeps those ordered identically.
  for (const DelayKind delay :
       {DelayKind::kUniform, DelayKind::kFast, DelayKind::kSlow,
        DelayKind::kPerLink, DelayKind::kSplit}) {
    RunSpec spec = fanout_spec();
    spec.delay = delay;
    check_batched_matches_reference(spec);
  }
}

TEST(FanoutDeterminism, MatchesUnderNicBuffering) {
  RunSpec spec = fanout_spec();
  spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/5e-4};
  check_batched_matches_reference(spec);
}

TEST(FanoutDeterminism, MatchesWithStaggerAndKExchanges) {
  RunSpec spec = fanout_spec();
  spec.fault = analysis::FaultKind::kSilent;
  spec.fault_count = 2;
  spec.stagger = 2e-3;
  check_batched_matches_reference(spec);

  RunSpec multi = fanout_spec();
  multi.k_exchanges = 2;
  multi.rounds = 5;
  check_batched_matches_reference(multi);
}

TEST(FanoutDeterminism, MatchesOnSparseTopology) {
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 77;
  spec.topology.kind = TopologyKind::kKRegular;
  spec.topology.degree = 8;
  check_batched_matches_reference(spec);
}

TEST(FanoutDeterminism, MatchesAcrossSchedulerPolicies) {
  // Batched fan-out on the calendar queue vs per-recipient events on the
  // d-ary heap: same execution.
  RunSpec batched = fanout_spec();
  batched.batch_fanout = true;
  batched.scheduler = engine::SchedulerKind::kCalendar;
  RunSpec per_recipient = fanout_spec();
  per_recipient.batch_fanout = false;
  per_recipient.scheduler = engine::SchedulerKind::kDaryHeap;
  const RunResult a = analysis::run_experiment(batched);
  const RunResult b = analysis::run_experiment(per_recipient);
  EXPECT_TRUE(analysis::results_identical(a, b));
}

TEST(FanoutDeterminism, BatchingShrinksQueuePressure) {
  // The engineering claim behind the refactor: one entry per in-flight
  // broadcast instead of one per recipient.
  RunSpec spec;
  spec.params = core::make_params(31, 10, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 4;
  spec.delay = DelayKind::kSlow;  // clustered deliveries: the worst case
  // Queue-pressure telemetry only exists when the event engine runs the
  // rounds; the fast path would advance both configurations past the queue.
  spec.engine = analysis::EngineMode::kEvent;
  RunSpec reference = spec;
  reference.batch_fanout = false;
  analysis::Experiment batched_run(spec);
  analysis::Experiment reference_run(reference);
  (void)batched_run.run();
  (void)reference_run.run();
  EXPECT_LT(batched_run.simulator().peak_pending() * 4,
            reference_run.simulator().peak_pending());
  EXPECT_LT(batched_run.simulator().queue_ops() * 2,
            reference_run.simulator().queue_ops());
  EXPECT_GT(batched_run.simulator().fanout_direct(), 0u);
}

// ------------------------------------------- sparse-graph determinism ---

TEST(SparseTopology, DeterministicUnderParallelRunner) {
  RunSpec base;
  base.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  base.rounds = 5;
  base.topology.kind = TopologyKind::kRingOfCliques;
  base.topology.clique_size = 6;
  const std::vector<RunSpec> specs = analysis::seed_sweep(base, 500, 8);
  const std::vector<RunResult> serial = analysis::ParallelRunner(1).run(specs);
  const std::vector<RunResult> sharded = analysis::ParallelRunner(4).run(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], sharded[i]))
        << "trial " << i;
  }
  // And run-over-run: no hidden state in the net layer.
  const std::vector<RunResult> again = analysis::ParallelRunner(4).run(specs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], again[i]));
  }
}

TEST(SparseTopology, WelchLynchStaysBoundedOnExpander) {
  // Not a paper claim (the analysis assumes the full mesh): a sanity pin
  // that the neighbor-view algorithm keeps honest clocks together on a
  // connected expander with no faults.
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 10;
  spec.topology.kind = TopologyKind::kKRegular;
  spec.topology.degree = 8;
  const RunResult result = analysis::run_experiment(spec);
  EXPECT_GE(result.completed_rounds, 10);
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.gamma_measured, 0.1);
}

// ------------------------------------------------ measurement pipeline ---

TEST(MeasurePipeline, SampleGridsMatchHistoricalLoops) {
  const std::vector<double> open =
      analysis::sample_times_with_endpoint(1.0, 2.0, 0.3);
  ASSERT_EQ(open.size(), 5u);  // 1.0 1.3 1.6 1.9 + endpoint 2.0
  EXPECT_DOUBLE_EQ(open.back(), 2.0);
  const std::vector<double> closed = analysis::sample_times_closed(0.0, 1.0, 0.5);
  ASSERT_EQ(closed.size(), 3u);  // 0.0 0.5 1.0
}

TEST(MeasurePipeline, ShardedSkewSeriesMatchesPerSampleScan) {
  RunSpec spec = fanout_spec();
  spec.rounds = 6;
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const auto& sim = experiment.simulator();
  const std::vector<std::int32_t>& ids = result.honest;

  const double t0 = result.tmax0 + 1.0;
  const double t1 = result.t_end;
  const double dt = spec.params.P / 25.0;
  const analysis::SkewSeries series = analysis::skew_series(sim, ids, t0, t1, dt);

  // Reference: the historical per-sample scan (skew_at is unchanged).
  std::vector<double> times;
  for (double t = t0; t < t1; t += dt) times.push_back(t);
  times.push_back(t1);
  ASSERT_EQ(series.times.size(), times.size());
  double max_skew = 0.0;
  for (std::size_t k = 0; k < times.size(); ++k) {
    ASSERT_EQ(series.times[k], times[k]);
    const double reference = analysis::skew_at(sim, ids, times[k]);
    EXPECT_NEAR(series.skews[k], reference, 1e-12) << "sample " << k;
    max_skew = std::max(max_skew, reference);
  }
  EXPECT_NEAR(series.max_skew, max_skew, 1e-12);
}

TEST(MeasurePipeline, ValidityMatchesPerSampleScan) {
  RunSpec spec = fanout_spec();
  spec.rounds = 6;
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const auto& sim = experiment.simulator();
  const core::Params& p = spec.params;
  const core::Derived d = core::derive(p);

  const double t_start = result.tmax0 + d.window;
  const double t_end = result.t_end;
  const double dt = p.P / 10.0;
  const analysis::ValidityReport report = analysis::check_validity(
      sim, result.honest, p, result.tmin0, result.tmax0, t_start, t_end, dt);

  // Reference: the historical t-outer/id-inner local_time scan.
  double upper = -1e300;
  double lower = -1e300;
  for (double t = t_start; t <= t_end; t += dt) {
    for (std::int32_t id : result.honest) {
      const double elapsed = sim.local_time(id, t) - p.T0;
      upper = std::max(upper, elapsed - (d.alpha2 * (t - result.tmin0) + d.alpha3));
      lower = std::max(lower, (d.alpha1 * (t - result.tmax0) - d.alpha3) - elapsed);
    }
  }
  EXPECT_NEAR(report.max_upper_violation, upper, 1e-12);
  EXPECT_NEAR(report.max_lower_violation, lower, 1e-12);
}

TEST(MeasurePipeline, ForcedShardingIsExact) {
  RunSpec spec;
  spec.params = core::make_params(10, 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const auto& sim = experiment.simulator();

  const std::vector<double> times = analysis::sample_times_with_endpoint(
      result.tmax0, result.t_end, spec.params.P / 100.0);
  const analysis::LocalTimeGrid serial =
      analysis::sample_local_times(sim, result.honest, times, /*threads=*/1);
  const analysis::LocalTimeGrid sharded =
      analysis::sample_local_times(sim, result.honest, times, /*threads=*/4);
  ASSERT_EQ(serial.values.size(), sharded.values.size());
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    ASSERT_EQ(serial.values[i], sharded.values[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace wlsync
