// Gradient-skew subsystem: BFS distances / eccentricity / diameter pinned
// against hand-computed small graphs; a drift-free run's gradient is flat
// (slope 0 within 1e-12); and the sharded pair-bucketing of gradient_series
// is pinned to the naive O(m^2) per-sample reference scan (gradient_at) at
// 1e-12 — and bit-identical across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/gradient.h"
#include "analysis/parallel_runner.h"
#include "clock/drift.h"
#include "net/topology.h"
#include "proc/process.h"
#include "sim/simulator.h"

namespace wlsync {
namespace {

using analysis::GradientSeries;
using analysis::GradientSummary;
using analysis::RunResult;
using analysis::RunSpec;
using net::Topology;
using net::TopologyKind;

/// The naive reference scan the sharded pair fold is pinned against:
/// max |L_i - L_j| per distance bucket at one instant via O(m^2)
/// Simulator::local_time calls.  `distances` is the bucket axis of the
/// series under test; returns one value per bucket.
std::vector<double> gradient_at(const sim::Simulator& sim,
                                const std::vector<std::int32_t>& ids,
                                const Topology& topo,
                                const std::vector<std::int32_t>& distances,
                                double t) {
  std::vector<double> locals;
  for (const std::int32_t id : ids) locals.push_back(sim.local_time(id, t));
  std::vector<double> buckets(distances.size(), 0.0);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const std::int32_t d = topo.distances_from(
          ids[i])[static_cast<std::size_t>(ids[j])];
      const auto b = std::find(distances.begin(), distances.end(), d);
      if (b == distances.end()) continue;
      double& cell = buckets[static_cast<std::size_t>(b - distances.begin())];
      cell = std::max(cell, std::abs(locals[i] - locals[j]));
    }
  }
  return buckets;
}

// ------------------------------------------------------- BFS distances ---

TEST(Distances, PathGraphPinned) {
  // 0 - 1 - 2 - 3 - 4 (from_adjacency symmetrizes and adds self-loops).
  const Topology topo = Topology::from_adjacency({{1}, {2}, {3}, {4}, {}});
  const std::span<const std::int32_t> from0 = topo.distances_from(0);
  EXPECT_EQ(std::vector<std::int32_t>(from0.begin(), from0.end()),
            (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
  const std::span<const std::int32_t> from2 = topo.distances_from(2);
  EXPECT_EQ(std::vector<std::int32_t>(from2.begin(), from2.end()),
            (std::vector<std::int32_t>{2, 1, 0, 1, 2}));
  EXPECT_EQ(topo.eccentricity(0), 4);
  EXPECT_EQ(topo.eccentricity(2), 2);
  EXPECT_EQ(topo.diameter(), 4);
}

TEST(Distances, FullMeshIsDiameterOne) {
  const Topology topo = Topology::full_mesh(6);
  EXPECT_EQ(topo.diameter(), 1);
  for (std::int32_t p = 0; p < 6; ++p) {
    EXPECT_EQ(topo.eccentricity(p), 1);
    const std::span<const std::int32_t> row = topo.distances_from(p);
    for (std::int32_t q = 0; q < 6; ++q) {
      EXPECT_EQ(row[static_cast<std::size_t>(q)], p == q ? 0 : 1);
    }
  }
}

TEST(Distances, FullMeshRowsWithoutBfs) {
  // The mesh answers every row from one shared 2n-1 strip (1 everywhere,
  // 0 at the source), so no per-source row is materialized; a custom
  // complete graph takes the same path, and removing one edge falls back
  // to the BFS and finds the 2-hop detour.
  for (const std::int32_t n : {1, 2, 64}) {
    SCOPED_TRACE(n);
    std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p) {
      for (std::int32_t q = 0; q < n; ++q) {
        lists[static_cast<std::size_t>(p)].push_back(q);
      }
    }
    for (const Topology& topo :
         {Topology::full_mesh(n), Topology::from_adjacency(lists)}) {
      ASSERT_TRUE(topo.is_full_mesh());
      EXPECT_EQ(topo.diameter(), n == 1 ? 0 : 1);
      for (std::int32_t p = 0; p < n; ++p) {
        const std::span<const std::int32_t> row = topo.distances_from(p);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
        for (std::int32_t q = 0; q < n; ++q) {
          EXPECT_EQ(row[static_cast<std::size_t>(q)], p == q ? 0 : 1);
        }
        // Row p is the strip's window one entry left of row p - 1's.
        if (p > 0) {
          EXPECT_EQ(row.data() + 1, topo.distances_from(p - 1).data());
        }
      }
    }
    if (n < 3) continue;
    auto& first = lists.front();
    first.erase(std::find(first.begin(), first.end(), n - 1));
    auto& last = lists.back();
    last.erase(std::find(last.begin(), last.end(), 0));
    const Topology missing_edge = Topology::from_adjacency(lists);
    ASSERT_FALSE(missing_edge.is_full_mesh());
    EXPECT_EQ(missing_edge.distances_from(0)[static_cast<std::size_t>(n - 1)],
              2);
    EXPECT_EQ(missing_edge.distances_from(1)[static_cast<std::size_t>(n - 1)],
              1);
    EXPECT_EQ(missing_edge.diameter(), 2);
  }
}

TEST(Distances, RingOfCliquesPinned) {
  // Four triangles {0,1,2} {3,4,5} {6,7,8} {9,10,11}, bridged 2-3, 5-6,
  // 8-9, 11-0 into a ring.
  const Topology topo = Topology::ring_of_cliques(12, 3);
  EXPECT_EQ(topo.distances_from(0)[3], 2);   // 0-2-3
  EXPECT_EQ(topo.distances_from(1)[4], 3);   // 1-2-3-4
  EXPECT_EQ(topo.distances_from(0)[6], 4);   // 0-2-3-5-6 (or the long way)
  EXPECT_EQ(topo.distances_from(1)[7], 5);   // both ways around cost 5
  EXPECT_EQ(topo.diameter(), 5);
}

TEST(Distances, DisconnectedReportsMinusOne) {
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  EXPECT_FALSE(topo.connected());
  EXPECT_EQ(topo.distances_from(0)[2], -1);
  EXPECT_EQ(topo.eccentricity(0), -1);
  EXPECT_EQ(topo.diameter(), -1);
}

TEST(Distances, SymmetricOnRandomExpander) {
  const Topology topo = Topology::k_regular(40, 6, /*seed=*/9);
  ASSERT_TRUE(topo.connected());
  EXPECT_GT(topo.diameter(), 1);
  for (std::int32_t i = 0; i < topo.n(); ++i) {
    const std::span<const std::int32_t> row = topo.distances_from(i);
    EXPECT_EQ(row[static_cast<std::size_t>(i)], 0);
    for (std::int32_t j = 0; j < topo.n(); ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)],
                topo.distances_from(j)[static_cast<std::size_t>(i)])
          << "d(" << i << "," << j << ") asymmetric";
    }
  }
}

// ------------------------------------------------------- flat gradients ---

/// Honest process that does nothing: the clocks run free.
class Idle final : public proc::Process {
 public:
  void on_start(proc::Context&) override {}
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override {}
};

TEST(Gradient, FlatOnDriftFreeIdenticalClocks) {
  // Perfect rate-1 clocks with identical offsets never separate: every
  // bucket is exactly zero at every sample, so the slope is exactly flat.
  const Topology topo = Topology::ring_of_cliques(12, 3);
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  std::vector<std::int32_t> ids;
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    sim.add_process(std::make_unique<Idle>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), /*offset=*/5.0, /*rho=*/1e-5),
                    /*corr0=*/0.0, /*faulty=*/false, /*start=*/0.0);
    ids.push_back(p);
  }
  sim.run_until(10.0);

  const GradientSeries series =
      analysis::gradient_series(sim, ids, topo, 1.0, 9.0, 0.5);
  EXPECT_EQ(series.diameter, 5);
  ASSERT_FALSE(series.distances.empty());
  for (double v : series.skew_by_sample) EXPECT_EQ(v, 0.0);
  for (double v : series.frontier) EXPECT_EQ(v, 0.0);
  EXPECT_NEAR(analysis::gradient_slope(series), 0.0, 1e-12);
}

TEST(Gradient, RejectsDisconnectedTopology) {
  // Cross-component pairs have no distance to bucket by; the sized-by-
  // diameter bucket table must never be indexed with the -1 sentinel.
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    sim.add_process(std::make_unique<Idle>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), 0.0, 1e-5),
                    0.0, false, 0.0);
  }
  sim.run_until(2.0);
  EXPECT_THROW((void)analysis::gradient_series(sim, {0, 1, 2, 3}, topo, 0.0,
                                               1.0, 0.5),
               std::invalid_argument);
}

TEST(Gradient, SlopeRecoversSyntheticLine) {
  GradientSeries series;
  series.distances = {1, 2, 3, 4};
  series.max_skew = {0.5, 1.0, 1.5, 2.0};  // slope exactly 0.5
  EXPECT_NEAR(analysis::gradient_slope(series), 0.5, 1e-12);
  series.distances = {1};
  series.max_skew = {3.0};
  EXPECT_EQ(analysis::gradient_slope(series), 0.0);  // < 2 buckets
}

// -------------------------------------- sharded vs naive reference scan ---

RunSpec sparse_spec() {
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.rounds = 8;
  spec.seed = 20260727;
  spec.topology.kind = TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  return spec;
}

TEST(Gradient, ShardedBucketingMatchesNaiveReference) {
  const RunSpec spec = sparse_spec();
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const Topology topo = net::build_topology(spec.topology, spec.params.n);

  const double t0 = result.tmax0 + 1.0;
  const double t1 = result.t_end;
  const double dt = spec.params.P / 5.0;
  const GradientSeries series = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, t1, dt, /*threads=*/4);

  ASSERT_GT(series.distances.size(), 2u);
  for (std::size_t k = 0; k < series.times.size(); ++k) {
    const std::vector<double> reference =
        gradient_at(experiment.simulator(), result.honest, topo,
                    series.distances, series.times[k]);
    ASSERT_EQ(reference.size(), series.distances.size());
    for (std::size_t b = 0; b < reference.size(); ++b) {
      EXPECT_NEAR(series.at(b, k), reference[b], 1e-12)
          << "bucket d=" << series.distances[b] << " sample " << k;
    }
  }
}

TEST(Gradient, ThreadCountInvariance) {
  const RunSpec spec = sparse_spec();
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const Topology topo = net::build_topology(spec.topology, spec.params.n);

  const double t0 = result.tmax0 + 1.0;
  const double dt = spec.params.P / 10.0;
  const GradientSeries serial = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, result.t_end, dt,
      /*threads=*/1);
  const GradientSeries sharded = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, result.t_end, dt,
      /*threads=*/4);
  ASSERT_EQ(serial.skew_by_sample.size(), sharded.skew_by_sample.size());
  for (std::size_t c = 0; c < serial.skew_by_sample.size(); ++c) {
    ASSERT_EQ(serial.skew_by_sample[c], sharded.skew_by_sample[c]) << "cell " << c;
  }
  EXPECT_TRUE(analysis::summarize_gradient(serial) ==
              analysis::summarize_gradient(sharded));
}

// --------------------------------------------------- experiment surface ---

TEST(Gradient, ExperimentFillsSummaryAndStaysDeterministic) {
  RunSpec base = sparse_spec();
  base.measure_gradient = true;
  const RunResult one = analysis::run(base);
  ASSERT_TRUE(one.gradient.measured());
  EXPECT_EQ(one.gradient.diameter, 5);
  ASSERT_EQ(one.gradient.frontier.size(), one.gradient.distances.size());
  // The frontier is non-decreasing by construction and tops out at the
  // far-pair skew.
  for (std::size_t b = 1; b < one.gradient.frontier.size(); ++b) {
    EXPECT_GE(one.gradient.frontier[b], one.gradient.frontier[b - 1]);
  }
  EXPECT_EQ(one.gradient.far_skew(), one.gradient.frontier.back());

  // results_identical covers the gradient fields: parallel sweeps must
  // reproduce the serial summaries bit-for-bit.
  const std::vector<RunSpec> specs = analysis::seed_sweep(base, 900, 4);
  const std::vector<RunResult> serial = analysis::ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = analysis::ParallelRunner(4).run_adaptive(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], sharded[i])) << "trial " << i;
    EXPECT_TRUE(serial[i].gradient.measured());
  }
}

TEST(Gradient, GammaMeasuredExactlyUnchangedByGradientMeasurement) {
  // With measure_gradient on, gamma_measured is derived from the gradient's
  // far frontier instead of a second skew_series pass over the same grid;
  // the two must coincide bitwise (the max pairwise |L_i - L_j| is attained
  // by the max/min pair skew_series subtracts).
  RunSpec plain = sparse_spec();
  RunSpec measured = sparse_spec();
  measured.measure_gradient = true;
  const RunResult a = analysis::run(plain);
  const RunResult b = analysis::run(measured);
  EXPECT_EQ(a.gamma_measured, b.gamma_measured);
  EXPECT_EQ(a.final_skew, b.final_skew);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Gradient, MeshGradientCollapsesToGlobalSkew) {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 41;
  spec.measure_gradient = true;
  const RunResult result = analysis::run(spec);
  ASSERT_TRUE(result.gradient.measured());
  // Every honest pair is one hop apart on the mesh: a single bucket whose
  // max over the window IS the measured global skew.
  ASSERT_EQ(result.gradient.distances, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(result.gradient.diameter, 1);
  EXPECT_NEAR(result.gradient.max_skew[0], result.gamma_measured, 1e-12);
}

}  // namespace
}  // namespace wlsync
