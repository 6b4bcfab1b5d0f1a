// Positional fault placement: articulation points / bridge endpoints
// verified on hand-built graphs; PlacementPolicy determinism; and the
// neighbor-scoped TwoFacedAdversary — it never delivers outside its target
// lists, and with equivalent lists it reproduces the historical pivot-mode
// adversary's delivery trace byte-for-byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "clock/drift.h"
#include "net/topology.h"
#include "proc/adversaries.h"
#include "proc/placement.h"
#include "sim/delay.h"
#include "sim/simulator.h"

namespace wlsync {
namespace {

using net::Topology;
using proc::PlacementKind;

// ------------------------------------------------------- cut structure ---

TEST(CutStructure, PathGraph) {
  // 0 - 1 - 2 - 3: interior vertices cut, every edge a bridge.
  const Topology topo = Topology::from_adjacency({{1}, {2}, {3}, {}});
  EXPECT_EQ(topo.articulation_points(), (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(topo.bridge_endpoints(), (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(CutStructure, StarGraph) {
  const Topology topo = Topology::from_adjacency({{1, 2, 3, 4}, {}, {}, {}, {}});
  EXPECT_EQ(topo.articulation_points(), (std::vector<std::int32_t>{0}));
  EXPECT_EQ(topo.bridge_endpoints(), (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(CutStructure, CycleHasNone) {
  const Topology topo = Topology::from_adjacency({{1}, {2}, {3}, {0}});
  EXPECT_TRUE(topo.articulation_points().empty());
  EXPECT_TRUE(topo.bridge_endpoints().empty());
}

TEST(CutStructure, PathOfCliquesCutVerticesExact) {
  // Triangles {0,1,2} {3,4,5} {6,7,8} joined by bridges 2-3 and 5-6 but NOT
  // closed into a ring: the joints are exactly the cut vertices.
  const Topology topo = Topology::from_adjacency({
      {1, 2}, {0, 2}, {0, 1, 3},        // clique 0, joint 2
      {2, 4, 5}, {3, 5}, {3, 4, 6},     // clique 1, joints 3 and 5
      {5, 7, 8}, {6, 8}, {6, 7},        // clique 2, joint 6
  });
  EXPECT_EQ(topo.articulation_points(), (std::vector<std::int32_t>{2, 3, 5, 6}));
  EXPECT_EQ(topo.bridge_endpoints(), (std::vector<std::int32_t>{2, 3, 5, 6}));
}

TEST(CutStructure, ClosedRingOfCliquesIsTwoConnected) {
  // The ring closure gives every inter-clique edge a second path: no cut
  // vertices, no bridges.  (This is why kArticulation placement falls back
  // to degree rank — which leads with the joints — on this family.)
  const Topology topo = Topology::ring_of_cliques(12, 3);
  EXPECT_TRUE(topo.articulation_points().empty());
  EXPECT_TRUE(topo.bridge_endpoints().empty());
}

TEST(CutStructure, DegreeRankingLeadsWithJoints) {
  const Topology topo = Topology::ring_of_cliques(12, 3);
  // Joints 3k and 3k+2 have degree 4 (self + clique + bridge); interiors
  // 3k+1 have degree 3.  Ties break by ascending id.
  const std::vector<std::int32_t> ranking = topo.degree_ranking();
  const std::vector<std::int32_t> joints(ranking.begin(), ranking.begin() + 8);
  EXPECT_EQ(joints, (std::vector<std::int32_t>{0, 2, 3, 5, 6, 8, 9, 11}));
  const std::vector<std::int32_t> interiors(ranking.begin() + 8, ranking.end());
  EXPECT_EQ(interiors, (std::vector<std::int32_t>{1, 4, 7, 10}));
}

// ------------------------------------------------------------ placement ---

TEST(Placement, TrailingMatchesHistoricalLayout) {
  const Topology topo = Topology::full_mesh(10);
  EXPECT_EQ(proc::place_faults(topo, PlacementKind::kTrailing, 3, 1),
            (std::vector<std::int32_t>{7, 8, 9}));
  EXPECT_TRUE(proc::place_faults(topo, PlacementKind::kTrailing, 0, 1).empty());
  EXPECT_THROW((void)proc::place_faults(topo, PlacementKind::kTrailing, 11, 1),
               std::invalid_argument);
}

TEST(Placement, DeterministicForFixedSeedDistinctIds) {
  const Topology topo = Topology::ring_of_cliques(24, 6);
  for (const PlacementKind kind :
       {PlacementKind::kTrailing, PlacementKind::kRandom,
        PlacementKind::kMaxDegree, PlacementKind::kArticulation,
        PlacementKind::kBridge, PlacementKind::kAntipodal}) {
    const std::vector<std::int32_t> a = proc::place_faults(topo, kind, 5, 77);
    const std::vector<std::int32_t> b = proc::place_faults(topo, kind, 5, 77);
    EXPECT_EQ(a, b) << proc::placement_name(kind);
    ASSERT_EQ(a.size(), 5u) << proc::placement_name(kind);
    std::vector<std::int32_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "duplicate id under " << proc::placement_name(kind);
  }
  // Random placement actually depends on the seed.
  const std::vector<std::int32_t> s1 =
      proc::place_faults(topo, PlacementKind::kRandom, 5, 1);
  bool any_differs = false;
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    any_differs = any_differs ||
                  proc::place_faults(topo, PlacementKind::kRandom, 5, seed) != s1;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Placement, ArticulationPrefersCutVertices) {
  const Topology path_of_cliques = Topology::from_adjacency({
      {1, 2}, {0, 2}, {0, 1, 3},
      {2, 4, 5}, {3, 5}, {3, 4, 6},
      {5, 7, 8}, {6, 8}, {6, 7},
  });
  EXPECT_EQ(proc::place_faults(path_of_cliques, PlacementKind::kArticulation, 2, 1),
            (std::vector<std::int32_t>{2, 3}));
  EXPECT_EQ(proc::place_faults(path_of_cliques, PlacementKind::kBridge, 2, 1),
            (std::vector<std::int32_t>{2, 3}));
  // On the 2-connected closed ring both structural lists are empty: the
  // shortfall falls back to degree rank, i.e. the inter-clique joints.
  const Topology ring = Topology::ring_of_cliques(12, 3);
  EXPECT_EQ(proc::place_faults(ring, PlacementKind::kArticulation, 2, 1),
            (std::vector<std::int32_t>{0, 2}));
}

TEST(Placement, AntipodalRejectsDisconnectedTopology) {
  // The -1 distance sentinels of an unreachable component must not be
  // silently re-selected as duplicates by the greedy k-center.
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  EXPECT_THROW((void)proc::place_faults(topo, PlacementKind::kAntipodal, 3, 1),
               std::invalid_argument);
}

TEST(Placement, AntipodalMaximizesSpread) {
  // Pure 12-cycle: the two chosen nodes must realize the diameter 6.
  std::vector<std::vector<std::int32_t>> lists(12);
  for (std::int32_t v = 0; v < 12; ++v) lists[static_cast<std::size_t>(v)] = {(v + 1) % 12};
  const Topology ring = Topology::from_adjacency(lists);
  ASSERT_EQ(ring.diameter(), 6);
  const std::vector<std::int32_t> pair =
      proc::place_faults(ring, PlacementKind::kAntipodal, 2, 1);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(ring.distances_from(pair[0])[static_cast<std::size_t>(pair[1])], 6);
}

// ------------------------------------- neighbor-scoped two-faced attack ---

std::unique_ptr<clk::PhysicalClock> perfect_clock() {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0, 1e-4);
}

/// Counts received messages.
class Counter final : public proc::Process {
 public:
  void on_start(proc::Context&) override {}
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override { ++count; }
  int count = 0;
};

/// Broadcasts once on start (the honest trigger the adversary predicts from).
class Beacon final : public proc::Process {
 public:
  void on_start(proc::Context& ctx) override { ctx.broadcast(1, 100.0, 0); }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override {}
};

/// Passive delivery recorder.  Registered faulty so it may read real time —
/// the trace is (arrival real time, sender, forged value), which pins the
/// full observable behaviour of an attack schedule.
class Recorder final : public proc::Process {
 public:
  void on_start(proc::Context&) override {}
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context& ctx, const sim::Message& m) override {
    log.push_back({proc::AdversaryContext::from(ctx).real_time(), m.from, m.value});
  }
  std::vector<std::tuple<double, std::int32_t, double>> log;
};

proc::TwoFacedAdversary::Config attack_base() {
  proc::TwoFacedAdversary::Config config;
  config.tag = 1;
  config.P = 0.5;
  config.delta = 0.01;
  config.beta = 0.1;
  return config;
}

TEST(ScopedTwoFaced, NeverDeliversOutsideTargetLists) {
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.0;
  sim::Simulator sim(config, nullptr);
  proc::TwoFacedAdversary::Config attack = attack_base();
  attack.early_targets = {0};
  attack.late_targets = {1};
  // ids 0, 1: victims; id 2: non-neighbor bystander; id 3: beacon; id 4:
  // adversary.
  for (int i = 0; i < 3; ++i) {
    sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  }
  sim.add_process(std::make_unique<Beacon>(), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<proc::TwoFacedAdversary>(attack),
                  perfect_clock(), 0.0, true, 0.0);
  sim.run_until(3.0);
  // Everyone saw the beacon's broadcast once; only the listed victims saw
  // a forged face on top of it.
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(0)).count, 2);
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(1)).count, 2);
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(2)).count, 1);
}

TEST(ScopedTwoFaced, PerTargetSpreadSendsOneFacePerVictim) {
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.0;
  sim::Simulator sim(config, nullptr);
  proc::TwoFacedAdversary::Config attack = attack_base();
  attack.early_targets = {0};
  attack.late_targets = {1, 2};
  attack.per_target_spread = true;
  for (int i = 0; i < 3; ++i) {
    sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, true, -1.0);
  }
  sim.add_process(std::make_unique<Beacon>(), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<proc::TwoFacedAdversary>(attack),
                  perfect_clock(), 0.0, true, 0.0);
  sim.run_until(3.0);

  // Each victim gets the beacon broadcast plus exactly ONE forged face,
  // and the three faces leave at distinct interpolated in-span instants
  // (victim k fires at tmin + (early_frac + k*step)*beta), so arrival
  // times are strictly increasing across the victim list with eps = 0.
  std::vector<double> face_times;
  for (std::int32_t id = 0; id < 3; ++id) {
    const auto& log = dynamic_cast<Recorder&>(sim.process(id)).log;
    std::vector<std::tuple<double, std::int32_t, double>> faces;
    for (const auto& entry : log) {
      if (std::get<1>(entry) == 4) faces.push_back(entry);
    }
    ASSERT_EQ(faces.size(), 1u) << "victim " << id;
    face_times.push_back(std::get<0>(faces.front()));
  }
  EXPECT_LT(face_times[0], face_times[1]);
  EXPECT_LT(face_times[1], face_times[2]);
}

TEST(ScopedTwoFaced, ListModeReproducesPivotModeByteForByte) {
  // The historical full-mesh attack (pivot/honest_end id ranges) and an
  // explicit-list configuration naming the same victims in the same order
  // must produce identical delivery traces: same sends, same RNG-drawn
  // delays, same arrival times and values.
  const auto run_attack = [](bool list_mode) {
    sim::SimConfig config;
    config.delta = 0.01;
    config.eps = 0.001;
    config.seed = 99;
    sim::Simulator sim(config, sim::make_uniform_delay(0.01, 0.001));
    proc::TwoFacedAdversary::Config attack = attack_base();
    if (list_mode) {
      attack.early_targets = {0, 1};
      attack.late_targets = {2, 3};
    } else {
      attack.pivot = 2;
      attack.honest_end = 4;
    }
    sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, true, -1.0);
    sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, true, -1.0);
    sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, true, -1.0);
    sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, true, -1.0);
    sim.add_process(std::make_unique<Beacon>(), perfect_clock(), 0.0, false, 0.0);
    sim.add_process(std::make_unique<proc::TwoFacedAdversary>(attack),
                    perfect_clock(), 0.0, true, 0.0);
    sim.run_until(3.0);
    std::vector<std::vector<std::tuple<double, std::int32_t, double>>> logs;
    for (std::int32_t id = 0; id < 4; ++id) {
      logs.push_back(dynamic_cast<Recorder&>(sim.process(id)).log);
    }
    return logs;
  };
  const auto pivot_logs = run_attack(/*list_mode=*/false);
  const auto list_logs = run_attack(/*list_mode=*/true);
  ASSERT_EQ(pivot_logs.size(), list_logs.size());
  for (std::size_t id = 0; id < pivot_logs.size(); ++id) {
    ASSERT_EQ(pivot_logs[id].size(), list_logs[id].size()) << "victim " << id;
    for (std::size_t k = 0; k < pivot_logs[id].size(); ++k) {
      EXPECT_EQ(pivot_logs[id][k], list_logs[id][k])
          << "victim " << id << " delivery " << k;
    }
    EXPECT_GT(pivot_logs[id].size(), 1u);  // the attack actually fired
  }
}

// -------------------------------------------- experiment-level placement ---

TEST(Placement, ExperimentPlacesFaultsPositionally) {
  analysis::RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.rounds = 8;
  spec.seed = 7;
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  spec.placement = PlacementKind::kArticulation;

  const net::Topology topo = net::build_topology(spec.topology, spec.params.n);
  const std::vector<std::int32_t> placed =
      proc::place_faults(topo, spec.placement, 1, spec.seed);
  ASSERT_EQ(placed.size(), 1u);

  const analysis::RunResult result = analysis::run(spec);
  EXPECT_EQ(result.honest.size(), 23u);
  EXPECT_FALSE(std::binary_search(result.honest.begin(), result.honest.end(),
                                  placed[0]))
      << "placed adversary id must not be in the honest roster";
  EXPECT_FALSE(result.diverged);

  // Positional trials stay deterministic under the parallel runner.
  const std::vector<analysis::RunSpec> specs = analysis::seed_sweep(spec, 300, 4);
  const auto serial = analysis::ParallelRunner(1).run_adaptive(specs);
  const auto sharded = analysis::ParallelRunner(4).run_adaptive(specs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], sharded[i])) << "trial " << i;
  }
}

}  // namespace
}  // namespace wlsync
