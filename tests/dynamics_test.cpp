// Dynamic-topology schedules (net/dynamics.h): spec validation, the
// deterministic tier-2 application path, bit-identical reruns (serial and
// through the ParallelRunner), churn routing, the split/heal agreement
// story, and the named engine refusals — a dynamic run must NEVER silently
// execute on a stale static graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "core/params.h"
#include "net/dynamics.h"
#include "net/topology.h"

namespace wlsync {
namespace {

using analysis::EngineMode;
using analysis::RunResult;
using analysis::RunSpec;
using net::DynamicsSpec;
using net::TopologyKind;

RunSpec cliques_spec() {
  RunSpec spec;
  spec.params = core::make_params(16, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.topology.kind = TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 8;
  spec.rounds = 12;
  spec.seed = 20260808;
  return spec;
}

// ------------------------------------------------------------ validation ---

TEST(DynamicsSpec, ValidateRejectsMalformedSchedules) {
  {
    DynamicsSpec dyn;
    dyn.fail_link(5.0, 3, 16);  // id out of range
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    dyn.fail_link(5.0, 3, 3);  // self-link
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    dyn.fail_link(-1.0, 3, 4);  // negative time
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    dyn.split(5.0, {});  // empty group
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    std::vector<std::int32_t> everyone(16);
    for (std::int32_t i = 0; i < 16; ++i) everyone[i] = i;
    dyn.split(5.0, everyone);  // not a PROPER subset
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    dyn.leave(5.0, 3).leave(8.0, 3);  // double leave
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    dyn.rejoin(5.0, 3);  // rejoin without a leave
    EXPECT_THROW(dyn.validate(16, 0.0), std::invalid_argument);
  }
  {
    DynamicsSpec dyn;
    dyn.leave(5.0, 3).rejoin(10.0, 3);  // dead window below min_down
    EXPECT_THROW(dyn.validate(16, 20.0), std::invalid_argument);
    EXPECT_NO_THROW(dyn.validate(16, 5.0));
  }
  {
    DynamicsSpec dyn;
    dyn.fail_link(5.0, 3, 12).heal_link(45.0, 3, 12);
    dyn.split(50.0, {0, 1, 2}).merge(80.0, {0, 1, 2});
    EXPECT_NO_THROW(dyn.validate(16, 0.0));
    EXPECT_TRUE(dyn.topology_changing());
    EXPECT_FALSE(dyn.has_churn());
  }
}

TEST(DynamicsSpec, ChurnIntervalsExtractsSortedWindows) {
  DynamicsSpec dyn;
  dyn.leave(60.0, 7).rejoin(140.0, 7).leave(30.0, 2);
  const auto windows = net::churn_intervals(dyn);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows.at(7).front().leave, 60.0);
  EXPECT_DOUBLE_EQ(windows.at(7).front().rejoin, 140.0);
  EXPECT_DOUBLE_EQ(windows.at(2).front().leave, 30.0);
  EXPECT_EQ(windows.at(2).front().rejoin, net::kNeverRejoins);
  EXPECT_TRUE(dyn.has_churn());
  EXPECT_FALSE(dyn.topology_changing());
}

// ---------------------------------------------------------- determinism ---

TEST(Dynamics, LinkFailHealIsDeterministicAndCounted) {
  RunSpec spec = cliques_spec();
  spec.dynamics.fail_link(25.0, 0, 1).heal_link(65.0, 0, 1);

  const RunResult a = analysis::run(spec);
  const RunResult b = analysis::run(spec);
  EXPECT_TRUE(analysis::results_identical(a, b));
  EXPECT_EQ(a.dynamics_applied, 2);
  EXPECT_FALSE(a.diverged);

  // The schedule must actually change the execution relative to the
  // static graph (same seed, no dynamics).
  RunSpec static_spec = cliques_spec();
  static_spec.engine = EngineMode::kEvent;  // comparable refusal-free run
  const RunResult s = analysis::run(static_spec);
  EXPECT_EQ(s.dynamics_applied, 0);
  EXPECT_FALSE(analysis::results_identical(a, s));
}

TEST(Dynamics, ParallelRunnerMatchesSerial) {
  RunSpec spec = cliques_spec();
  spec.dynamics.fail_link(25.0, 0, 1).heal_link(65.0, 0, 1);
  spec.dynamics.leave(30.0, 4).rejoin(70.0, 4);

  const RunResult serial = analysis::run(spec);
  const std::vector<RunResult> parallel =
      analysis::ParallelRunner(2).run_adaptive({spec, spec});
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_TRUE(analysis::results_identical(serial, parallel[0]));
  EXPECT_TRUE(analysis::results_identical(serial, parallel[1]));
}

TEST(Dynamics, ChurnRoutesThroughReintegrationDeterministically) {
  RunSpec spec = cliques_spec();
  spec.rounds = 16;
  // Leave two rounds in, rejoin after a 5-round absence (>= the 2P dead
  // window the validator enforces).
  spec.dynamics.leave(25.0, 3).rejoin(75.0, 3);

  const RunResult a = analysis::run(spec);
  const RunResult b = analysis::run(spec);
  EXPECT_TRUE(analysis::results_identical(a, b));
  // Leave + rejoin both count as applied scenario events.
  EXPECT_EQ(a.dynamics_applied, 2);
  // The churned id is excluded from the measured honest set: steady-state
  // agreement quantifies the processes that never left.
  EXPECT_EQ(std::count(a.honest.begin(), a.honest.end(), 3), 0);
  EXPECT_EQ(static_cast<std::int32_t>(a.honest.size()), spec.params.n - 1);
  EXPECT_FALSE(a.diverged);
  // The never-left processes keep agreement throughout.
  EXPECT_LT(a.gamma_measured, a.gamma_bound);
  // Process 3 rejoins on its local quorum: it hears its 7 clique peers,
  // and with deg = 8 and f_local = 1 it needs deg - f_local = 7 of them.
  // The Section 9.1 claims hold for it as on the full mesh.
  ASSERT_EQ(a.rejoins.size(), 1u);
  EXPECT_EQ(a.rejoins[0].pid, 3);
  EXPECT_LE(a.rejoins[0].spread_with_joiner, spec.params.beta * (1 + 1e-9));
  EXPECT_LE(a.rejoins[0].skew_after, a.gamma_bound * (1 + 1e-9));
}

// ---------------------------------------------------------- split / heal ---

TEST(Dynamics, PartitionSplitBreaksAndMergeRestoresAgreement) {
  // Split the graph into all-fast and all-slow halves: extremal drift with
  // a period longer than the run pins even ids at rate 1+rho and odd ids
  // at 1-rho, so after the split the halves each sync internally and drift
  // apart at ~2 rho per second — agreement degrades without bound until
  // the merge re-attaches the BASE cut edges and the averaging
  // re-converges.  beta is widened so the collection window can still
  // capture the diverged half at merge time; a longer split exceeds the
  // window's capture range and the halves never re-join (the Section 9.1
  // reintegration regime — deliberately out of scope here).
  RunSpec spec;
  spec.params = core::make_params(16, 1, 1e-4, 0.01, 1e-3, 10.0);
  spec.params.beta = 0.1;
  spec.topology.kind = TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 8;
  spec.rounds = 70;
  spec.seed = 7;
  spec.drift_period = 1e6;  // extremal phases never flip mid-run
  spec.stabilize_threshold = 0.03;  // ~2.5x the healthy steady-state skew
  std::vector<std::int32_t> evens;
  for (std::int32_t i = 0; i < 16; i += 2) evens.push_back(i);
  spec.dynamics.split(100.0, evens).merge(500.0, evens);

  const RunResult r = analysis::run(spec);
  EXPECT_EQ(r.dynamics_applied, 2);
  ASSERT_GE(r.completed_rounds, 60);
  EXPECT_FALSE(r.diverged);

  // Round indices: rounds are ~P = 10s, so the split spans ~rounds 10..50.
  const auto skew_max = [&](std::int32_t lo, std::int32_t hi) {
    double m = 0.0;
    for (std::int32_t round = lo; round < hi; ++round) {
      m = std::max(m, r.skew_at_round[static_cast<std::size_t>(round)]);
    }
    return m;
  };
  const double before = skew_max(2, 10);
  const double during = skew_max(12, 50);
  const double after = skew_max(58, r.completed_rounds);
  // Agreement breaks while the halves are separated...
  EXPECT_GT(during, 5.0 * before);
  EXPECT_GT(during, spec.stabilize_threshold);
  // ...and re-establishes after the heal.
  EXPECT_LT(after, spec.stabilize_threshold);
  // The suffix-scan stabilization measurement sees exactly this story: the
  // run stabilizes only after the merge (round ~50), never during the
  // split.
  EXPECT_GE(r.stabilized_round, 45);
  EXPECT_GT(r.stabilization_time, 400.0);
}

TEST(Dynamics, IsolatingANodeDoesNotDivergeTheRest) {
  // Cutting every edge of one process leaves it free-running; the other
  // processes' local-f clamps track the live graph and keep agreement.
  RunSpec spec = cliques_spec();
  spec.rounds = 10;
  spec.dynamics.split(35.0, {5});

  const RunResult r = analysis::run(spec);
  EXPECT_EQ(r.dynamics_applied, 1);
  EXPECT_FALSE(r.diverged);
}

// -------------------------------------------------------------- refusals ---

TEST(Dynamics, EnginesRefuseDynamicSpecsByName) {
  RunSpec spec = cliques_spec();
  spec.dynamics.fail_link(25.0, 0, 1);
  spec.pdes_workers = 2;  // make kAuto consider the PDES engine too
  spec.engine = EngineMode::kAuto;

  const RunResult r = analysis::run(spec);
  EXPECT_NE(r.fastpath_refusal.find("dynamic-topology"), std::string::npos)
      << "fastpath_refusal = " << r.fastpath_refusal;
  EXPECT_NE(r.pdes_refusal.find("dynamic-topology"), std::string::npos)
      << "pdes_refusal = " << r.pdes_refusal;
  EXPECT_FALSE(r.fastpath_engaged);
  EXPECT_EQ(r.pdes_epochs, 0);

  RunSpec force_fast = spec;
  force_fast.engine = EngineMode::kFastpath;
  EXPECT_THROW(analysis::run(force_fast), std::invalid_argument);

  RunSpec force_pdes = spec;
  force_pdes.engine = EngineMode::kPdes;
  EXPECT_THROW(analysis::run(force_pdes), std::invalid_argument);
}

TEST(Dynamics, RequiresWelchLynch) {
  RunSpec spec = cliques_spec();
  spec.algo = analysis::Algo::kST;
  spec.dynamics.fail_link(25.0, 0, 1);
  EXPECT_THROW(analysis::run(spec), std::invalid_argument);
}

TEST(Dynamics, ChurnIdsMustBeDisjointFromByzantineRoster) {
  RunSpec spec = cliques_spec();
  spec.fault = analysis::FaultKind::kSilent;
  spec.fault_count = 1;  // trailing layout: id 15 is faulty
  spec.dynamics.leave(25.0, 15).rejoin(75.0, 15);
  EXPECT_THROW(analysis::run(spec), std::invalid_argument);
}

}  // namespace
}  // namespace wlsync
