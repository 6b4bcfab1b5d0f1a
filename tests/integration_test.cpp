// Cross-module integration: full lifecycles combining start-up, maintenance,
// faults, and reintegration, plus determinism of the whole pipeline.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

TEST(Integration, ColdStartToMaintenanceUnderFaults) {
  RunSpec spec;
  spec.algo = Algo::kStartup;
  spec.params = standard(7, 2);
  spec.rounds = 12;
  spec.startup_handoff = true;
  spec.initial_clock_spread = 3.0;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.seed = 11;
  const StartupResult result = *run(spec).startup;
  EXPECT_TRUE(result.handoff_done);
  const core::Derived d = core::derive(spec.params);
  EXPECT_LE(result.post_handoff_skew, d.gamma * (1 + 1e-9));
}

TEST(Integration, CrashRejoinWithConcurrentByzantineLoad) {
  // Seven processes: process 0 crashes and is repaired while the highest id
  // runs the two-faced splitter — together they fill the f = 2 budget,
  // under per-link delay asymmetry and random-walk drift.
  RunSpec spec;
  spec.params = standard(7, 2);
  spec.dynamics.leave(15.0, 0).rejoin(80.0, 0);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.rounds = 18;
  spec.delay = DelayKind::kPerLink;
  spec.drift = DriftKind::kRandomWalk;
  spec.seed = 12;
  const RunResult result = run(spec);
  ASSERT_EQ(result.rejoins.size(), 1u);
  const RejoinReport& rejoin = result.rejoins[0];
  EXPECT_EQ(rejoin.pid, 0);
  EXPECT_LE(rejoin.spread_with_joiner, spec.params.beta * (1 + 1e-9));
  EXPECT_LE(rejoin.skew_after, result.gamma_bound * (1 + 1e-9));
}

TEST(Integration, WholePipelineIsDeterministic) {
  auto fingerprint = [] {
    RunSpec spec;
    spec.params = standard(7, 2);
    spec.fault = FaultKind::kTwoFaced;
    spec.fault_count = 2;
    spec.delay = DelayKind::kPerLink;
    spec.drift = DriftKind::kPiecewise;
    spec.rounds = 10;
    spec.seed = 13;
    const RunResult result = run(spec);
    return std::make_tuple(result.gamma_measured, result.max_abs_adj,
                           result.final_skew, result.messages);
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(Integration, SeedsActuallyMatter) {
  auto gamma_for = [](std::uint64_t seed) {
    RunSpec spec;
    spec.params = standard(4, 1);
    spec.rounds = 8;
    spec.seed = seed;
    return run(spec).gamma_measured;
  };
  EXPECT_NE(gamma_for(1), gamma_for(2));
}

TEST(Integration, LongRunFortyRoundsStable) {
  RunSpec spec;
  spec.params = standard(7, 2);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 40;
  spec.seed = 14;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  ASSERT_GE(result.completed_rounds, 40);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
  EXPECT_TRUE(result.validity.holds);
}

TEST(Integration, MixedDriftModelsAcrossProcessesStaySynchronized) {
  // Random-walk drift exercises different per-process rate paths.
  RunSpec spec;
  spec.params = standard(10, 3);
  spec.drift = DriftKind::kRandomWalk;
  spec.fault = FaultKind::kSpam;
  spec.fault_count = 3;
  spec.rounds = 15;
  spec.seed = 15;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
}

}  // namespace
}  // namespace wlsync::analysis
