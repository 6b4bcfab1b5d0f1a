// Section 9.2: establishing synchronization from arbitrary clock values.
// Lemma 20: B^{i+1} <= B^i/2 + 2 eps + 2 rho (11 delta + 39 eps); the limit
// is about 4 eps.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

class StartupSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StartupSeeds, Lemma20ContractionAndLimit) {
  RunSpec spec;
  spec.mode = RunMode::kStartup;
  spec.params = standard(7, 2);
  spec.rounds = 14;
  spec.initial_clock_spread = 5.0;  // clocks start up to 5 s apart (arbitrary)
  spec.seed = GetParam();
  const StartupResult result = *run(spec).startup;
  ASSERT_GE(result.b_series.size(), 10u);

  // Per-round contraction while above the noise floor (near the floor the
  // series bounces within the Lemma 20 limit; contraction is only asserted
  // where the B/2 term dominates).  Small additive fudge: B is sampled at
  // the latest begin, a delta-scale moment after the adjustments land.
  for (std::size_t i = 0; i + 1 < result.b_series.size(); ++i) {
    if (result.b_series[i] < 3.0 * result.limit) continue;
    EXPECT_LE(result.b_series[i + 1],
              result.b_series[i] / 2 + result.round_slack +
                  2 * spec.params.eps)
        << "round " << i;
  }
  // The limit: about 4 eps (allow sampling slack).
  EXPECT_LE(result.final_b, 2.5 * result.limit + 2 * spec.params.eps);
  // And the spread really did collapse by orders of magnitude.
  EXPECT_LT(result.final_b, spec.initial_clock_spread / 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StartupSeeds, ::testing::Values(1, 2, 3, 55, 99));

TEST(Startup, ToleratesSilentFaults) {
  RunSpec spec;
  spec.mode = RunMode::kStartup;
  spec.params = standard(7, 2);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.seed = 4;
  const StartupResult result = *run(spec).startup;
  ASSERT_GE(result.b_series.size(), 8u);
  EXPECT_LT(result.final_b, spec.initial_clock_spread / 50.0);
}

TEST(Startup, ToleratesSpamFaults) {
  RunSpec spec;
  spec.mode = RunMode::kStartup;
  spec.params = standard(7, 2);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.fault = FaultKind::kSpam;
  spec.fault_count = 2;
  spec.seed = 5;
  const StartupResult result = *run(spec).startup;
  ASSERT_GE(result.b_series.size(), 8u);
  EXPECT_LT(result.final_b, spec.initial_clock_spread / 50.0);
}

TEST(Startup, HugeInitialSpreadStillConverges) {
  RunSpec spec;
  spec.mode = RunMode::kStartup;
  spec.params = standard(4, 1);
  spec.rounds = 24;
  spec.initial_clock_spread = 1000.0;  // ~17 minutes apart
  spec.seed = 6;
  const StartupResult result = *run(spec).startup;
  ASSERT_GE(result.b_series.size(), 20u);
  EXPECT_LE(result.final_b, 3.0 * result.limit + 2 * spec.params.eps);
}

TEST(Startup, StreamingObservationIsBitIdentical) {
  // RunSpec::observe switches the b_series measurement to the streaming
  // round-boundary accumulator.  The observer folds the same walkers in the same id order at the same
  // instants as the post-hoc skew_at scans, so every measured double must
  // be bitwise equal — across fault-free, faulty, and handoff runs.
  for (const bool faults : {false, true}) {
    RunSpec spec;
    spec.mode = RunMode::kStartup;
    spec.params = standard(7, 2);
    spec.rounds = 12;
    spec.initial_clock_spread = 2.0;
    spec.startup_handoff = true;
    spec.seed = 8;
    if (faults) {
      spec.fault = FaultKind::kSilent;
      spec.fault_count = 2;
    }
    const RunResult plain = run(spec);
    spec.observe = true;
    const RunResult observed = run(spec);

    EXPECT_FALSE(plain.observe.enabled);
    EXPECT_TRUE(observed.observe.enabled);
    EXPECT_GT(observed.observe.round_marks, 0u);
    ASSERT_TRUE(observed.startup.has_value());
    EXPECT_FALSE(observed.startup->b_series.empty()) << "faults " << faults;
    EXPECT_TRUE(results_identical(plain, observed)) << "faults " << faults;
  }
}

TEST(Startup, HandoffToMaintenanceWorks) {
  RunSpec spec;
  spec.mode = RunMode::kStartup;
  spec.params = standard(4, 1);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.startup_handoff = true;
  spec.seed = 7;
  const StartupResult result = *run(spec).startup;
  EXPECT_TRUE(result.handoff_done);
  // Post-handoff the maintenance algorithm holds its own gamma.
  const core::Derived d = core::derive(spec.params);
  EXPECT_LE(result.post_handoff_skew, d.gamma * (1 + 1e-9));
}

}  // namespace
}  // namespace wlsync::analysis
