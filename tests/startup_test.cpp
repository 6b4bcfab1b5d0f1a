// Section 9.2: establishing synchronization from arbitrary clock values.
// Lemma 20: B^{i+1} <= B^i/2 + 2 eps + 2 rho (11 delta + 39 eps); the limit
// is about 4 eps.  B^i is RunResult::skew_at_round[i]: the skew at start-up
// round i's last honest begin.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "stream_pin.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

RunSpec startup_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec;
  spec.algo = Algo::kStartup;
  spec.params = standard(n, f);
  return spec;
}

/// B^0 .. B^{rounds-1}: the start-up rounds of the skew_at_round series
/// (the horizon affords more rounds than configured).
std::vector<double> startup_rounds(const RunResult& result,
                                   std::int32_t rounds) {
  const std::size_t count = std::min(result.skew_at_round.size(),
                                     static_cast<std::size_t>(rounds));
  return {result.skew_at_round.begin(),
          result.skew_at_round.begin() + static_cast<std::ptrdiff_t>(count)};
}

double slack(const core::Params& p) {
  return core::startup_round_slack(p.rho, p.delta, p.eps);
}
double limit(const core::Params& p) {
  return core::startup_limit(p.rho, p.delta, p.eps);
}

class StartupSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StartupSeeds, Lemma20ContractionAndLimit) {
  RunSpec spec = startup_spec(7, 2);
  spec.rounds = 14;
  spec.initial_clock_spread = 5.0;  // clocks start up to 5 s apart (arbitrary)
  spec.seed = GetParam();
  const std::vector<double> b = startup_rounds(run(spec), spec.rounds);
  ASSERT_GE(b.size(), 10u);

  // Per-round contraction while above the noise floor (near the floor the
  // series bounces within the Lemma 20 limit; contraction is only asserted
  // where the B/2 term dominates).  Small additive fudge: B is sampled at
  // the latest begin, a delta-scale moment after the adjustments land.
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    if (b[i] < 3.0 * limit(spec.params)) continue;
    EXPECT_LE(b[i + 1], b[i] / 2 + slack(spec.params) + 2 * spec.params.eps)
        << "round " << i;
  }
  // The limit: about 4 eps (allow sampling slack).
  EXPECT_LE(b.back(), 2.5 * limit(spec.params) + 2 * spec.params.eps);
  // And the spread really did collapse by orders of magnitude.
  EXPECT_LT(b.back(), spec.initial_clock_spread / 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StartupSeeds, ::testing::Values(1, 2, 3, 55, 99));

TEST(Startup, ToleratesSilentFaults) {
  RunSpec spec = startup_spec(7, 2);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.seed = 4;
  const std::vector<double> b = startup_rounds(run(spec), spec.rounds);
  ASSERT_GE(b.size(), 8u);
  EXPECT_LT(b.back(), spec.initial_clock_spread / 50.0);
}

TEST(Startup, ToleratesSpamFaults) {
  RunSpec spec = startup_spec(7, 2);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.fault = FaultKind::kSpam;
  spec.fault_count = 2;
  spec.seed = 5;
  const std::vector<double> b = startup_rounds(run(spec), spec.rounds);
  ASSERT_GE(b.size(), 8u);
  EXPECT_LT(b.back(), spec.initial_clock_spread / 50.0);
}

TEST(Startup, HugeInitialSpreadStillConverges) {
  RunSpec spec = startup_spec(4, 1);
  spec.rounds = 24;
  spec.initial_clock_spread = 1000.0;  // ~17 minutes apart
  spec.seed = 6;
  const std::vector<double> b = startup_rounds(run(spec), spec.rounds);
  ASSERT_GE(b.size(), 20u);
  EXPECT_LE(b.back(), 3.0 * limit(spec.params) + 2 * spec.params.eps);
}

TEST(Startup, StreamingObservationIsBitIdentical) {
  // A handoff run keeps its history (post_handoff_skew reads it), so it is
  // measured post hoc; a hand-attached observer beside it must fold the
  // same walkers in the same id order at the same instants as the
  // post-hoc skew_at scans, so every double both produce is bitwise
  // equal — across fault-free and faulty runs.
  for (const bool faults : {false, true}) {
    RunSpec spec = startup_spec(7, 2);
    spec.rounds = 12;
    spec.initial_clock_spread = 2.0;
    spec.startup_handoff = true;
    spec.seed = 8;
    if (faults) {
      spec.fault = FaultKind::kSilent;
      spec.fault_count = 2;
    }
    const RunResult plain = run(spec);
    const ObservedRun observed = run_observed(spec);

    EXPECT_FALSE(plain.observe.enabled);
    EXPECT_GT(observed.streamed.stats.round_marks, 0u);
    ASSERT_TRUE(observed.result.startup.has_value());
    EXPECT_FALSE(observed.result.skew_at_round.empty()) << "faults " << faults;
    EXPECT_TRUE(results_identical(plain, observed.result))
        << "faults " << faults;
    expect_stream_matches_grids(observed);
  }
}

TEST(Startup, HandoffKeepsTheStartupSeries) {
  // The maintenance rounds after a handoff are numbered on from the
  // start-up's, so they never overwrite a start-up round in the trace: up
  // to the round before the switch, the handoff run measures bitwise the
  // series of the run that never switches.
  RunSpec spec = startup_spec(7, 2);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.seed = 8;
  const std::vector<double> stay = startup_rounds(run(spec), spec.rounds - 1);
  spec.startup_handoff = true;
  const std::vector<double> switched =
      startup_rounds(run(spec), spec.rounds - 1);
  ASSERT_EQ(stay.size(), static_cast<std::size_t>(spec.rounds - 1));
  EXPECT_EQ(switched, stay);
}

TEST(Startup, HandoffToMaintenanceWorks) {
  RunSpec spec = startup_spec(4, 1);
  spec.rounds = 12;
  spec.initial_clock_spread = 2.0;
  spec.startup_handoff = true;
  spec.seed = 7;
  const RunResult run_result = run(spec);
  const StartupResult& result = *run_result.startup;
  EXPECT_TRUE(result.handoff_done);
  // The handoff's join annotations are not churn rejoins.
  EXPECT_TRUE(run_result.rejoins.empty());
  // Post-handoff the maintenance algorithm holds its own gamma.
  const core::Derived d = core::derive(spec.params);
  EXPECT_LE(result.post_handoff_skew, d.gamma * (1 + 1e-9));
}

TEST(Startup, FastPathRefusesByName) {
  // The round fast path runs Welch-Lynch exchanges only; kAuto records the
  // refusal and a forced kFastpath throws it.
  RunSpec spec = startup_spec(7, 2);
  spec.rounds = 6;
  spec.initial_clock_spread = 1.0;
  EXPECT_EQ(run(spec).fastpath_refusal, "algo is not Welch-Lynch");
  spec.engine = EngineMode::kFastpath;
  try {
    (void)run(spec);
    ADD_FAILURE() << "kFastpath ran a start-up spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("algo is not Welch-Lynch"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wlsync::analysis
