// Section 9.1: a crashed-and-repaired process resynchronizes with the
// ordinary averaging procedure and rejoins within beta.  A crash and repair
// is a churn schedule (leave, then rejoin) on a maintenance run; the run
// reports each completed rejoin in RunResult::rejoins.

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "stream_pin.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

/// Process 0 leaves at `crash` and is repaired at `wake`.
RunSpec rejoin_spec(std::int32_t n, std::int32_t f, double crash, double wake,
                    std::int32_t rounds, std::uint64_t seed) {
  RunSpec spec;
  spec.params = standard(n, f);
  spec.dynamics.leave(crash, 0).rejoin(wake, 0);
  spec.rounds = rounds;
  spec.seed = seed;
  return spec;
}

/// The run's single rejoin report, for process 0.
RejoinReport only_rejoin(const RunResult& result) {
  EXPECT_EQ(result.rejoins.size(), 1u);
  if (result.rejoins.empty()) return {};
  EXPECT_EQ(result.rejoins[0].pid, 0);
  return result.rejoins[0];
}

class ReintegrationSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReintegrationSeeds, RejoinsWithinBeta) {
  const RunSpec spec = rejoin_spec(4, 1, 25.0, 95.0, 20, GetParam());
  const RunResult result = run(spec);
  const RejoinReport rejoin = only_rejoin(result);
  // The Section 9.1 claim: the joiner reaches T^{i+1} within beta of every
  // other nonfaulty process.
  EXPECT_LE(rejoin.spread_with_joiner, spec.params.beta * (1 + 1e-9));
  // Thereafter it is an ordinary participant: gamma holds for everyone.
  EXPECT_LE(rejoin.skew_after, result.gamma_bound * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReintegrationSeeds,
                         ::testing::Values(1, 12, 123, 1234));

TEST(Reintegration, WakeMidRoundStillJoins) {
  // Wake just after a round boundary (rounds land near multiples of P=10s):
  // the orientation phase must skip the partially observed round.
  const RunSpec spec = rejoin_spec(4, 1, 22.0, 90.3, 20, 5);
  const RejoinReport rejoin = only_rejoin(run(spec));
  EXPECT_LE(rejoin.spread_with_joiner, spec.params.beta * (1 + 1e-9));
}

TEST(Reintegration, LargerSystemWithSevenProcesses) {
  const RunSpec spec = rejoin_spec(7, 2, 18.0, 77.0, 18, 6);
  const RunResult result = run(spec);
  const RejoinReport rejoin = only_rejoin(result);
  EXPECT_LE(rejoin.spread_with_joiner, spec.params.beta * (1 + 1e-9));
  EXPECT_LE(rejoin.skew_after, result.gamma_bound * (1 + 1e-9));
}

TEST(Reintegration, StreamingObservationIsBitIdentical) {
  // The rejoin report is measured post hoc from the retained history, so a
  // rejoin run cannot drop it; a hand-attached observer beside it must
  // leave every physics field alone and measure what the grids measure.
  for (const std::uint64_t seed : {1ull, 12ull, 1234ull}) {
    const RunSpec spec = rejoin_spec(4, 1, 25.0, 95.0, 20, seed);
    const RunResult plain = run(spec);
    const ObservedRun observed = run_observed(spec);

    EXPECT_FALSE(plain.observe.enabled);
    EXPECT_EQ(observed.result.rejoins.size(), 1u) << "seed " << seed;
    EXPECT_TRUE(results_identical(plain, observed.result)) << "seed " << seed;
    expect_stream_matches_grids(observed);
  }
}

TEST(Reintegration, RejectsTooEarlyWake) {
  // A rejoin less than 2P after the leave could collide with stale timers.
  const RunSpec spec = rejoin_spec(4, 1, 25.0, 30.0, 30, 1);
  EXPECT_THROW((void)run(spec), std::invalid_argument);
}

}  // namespace
}  // namespace wlsync::analysis
