// Section 9.1: a crashed-and-repaired process resynchronizes with the
// ordinary averaging procedure and rejoins within beta.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

class ReintegrationSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReintegrationSeeds, RejoinsWithinBeta) {
  RunSpec spec;
  spec.mode = RunMode::kReintegration;
  spec.params = standard(4, 1);
  spec.crash_at = 25.0;
  spec.wake_at = 95.0;  // several rounds dead
  spec.rounds = 20;
  spec.seed = GetParam();
  const ReintegrationResult result = *run(spec).reintegration;
  ASSERT_TRUE(result.rejoined);
  // The Section 9.1 claim: the joiner reaches T^{i+1} within beta of every
  // other nonfaulty process.
  EXPECT_LE(result.spread_with_joiner, result.beta * (1 + 1e-9));
  // Thereafter it is an ordinary participant: gamma holds for everyone.
  EXPECT_LE(result.skew_after, result.gamma_bound * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReintegrationSeeds,
                         ::testing::Values(1, 12, 123, 1234));

TEST(Reintegration, WakeMidRoundStillJoins) {
  RunSpec spec;
  spec.mode = RunMode::kReintegration;
  spec.params = standard(4, 1);
  spec.crash_at = 22.0;
  // Wake just after a round boundary (rounds land near multiples of P=10s):
  // the orientation phase must skip the partially observed round.
  spec.wake_at = 90.3;
  spec.rounds = 20;
  spec.seed = 5;
  const ReintegrationResult result = *run(spec).reintegration;
  ASSERT_TRUE(result.rejoined);
  EXPECT_LE(result.spread_with_joiner, result.beta * (1 + 1e-9));
}

TEST(Reintegration, LargerSystemWithSevenProcesses) {
  RunSpec spec;
  spec.mode = RunMode::kReintegration;
  spec.params = standard(7, 2);
  spec.crash_at = 18.0;
  spec.wake_at = 77.0;
  spec.rounds = 18;
  spec.seed = 6;
  const ReintegrationResult result = *run(spec).reintegration;
  ASSERT_TRUE(result.rejoined);
  EXPECT_LE(result.spread_with_joiner, result.beta * (1 + 1e-9));
  EXPECT_LE(result.skew_after, result.gamma_bound * (1 + 1e-9));
}

TEST(Reintegration, StreamingObservationIsBitIdentical) {
  // RunSpec::observe runs the simulation in chunks until the rejoin,
  // attaches a StreamingObserver whose skew window opens at join + 2P
  // (ObserveSpec::skew_t0), and takes skew_after from its accumulators.  Chunked run_until is the same event sequence as one
  // call and the streaming grid matches the post-hoc skew_series walk, so
  // every measured field must be bitwise equal.
  for (const std::uint64_t seed : {1ull, 12ull, 1234ull}) {
    RunSpec spec;
    spec.mode = RunMode::kReintegration;
    spec.params = standard(4, 1);
    spec.crash_at = 25.0;
    spec.wake_at = 95.0;
    spec.rounds = 20;
    spec.seed = seed;
    const RunResult plain = run(spec);
    spec.observe = true;
    const RunResult observed = run(spec);

    EXPECT_FALSE(plain.observe.enabled);
    EXPECT_TRUE(observed.observe.enabled);
    EXPECT_GT(observed.observe.samples, 0u);
    ASSERT_TRUE(observed.reintegration.has_value());
    EXPECT_TRUE(observed.reintegration->rejoined) << "seed " << seed;
    EXPECT_TRUE(results_identical(plain, observed)) << "seed " << seed;
  }
}

TEST(Reintegration, RejectsTooEarlyWake) {
  RunSpec spec;
  spec.mode = RunMode::kReintegration;
  spec.params = standard(4, 1);
  spec.crash_at = 25.0;
  spec.wake_at = 30.0;  // < crash + 2P
  spec.rounds = 30;
  EXPECT_THROW((void)run(spec), std::invalid_argument);
}

}  // namespace
}  // namespace wlsync::analysis
