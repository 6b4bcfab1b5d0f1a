// Theorem 19: (alpha1, alpha2, alpha3)-validity.  Local clocks advance
// linearly with real time; the envelope rules out trivial "solutions" like
// resetting all clocks to 0.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

struct ValidityCase {
  std::uint64_t seed;
  FaultKind fault;
  DriftKind drift;
};

class Validity : public ::testing::TestWithParam<ValidityCase> {};

TEST_P(Validity, EnvelopeHolds) {
  const ValidityCase& c = GetParam();
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = c.fault;
  spec.fault_count = c.fault == FaultKind::kNone ? 0 : 2;
  spec.drift = c.drift;
  spec.rounds = 15;
  spec.seed = c.seed;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  EXPECT_TRUE(result.validity.holds)
      << "upper violation " << result.validity.max_upper_violation
      << ", lower violation " << result.validity.max_lower_violation;
  // Note: the *raw* ratio (L - T0)/(t - tmin0) may exceed alpha2 shortly
  // after the start, where the +alpha3 offset dominates; the envelope check
  // above (which includes alpha3) is the actual Theorem 19 statement.
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Validity,
    ::testing::Values(ValidityCase{1, FaultKind::kNone, DriftKind::kExtremal},
                      ValidityCase{2, FaultKind::kTwoFaced, DriftKind::kExtremal},
                      ValidityCase{3, FaultKind::kSpam, DriftKind::kPiecewise},
                      ValidityCase{4, FaultKind::kSilent, DriftKind::kRandomWalk},
                      ValidityCase{5, FaultKind::kLiar, DriftKind::kExtremal}));

// Long-horizon check: over 60 rounds, elapsed local time tracks elapsed real
// time to within a slope error ~ rho + eps/lambda.
TEST(Validity, LongRunSlopeStaysNearOne) {
  RunSpec spec;
  spec.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 5.0);
  spec.rounds = 60;
  spec.seed = 6;
  Experiment experiment(spec);
  const RunResult result = experiment.run();
  ASSERT_FALSE(result.diverged);
  const double t_end = result.t_end;
  for (std::int32_t id : result.honest) {
    const double elapsed_local =
        experiment.simulator().local_time(id, t_end) - spec.params.T0;
    const double slope = elapsed_local / (t_end - result.tmin0);
    EXPECT_NEAR(slope, 1.0, 5e-4);
  }
}

// A deliberately broken "synchronizer" that resets clocks to T0 each round
// would violate validity; our checker must be able to detect violations.
TEST(Validity, CheckerDetectsViolations) {
  RunSpec spec;
  spec.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 5.0);
  spec.rounds = 10;
  spec.seed = 8;
  Experiment experiment(spec);
  const RunResult result = experiment.run();
  ASSERT_FALSE(result.diverged);
  // Re-check against a *fake* far-future tmin0/tmax0: the envelope must
  // break, proving the checker is not vacuous.
  const ValidityReport fake = check_validity(
      experiment.simulator(), result.honest, spec.params,
      /*tmin0=*/result.tmin0 + 20.0, /*tmax0=*/result.tmax0 + 20.0,
      result.tmax0 + spec.params.P, result.t_end, spec.params.P / 10);
  EXPECT_FALSE(fake.holds);
}

}  // namespace
}  // namespace wlsync::analysis
