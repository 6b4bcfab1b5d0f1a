// Theorem 16 (gamma-agreement) and the Section 4.1/7 convergence claims.

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "util/stats.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

class AgreementSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AgreementSeeds, GammaBoundHoldsUnderWorstAdversary) {
  RunSpec spec;
  spec.params = standard(7, 2);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 16;
  spec.seed = GetParam();
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgreementSeeds,
                         ::testing::Values(3, 17, 1001, 424242, 7777777));

// The halving property.  Benign executions converge *faster* than 1/2 per
// round (with exact delays one round suffices); the 1/2 factor is the worst
// case over adversaries, realized by the two-faced splitter, which pins one
// group's average to the low end of the kept range and the other's to the
// high end (Lemma 9/24: the midpoints then sit diam/2 apart).  Under that
// attack with eps ~ 0, the round-begin spread shrinks by a factor close to
// (and no worse than) 1/2 per round until it hits the noise floor.
TEST(Convergence, SpreadHalvesPerRoundUnderWorstCaseSplitter) {
  core::Params p;
  p.n = 4;
  p.f = 1;
  p.rho = 1e-7;
  p.delta = 0.01;
  p.eps = 1e-7;
  p.P = 1.0;
  p.beta = 0.004;  // generous: room to watch the decay
  ASSERT_TRUE(core::validate(p).empty());
  RunSpec spec;
  spec.params = p;
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.delay = DelayKind::kSlow;  // exact delta+eps delays: no jitter at all
  spec.drift = DriftKind::kNone;
  spec.initial_spread = p.beta * 0.95;
  spec.rounds = 12;
  spec.seed = 5;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  ASSERT_GE(result.begin_spread.size(), 8u);
  int halvings = 0;
  for (std::size_t r = 0; r + 1 < result.begin_spread.size(); ++r) {
    if (result.begin_spread[r] > 2e-4) {  // well above the eps floor
      const double ratio = result.begin_spread[r + 1] / result.begin_spread[r];
      EXPECT_LE(ratio, 0.62) << "round " << r;  // Theorem: at most ~1/2
      ++halvings;
    }
  }
  EXPECT_GE(halvings, 3);
}

// And benign executions beat the worst case: with exact delays and no
// faults, one round collapses the spread outright.
TEST(Convergence, BenignExecutionCollapsesInOneRound) {
  core::Params p;
  p.n = 7;
  p.f = 2;
  p.rho = 1e-7;
  p.delta = 0.01;
  p.eps = 1e-7;
  p.P = 1.0;
  p.beta = 0.004;
  ASSERT_TRUE(core::validate(p).empty());
  RunSpec spec;
  spec.params = p;
  spec.delay = DelayKind::kSlow;
  spec.drift = DriftKind::kNone;
  spec.initial_spread = p.beta * 0.95;
  spec.rounds = 4;
  spec.seed = 5;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  ASSERT_GE(result.begin_spread.size(), 2u);
  EXPECT_GT(result.begin_spread[0], 0.9 * p.beta * 0.95);
  EXPECT_LT(result.begin_spread[1], 0.01 * p.beta);
}

// Section 10: "clocks stay synchronized to within about 4 eps": with tight
// parameters the steady-state skew is a small multiple of eps, far below
// delta.
TEST(Convergence, SteadyStateSkewIsEpsScaleNotDeltaScale) {
  core::Params p = core::make_params(7, 2, 1e-6, /*delta=*/0.05, /*eps=*/1e-3,
                                     /*P=*/5.0);
  RunSpec spec;
  spec.params = p;
  spec.rounds = 16;
  spec.seed = 9;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  // Within ~5 eps (beta ~ 4 eps + eps), despite delta = 50 eps.
  EXPECT_LE(result.gamma_measured, 6.0 * p.eps);
  EXPECT_LT(result.gamma_measured, p.delta / 5.0);
}

// The skew-at-round series must contract from a wide start to the floor and
// then *stay* there (no oscillation growth).
TEST(Convergence, NoRegrowthAfterConvergence) {
  RunSpec spec;
  spec.params = standard(4, 1);
  spec.rounds = 24;
  spec.seed = 31;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 1;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  ASSERT_GE(result.skew_at_round.size(), 20u);
  const double floor_estimate = result.skew_at_round.back();
  for (std::size_t r = 12; r < result.skew_at_round.size(); ++r) {
    EXPECT_LE(result.skew_at_round[r], std::max(6 * floor_estimate,
                                                result.gamma_bound));
  }
}

// Agreement must hold for every pair over *time*, not just at round marks:
// sample densely between rounds (covered by gamma_measured, which samples
// at P/25) — here we verify the spot samples never exceed round samples by
// more than the drift accumulated between samples.
TEST(Convergence, InterRoundSkewConsistent) {
  RunSpec spec;
  spec.params = standard(4, 1);
  spec.rounds = 10;
  spec.seed = 77;
  Experiment experiment(spec);
  const RunResult result = experiment.run();
  ASSERT_FALSE(result.diverged);
  const SkewSeries series =
      skew_series(experiment.simulator(), result.honest,
                  result.tmax0 + spec.params.P, result.t_end, spec.params.P / 50);
  EXPECT_LE(series.max_skew, result.gamma_bound * (1 + 1e-9));
}

}  // namespace
}  // namespace wlsync::analysis
