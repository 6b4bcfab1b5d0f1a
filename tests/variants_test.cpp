// The Section 7 and Section 9.3/4.1 variants: k exchanges per round, mean
// averaging, staggered broadcasts, amortized (slewed) corrections.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f, double P = 10.0) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, P);
}

// Section 7's k-exchange claim: beta >= 4 eps + 2 rho P 2^k/(2^k - 1).  The
// eps term is k-independent; the k win is in the *drift* term — halving k
// times per round shrinks the steady-state spread toward 2 rho P instead of
// 4 rho P.  Make drift dominate (rho = 1e-4, P = 10, eps = 1e-5) and pit
// the algorithm against the worst-case splitter (which enforces the halving
// dynamics); steady begin spreads must scale like 2^k/(2^k - 1):
//   k=1 : k=2 : k=3  ~  2 : 4/3 : 8/7  (ratios 1.5 and 1.75 vs k=1).
TEST(KExchange, SteadySpreadScalesLikeTwoToKOverTwoToKMinusOne) {
  core::Params p;
  p.n = 4;
  p.f = 1;
  p.rho = 1e-4;
  p.delta = 0.01;
  p.eps = 1e-5;
  p.P = 10.0;
  p.beta = 8e-3;  // ~ 2 * 4 rho P: room for the k=1 equilibrium
  ASSERT_TRUE(core::validate(p).empty());

  auto steady_spread = [&](std::int32_t k) {
    RunSpec spec;
    spec.params = p;
    spec.k_exchanges = k;
    spec.fault = FaultKind::kTwoFaced;
    spec.fault_count = 1;
    spec.delay = DelayKind::kSlow;   // jitter-free: isolate the drift term
    spec.drift = DriftKind::kExtremal;
    spec.drift_period = 1000.0;      // constant rates: sustained divergence
    spec.rounds = 14;
    spec.seed = 21;
    const RunResult result = run(spec);
    EXPECT_FALSE(result.diverged) << "k=" << k;
    // Average the last few rounds' begin spreads.
    double sum = 0.0;
    int count = 0;
    for (std::size_t r = result.begin_spread.size() - 5;
         r < result.begin_spread.size(); ++r) {
      sum += result.begin_spread[r];
      ++count;
    }
    return sum / count;
  };

  const double s1 = steady_spread(1);
  const double s2 = steady_spread(2);
  const double s3 = steady_spread(3);
  // Monotone improvement, in roughly the predicted proportions.
  EXPECT_LT(s2, 0.85 * s1);
  EXPECT_LT(s3, s2);
  EXPECT_NEAR(s1 / s2, 1.5, 0.35);
  EXPECT_NEAR(s1 / s3, 1.75, 0.45);
}

TEST(KExchange, GammaStillHoldsWithFaults) {
  RunSpec spec;
  spec.params = standard(7, 2, 12.0);
  spec.k_exchanges = 2;
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 10;
  spec.seed = 22;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
}

// Section 7's mean-vs-midpoint comparison is a statement about worst-case
// *bounds*: the adversary can shift the reduced mean by only f/(n-2f) of
// the kept spread versus up to 1/2 for the kept-range midpoint.  The rate
// itself is verified as a multiset property (MeanVariant.
// ConvergenceRateScalesWithNf in multiset_lemmas_test); the midpoint's 1/2
// is realized by the splitter only near n = 3f+1, where the kept set is
// sparse (see Convergence.SpreadHalvesPerRoundUnderWorstCaseSplitter).  At
// the system level we check what the variant must deliver: for n >> f the
// mean variant converges from a wide spread at least as fast as the
// midpoint and holds the same steady floor under active steering.
TEST(MeanVariant, ConvergesAndHoldsFloorUnderSteeringForLargeN) {
  core::Params p;
  p.n = 16;
  p.f = 2;
  p.rho = 1e-7;
  p.delta = 0.01;
  p.eps = 1e-6;
  p.P = 5.0;
  p.beta = 4e-3;
  ASSERT_TRUE(core::validate(p).empty());

  auto run = [&](core::Averaging averaging) {
    RunSpec spec;
    spec.params = p;
    spec.averaging = averaging;
    spec.fault = FaultKind::kTwoFaced;
    spec.fault_count = 2;
    spec.initial_spread = 0.9 * p.beta;
    spec.rounds = 12;
    spec.seed = 23;
    const RunResult result = analysis::run(spec);
    EXPECT_FALSE(result.diverged);
    EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
    return result;
  };

  const RunResult midpoint = run(core::Averaging::kMidpoint);
  const RunResult mean = run(core::Averaging::kReducedMean);
  ASSERT_GE(mean.begin_spread.size(), 4u);
  // One steered round cuts the mean variant's spread by at least the
  // f/(n-2f) + noise factor (far below 1/2).
  EXPECT_LT(mean.begin_spread[1], 0.35 * mean.begin_spread[0]);
  // Comparable (or better) steady behaviour vs the midpoint.
  EXPECT_LE(mean.gamma_measured, 1.5 * midpoint.gamma_measured);
}

TEST(MeanVariant, StillToleratesWorstAdversary) {
  RunSpec spec;
  spec.params = standard(16, 5, 10.0);
  spec.averaging = core::Averaging::kReducedMean;
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 5;
  spec.rounds = 12;
  spec.seed = 24;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
}

// Section 9.3: staggered broadcasts must behave "very similarly" to the
// original (no collisions configured here — pure algorithm change).
TEST(Stagger, BehavesLikeOriginalWithoutCollisions) {
  auto gamma_with_stagger = [&](double sigma) {
    RunSpec spec;
    spec.params = standard(7, 2, 10.0);
    spec.stagger = sigma;
    spec.rounds = 12;
    spec.seed = 25;
    const RunResult result = run(spec);
    EXPECT_FALSE(result.diverged) << "sigma=" << sigma;
    EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9))
        << "sigma=" << sigma;
    return result.gamma_measured;
  };
  const double plain = gamma_with_stagger(0.0);
  const double staggered = gamma_with_stagger(0.002);
  // Same ballpark: within 2x of each other.
  EXPECT_LT(staggered, 2.0 * plain + 1e-4);
}

// Section 4.1: negative adjustments can be stretched over the interval.
// The displayed local time must then be monotone, while agreement still
// holds with a modest allowance for the slew window.
TEST(Amortized, DisplayedTimeIsMonotoneAndAgrees) {
  RunSpec spec;
  spec.params = standard(4, 1, 5.0);
  spec.amortize = 0.5;  // spread each adjustment over 0.5 s
  spec.rounds = 12;
  spec.seed = 26;
  Experiment experiment(spec);
  const RunResult result = experiment.run();
  ASSERT_FALSE(result.diverged);

  // Monotonicity of displayed local time for every honest process.
  for (std::int32_t id : result.honest) {
    double prev = experiment.simulator().local_time(id, result.tmax0);
    for (double t = result.tmax0; t <= result.t_end; t += spec.params.P / 40) {
      const double current = experiment.simulator().local_time(id, t);
      EXPECT_GE(current, prev - 1e-12) << "id=" << id << " t=" << t;
      prev = current;
    }
  }
  // Agreement: slewing can lag the step by up to the largest adjustment.
  EXPECT_LE(result.gamma_measured,
            result.gamma_bound + result.adj_bound + 1e-9);
}

// Without amortization, steps can move displayed time backwards — confirm
// the contrast so the monotonicity test above is not vacuous.
TEST(Amortized, SteppedCorrectionCanGoBackwards) {
  RunSpec spec;
  spec.params = standard(4, 1, 5.0);
  spec.amortize = 0.0;
  spec.initial_spread = spec.params.beta * 0.9;  // force visible adjustments
  spec.delay = DelayKind::kSlow;
  spec.rounds = 3;
  spec.seed = 27;
  Experiment experiment(spec);
  const RunResult result = experiment.run();
  ASSERT_FALSE(result.diverged);
  // Sample at 0.5 ms: a backward step of ~beta/2 (>= 2 ms) beats the forward
  // progress between samples and shows up as a decrease.  Scan the first two
  // rounds, where the initial-offset corrections land.
  bool any_backwards = false;
  for (std::int32_t id : result.honest) {
    double prev = -1e300;
    for (double t = result.tmax0; t <= result.tmax0 + 2 * spec.params.P;
         t += 5e-4) {
      const double current = experiment.simulator().local_time(id, t);
      if (current < prev - 1e-12) any_backwards = true;
      prev = current;
    }
  }
  EXPECT_TRUE(any_backwards);
}

}  // namespace
}  // namespace wlsync::analysis
