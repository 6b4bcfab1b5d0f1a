// Theorem 4 invariants, checked over randomized executions across every
// adversary and delay model:
//   (a) |ADJ^i| <= (1+rho)(beta+eps) + rho*delta for every nonfaulty update;
//   (c) nonfaulty round begins are within beta of each other;
//   (b)/(d) hold implicitly: if timers were set in the past the round
//   structure stalls (completed_rounds drops), and late messages corrupt
//   ARR and blow the (a)/(c) bounds.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

struct Theorem4Case {
  std::uint64_t seed;
  FaultKind fault;
  DelayKind delay;
  DriftKind drift;
  std::int32_t n;
  std::int32_t f;
  // Variant knobs: the invariants must survive every algorithm variant too.
  std::int32_t k_exchanges = 1;
  double stagger = 0.0;
  double amortize = 0.0;
};

std::string case_name(const ::testing::TestParamInfo<Theorem4Case>& info) {
  const auto& c = info.param;
  std::string name = "s";
  name += std::to_string(c.seed);
  name += "_fault" + std::to_string(static_cast<int>(c.fault));
  name += "_delay" + std::to_string(static_cast<int>(c.delay));
  name += "_drift" + std::to_string(static_cast<int>(c.drift));
  name += "_n" + std::to_string(c.n) + "f" + std::to_string(c.f);
  if (c.k_exchanges > 1) name += "_k" + std::to_string(c.k_exchanges);
  if (c.stagger > 0) name += "_stag";
  if (c.amortize > 0) name += "_slew";
  return name;
}

class Theorem4 : public ::testing::TestWithParam<Theorem4Case> {};

TEST_P(Theorem4, InvariantsHold) {
  const Theorem4Case& c = GetParam();
  RunSpec spec;
  spec.params = core::make_params(c.n, c.f, /*rho=*/1e-5, /*delta=*/0.01,
                                  /*eps=*/1e-3, /*P=*/10.0);
  spec.fault = c.fault;
  spec.fault_count = c.fault == FaultKind::kNone ? 0 : c.f;
  spec.delay = c.delay;
  spec.drift = c.drift;
  spec.k_exchanges = c.k_exchanges;
  spec.stagger = c.stagger;
  spec.amortize = c.amortize;
  spec.rounds = 12;
  spec.seed = c.seed;

  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  ASSERT_GE(result.completed_rounds, spec.rounds);

  // (a): every nonfaulty adjustment within the bound.
  EXPECT_LE(result.max_abs_adj, result.adj_bound * (1 + 1e-9));

  // (c): every complete round's begin spread within beta.  (Staggered mode
  // offsets broadcasts deliberately, so (c) is asserted on the plain
  // schedule only.)
  if (c.stagger == 0.0) {
    for (std::size_t r = 0; r < result.begin_spread.size(); ++r) {
      EXPECT_LE(result.begin_spread[r], spec.params.beta * (1 + 1e-9))
          << "round " << r;
    }
  }

  // Theorem 16 while we are here: the skew stays within gamma (plus one
  // adjustment of slew allowance in amortized mode).
  const double gamma_allowance = c.amortize > 0.0 ? result.adj_bound : 0.0;
  EXPECT_LE(result.gamma_measured,
            (result.gamma_bound + gamma_allowance) * (1 + 1e-9));
}

std::vector<Theorem4Case> theorem4_cases() {
  std::vector<Theorem4Case> cases;
  const FaultKind faults[] = {FaultKind::kNone, FaultKind::kSilent,
                              FaultKind::kSpam, FaultKind::kTwoFaced,
                              FaultKind::kLiar};
  const DelayKind delays[] = {DelayKind::kUniform, DelayKind::kFast,
                              DelayKind::kSlow, DelayKind::kPerLink,
                              DelayKind::kSplit};
  const DriftKind drifts[] = {DriftKind::kExtremal, DriftKind::kPiecewise,
                              DriftKind::kRandomWalk};
  std::uint64_t seed = 1;
  for (FaultKind fault : faults) {
    for (DelayKind delay : delays) {
      cases.push_back({seed++, fault, delay, DriftKind::kExtremal, 7, 2});
    }
    for (DriftKind drift : drifts) {
      cases.push_back({seed++, fault, DelayKind::kUniform, drift, 4, 1});
    }
  }
  // Larger configurations, fewer seeds.
  cases.push_back({seed++, FaultKind::kTwoFaced, DelayKind::kUniform,
                   DriftKind::kPiecewise, 10, 3});
  cases.push_back({seed++, FaultKind::kSpam, DelayKind::kSplit,
                   DriftKind::kRandomWalk, 13, 4});
  // Algorithm variants under every fault class.
  for (FaultKind fault : faults) {
    Theorem4Case kex{seed++, fault, DelayKind::kUniform, DriftKind::kExtremal,
                     7, 2};
    kex.k_exchanges = 2;
    cases.push_back(kex);
    Theorem4Case stag{seed++, fault, DelayKind::kUniform, DriftKind::kExtremal,
                      7, 2};
    stag.stagger = 0.002;
    cases.push_back(stag);
    Theorem4Case slew{seed++, fault, DelayKind::kUniform, DriftKind::kExtremal,
                      7, 2};
    slew.amortize = 0.5;
    cases.push_back(slew);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem4, ::testing::ValuesIn(theorem4_cases()),
                         case_name);

// The A2 boundary.  With n >= 3f+1 the reduce step leaves n - 2f >= f+1
// values, any two processes' kept ranges overlap in an honest value
// (Lemma 23/24), and the gamma bound holds against EVERY adversary —
// including our strongest constructive splitter.  Below the threshold the
// guarantee degrades monotonically as the splitter gains leverage over the
// kept range.  (Outright divergence at n = 3f is shown impossible to
// *prevent* by [DHS] via an indistinguishability argument; that adversary
// is not a constructive message strategy, so what a concrete attack shows
// is degradation, not explosion.)
TEST(FaultBoundary, GuaranteeDegradesBelowThreeFPlusOne) {
  auto worst_ratio = [&](std::int32_t n, std::int32_t f) {
    core::Params p;
    p.n = n;
    p.f = f;
    p.rho = 1e-5;
    p.delta = 0.01;
    p.eps = 1e-3;
    p.P = 10.0;
    p.beta = core::beta_for_round_length(p.P, p.rho, p.delta, p.eps) * 1.05;
    double worst = 0.0;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      RunSpec spec;
      spec.params = p;
      spec.fault = FaultKind::kTwoFaced;
      spec.fault_count = f;
      spec.rounds = 30;
      spec.seed = seed;
      const RunResult result = run(spec);
      worst = std::max(worst, result.gamma_measured / result.gamma_bound);
    }
    return worst;
  };

  // At and above the A2 threshold: gamma holds with margin.
  const double ok_f2 = worst_ratio(7, 2);
  const double ok_f3 = worst_ratio(10, 3);
  EXPECT_LE(ok_f2, 1.0);
  EXPECT_LE(ok_f3, 1.0);
  // At n = 2f+1 (deep below the threshold) the same attack does measurably
  // more damage; the trend toward breakage is monotone.
  EXPECT_GE(worst_ratio(5, 2), 1.3 * ok_f2);
  EXPECT_GE(worst_ratio(7, 3), 1.3 * ok_f3);
}

}  // namespace
}  // namespace wlsync::analysis
