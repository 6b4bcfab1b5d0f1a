// Section 10 comparators on the shared substrate: each baseline synchronizes
// fault-free; the ablation (plain mean) breaks under one Byzantine process
// while Welch-Lynch shrugs; the comparative shapes (LM ~ 2 n eps growth,
// ST ~ delta + eps) hold; the [MS] acceptance rule equals the naive
// pairwise count bit for bit; [ST] counts a point-to-point sender from
// outside its neighborhood once, however often it sends.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "baselines/averaging_rounds.h"
#include "baselines/srikanth_toueg.h"
#include "proc/context.h"
#include "sim/message.h"
#include "ms_reference.h"
#include "util/rng.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f, double P = 10.0) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, P);
}

double steady_skew(Algo algo, FaultKind fault, std::int32_t n, std::int32_t f,
                   std::uint64_t seed, bool* diverged = nullptr) {
  RunSpec spec;
  spec.params = standard(n, f);
  spec.algo = algo;
  spec.fault = fault;
  spec.fault_count = fault == FaultKind::kNone ? 0 : f;
  spec.rounds = 14;
  spec.seed = seed;
  const RunResult result = run(spec);
  if (diverged != nullptr) *diverged = result.diverged;
  return result.gamma_measured;
}

TEST(Baselines, AllConvergeFaultFree) {
  for (Algo algo : {Algo::kLM, Algo::kST, Algo::kMS, Algo::kPlainMean}) {
    bool diverged = true;
    const double skew =
        steady_skew(algo, FaultKind::kNone, 7, 2, 42, &diverged);
    EXPECT_FALSE(diverged) << "algo " << static_cast<int>(algo);
    // All should hold skew below delta + eps scale fault-free.
    EXPECT_LT(skew, 0.02) << "algo " << static_cast<int>(algo);
  }
}

TEST(Baselines, PlainMeanBreaksUnderOneLiarWelchLynchDoesNot) {
  auto run = [](Algo algo) {
    RunSpec spec;
    spec.params = standard(4, 1);
    spec.algo = algo;
    spec.fault = FaultKind::kLiar;
    spec.fault_count = 1;
    spec.rounds = 14;
    spec.seed = 7;
    return analysis::run(spec);
  };
  const RunResult wl = run(Algo::kWelchLynch);
  const RunResult pm = run(Algo::kPlainMean);
  EXPECT_FALSE(wl.diverged);
  EXPECT_LT(wl.gamma_measured, 0.01);
  EXPECT_TRUE(wl.validity.holds);
  // The liar's ~7.5 s-late messages drag the unguarded mean every round.
  // The honest processes move *together* (agreement can survive), but
  // validity — local time tracking real time — is destroyed.  That is
  // exactly the trivial-solution failure Theorem 19 exists to rule out.
  EXPECT_FALSE(pm.validity.holds);
  EXPECT_GT(pm.validity.max_lower_violation + pm.validity.max_upper_violation,
            1.0);
}

TEST(Baselines, LMToleratesByzantineWithinItsBound) {
  bool diverged = true;
  const double lm =
      steady_skew(Algo::kLM, FaultKind::kTwoFaced, 7, 2, 8, &diverged);
  EXPECT_FALSE(diverged);
  // [LM]'s bound is about 2 n eps' — generous check at 4 n eps + beta.
  const core::Params p = standard(7, 2);
  EXPECT_LT(lm, 4 * 7 * p.eps + p.beta);
}

TEST(Baselines, STAgreementIsDeltaEpsScale) {
  bool diverged = true;
  const double st =
      steady_skew(Algo::kST, FaultKind::kSilent, 7, 2, 9, &diverged);
  EXPECT_FALSE(diverged);
  const core::Params p = standard(7, 2);
  // About delta + eps; allow 2x.
  EXPECT_LT(st, 2 * (p.delta + p.eps));
}

TEST(Baselines, STSurvivesTwoFaced) {
  // The splitter's forged time messages don't match ST's tick protocol
  // (ticks carry round numbers); inject spam instead, which does.
  bool diverged = true;
  const double st =
      steady_skew(Algo::kST, FaultKind::kSpam, 7, 2, 10, &diverged);
  EXPECT_FALSE(diverged);
  const core::Params p = standard(7, 2);
  EXPECT_LT(st, 3 * (p.delta + p.eps));
}

TEST(Baselines, MSDegradesGracefullyPastF) {
  // With f+1 actual faults (beyond the design point f), MS still keeps the
  // skew bounded-ish while WL's guarantees are void.  We only require that
  // MS does not diverge.
  RunSpec spec;
  spec.params = standard(10, 3);
  spec.algo = Algo::kMS;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 4;  // > f = 3
  spec.rounds = 12;
  spec.seed = 11;
  const RunResult result = run(spec);
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.gamma_measured, 0.05);
}

// The headline Section 10 shape under Byzantine pressure: the egocentric
// average [LM] leaves a bigger residual skew than the fault-tolerant
// midpoint, and Welch-Lynch's guarantee is independent of system scale
// (gamma depends only on beta, eps, rho, delta — not n).
TEST(Comparison, WelchLynchBeatsLMUnderAttackAndStaysFlatWithScale) {
  double lm_small = 0, lm_large = 0, wl_small = 0, wl_large = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    lm_small += steady_skew(Algo::kLM, FaultKind::kTwoFaced, 7, 2, seed) / 3;
    lm_large += steady_skew(Algo::kLM, FaultKind::kTwoFaced, 16, 5, seed) / 3;
    wl_small +=
        steady_skew(Algo::kWelchLynch, FaultKind::kTwoFaced, 7, 2, seed) / 3;
    wl_large +=
        steady_skew(Algo::kWelchLynch, FaultKind::kTwoFaced, 16, 5, seed) / 3;
  }
  EXPECT_GT(lm_small, wl_small);
  EXPECT_GT(lm_large, wl_large);
  // WL stays flat as (n, f) scale 2.3x; LM's residual is the one that moves.
  EXPECT_LT(wl_large, 1.5 * wl_small + 1e-3);
}

// --- [MS] acceptance against the naive O(n^2) rule -----------------------

/// The rule under test for a given f and tau (the neighbor view's size is
/// the n the rule uses; params().n does not enter).
double ms_rule(const std::vector<double>& diffs, std::int32_t f, double tau) {
  core::Params params = standard(4, 1);
  params.f = f;
  const baselines::MahaneySchneiderProcess process(params, tau);
  return process.compute_adjustment(diffs);
}

void expect_ms_matches(const std::vector<double>& diffs, std::int32_t f,
                       double tau, const std::string& what) {
  EXPECT_EQ(ms_rule(diffs, f, tau), reference::ms_adjustment(diffs, f, tau))
      << what << " (n=" << diffs.size() << " f=" << f << " tau=" << tau
      << ")";
}

TEST(MahaneySchneider, AcceptanceMatchesPairwiseCountOnEdgeCases) {
  constexpr double kTau = 0.0009765625;  // 2^-10: 1 + tau is exact
  constexpr double kNever = core::kNeverArrived;
  const double up = std::nextafter(1.0 + kTau, 2.0);
  const double down = std::nextafter(1.0 + kTau, 1.0);

  // Pairs exactly tau apart, and one ulp either side of tau.  Each view
  // needs exactly two supporters (n - f = 2), so one pair at the boundary
  // decides whether its two values are kept.
  expect_ms_matches({0.0, kTau, 1.0, 1.0 + kTau, -1.0}, 3, kTau,
                    "exactly tau apart");
  expect_ms_matches({0.0, kTau, 1.0, up}, 2, kTau, "one ulp past tau");
  expect_ms_matches({0.0, kTau, 1.0, down}, 2, kTau, "one ulp inside tau");
  expect_ms_matches({0.0, -kTau, 3.0}, 1, kTau, "exactly -tau apart");
  // The whole view spans exactly tau (the spread check accepts all), and
  // one ulp more (every value has only itself).
  expect_ms_matches({0.0, kTau}, 0, kTau, "spread exactly tau");
  expect_ms_matches({0.0, std::nextafter(kTau, 1.0)}, 0, kTau,
                    "spread one ulp past tau");
  expect_ms_matches({std::nextafter(-kTau, -1.0), 0.0}, 0, kTau,
                    "spread one ulp past tau, below");
  // Missing slots take no part in any count.
  expect_ms_matches({kNever, 0.0, 1e-4, kNever, -2e-4, 5.0}, 2, kTau,
                    "kNeverArrived slots");
  // Fewer present values than n - f: nothing can be accepted, every term
  // is 0 — once with a spread above tau, once within it (the fast exit
  // with present < needed).
  expect_ms_matches({kNever, kNever, kNever, 0.0, 3e-4, 9.0}, 1, kTau,
                    "too few present, wide spread");
  expect_ms_matches({kNever, kNever, kNever, 0.0, 3e-4, 1e-4}, 1, kTau,
                    "too few present, within tau");
  // n <= f: needed falls back to one supporter, the value itself.
  expect_ms_matches({0.0, 7.0, -3.0}, 3, kTau, "n == f");
  expect_ms_matches({0.0, 7.0}, 5, kTau, "n < f");
  expect_ms_matches({kNever, kNever}, 5, kTau, "n < f, nothing present");
  // Everything within tau and present: all accepted through the fast exit.
  expect_ms_matches({0.0, 1e-4, -3e-4, 2e-4}, 1, kTau, "within tau");
  // Two-faced outliers around an honest cluster, on both sides, plus one
  // outlier pair close enough to support each other.
  expect_ms_matches({0.0, 1e-4, -1e-4, 2e-4, 1e3, -1e3, 5e2, 5e2 + 1e-4,
                     kNever, 3e-4},
                    3, kTau, "two-faced outliers");
}

TEST(MahaneySchneider, AcceptanceMatchesPairwiseCountOnRandomViews) {
  util::Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(1 + rng.uniform() * 150);
    const auto f = static_cast<std::int32_t>(rng.uniform() *
                                             static_cast<double>(n + 2));
    const double tau = trial % 3 == 0 ? 0.0009765625 : rng.uniform(1e-5, 1e-2);
    std::vector<double> diffs(n);
    for (double& v : diffs) {
      const double u = rng.uniform();
      if (u < 0.1) {
        v = core::kNeverArrived;
      } else if (u < 0.2) {
        v = rng.uniform(-1e3, 1e3);  // two-faced extreme
      } else if (u < 0.5) {
        // Snapped to quarter-tau steps: many pairs exactly tau apart.
        v = std::round(rng.uniform(-2.0, 2.0) * 4.0) * tau / 4.0;
      } else {
        v = rng.uniform(-1.5, 1.5) * tau;
      }
    }
    diffs[static_cast<std::size_t>(rng.uniform() * static_cast<double>(n))] =
        0.0;  // the caller's own slot
    expect_ms_matches(diffs, f, tau, "trial " + std::to_string(trial));
  }
}

/// A process' window with a fixed neighborhood that records what the
/// process does: broadcasts and CORR adjustments.  Time stands still.
class RecordingContext final : public proc::Context {
 public:
  RecordingContext(std::int32_t id, std::int32_t n,
                   std::vector<std::int32_t> neighbors)
      : id_(id), n_(n), neighbors_(std::move(neighbors)) {}

  [[nodiscard]] std::int32_t id() const override { return id_; }
  [[nodiscard]] std::int32_t process_count() const override { return n_; }
  [[nodiscard]] std::span<const std::int32_t> neighbors() const override {
    return neighbors_;
  }
  [[nodiscard]] double physical_time() const override { return 10.0; }
  [[nodiscard]] double local_time() const override { return 10.0 + corr_; }
  [[nodiscard]] double corr() const override { return corr_; }
  void add_corr(double adj) override {
    corr_ += adj;
    ++adjustments;
  }
  void add_corr_amortized(double adj, double) override { add_corr(adj); }
  void broadcast(std::int32_t, double, std::int32_t) override { ++broadcasts; }
  void send(std::int32_t, std::int32_t, double, std::int32_t) override {}
  void set_timer(double, std::int32_t) override {}
  void set_timer_physical(double, std::int32_t) override {}
  void annotate(const proc::Annotation&) override {}

  int broadcasts = 0;
  int adjustments = 0;

 private:
  std::int32_t id_;
  std::int32_t n_;
  std::vector<std::int32_t> neighbors_;
  double corr_ = 0.0;
};

TEST(SrikanthToueg, OutOfNeighborhoodSenderCountsOnce) {
  // Process 2 of 8 hears {0, 2, 5}; with f = 1 the relay quorum is 2 and
  // the accept quorum min(2f + 1, 3) = 3.  Id 7 is no neighbor, but a
  // Byzantine point-to-point send from it is a distinct sender all the
  // same — once, however often it repeats.
  baselines::SrikanthTouegProcess process(standard(8, 1));
  RecordingContext ctx(2, 8, {0, 2, 5});
  const auto tick = [&](std::int32_t from) {
    process.on_message(ctx, sim::make_app(from, baselines::kTickTag, 0.0, 1));
  };
  tick(7);
  tick(7);
  EXPECT_EQ(ctx.broadcasts, 0) << "a repeated non-neighbor counted twice";
  tick(0);  // second distinct sender: relay
  EXPECT_EQ(ctx.broadcasts, 1);
  EXPECT_EQ(ctx.adjustments, 0);
  tick(7);
  tick(0);
  EXPECT_EQ(ctx.adjustments, 0) << "a repeated sender reached the quorum";
  tick(5);  // third distinct sender: accept round 1
  EXPECT_EQ(ctx.adjustments, 1);
  EXPECT_EQ(process.round(), 1);
}

}  // namespace
}  // namespace wlsync::analysis
