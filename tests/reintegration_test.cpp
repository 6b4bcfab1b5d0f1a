// Section 9.1: a crashed-and-repaired process resynchronizes with the
// ordinary averaging procedure and rejoins within beta.  A crash and repair
// is a churn schedule (leave, then rejoin) on a maintenance run; the run
// reports each completed rejoin in RunResult::rejoins.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "clock/drift.h"
#include "core/reintegration.h"
#include "sim/simulator.h"
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

/// A faulty process that broadcasts scripted round labels at fixed real
/// times: (real time, label) pairs.
class LabelScript final : public proc::Process {
 public:
  explicit LabelScript(std::vector<std::pair<double, double>> script)
      : script_(std::move(script)) {}
  void on_start(proc::Context& ctx) override {
    for (std::size_t i = 0; i < script_.size(); ++i) {
      proc::AdversaryContext::from(ctx).set_timer_real(
          script_[i].first, static_cast<std::int32_t>(i));
    }
  }
  void on_timer(proc::Context& ctx, std::int32_t tag) override {
    ctx.broadcast(core::kTimeTag, script_[static_cast<std::size_t>(tag)].second,
                  0);
  }
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  std::vector<std::pair<double, double>> script_;
};

TEST(Reintegration, OneSenderCannotOrientOnTheUnheardSentinel) {
  // n = 4, f = 1: orientation needs f + 1 = 2 senders of one label.  Process
  // 1 first sends the label kNeverArrived, the value no neighbour has sent
  // yet; it is one sender and must not orient the joiner on it.  Then
  // processes 1-3 send the real labels L and L + P, and the joiner joins.
  const core::Params params = standard(4, 1);
  const double label = params.T0 + 5 * params.P;
  sim::Simulator sim(sim::SimConfig{}, nullptr);
  auto joiner_owned = std::make_unique<core::ReintegrationProcess>(
      core::WelchLynchConfig{params});
  const core::ReintegrationProcess* joiner = joiner_owned.get();
  auto clock = [&] {
    return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0,
                                                params.rho);
  };
  sim.add_process(std::move(joiner_owned), clock(), 0.0, false, 0.0);
  for (std::int32_t q = 1; q < 4; ++q) {
    std::vector<std::pair<double, double>> script = {
        {1.0, label}, {1.0 + params.P, label + params.P}};
    if (q == 1) script.insert(script.begin(), {0.1, core::kNeverArrived});
    sim.add_process(std::make_unique<LabelScript>(std::move(script)), clock(),
                    0.0, true, 0.0);
  }
  sim.run_until(2.0 + params.P);
  EXPECT_TRUE(joiner->joined());
}

}  // namespace
}  // namespace wlsync::analysis
