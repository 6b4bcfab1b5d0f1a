// [HSSD] (Section 10): signature-based synchronization.  Key shapes:
// tolerates f >= n/3 omission faults (impossible without signatures, [DHS]);
// agreement ~ delta + eps; rushing faults speed the nonfaulty clocks up
// (validity slope > 1) without breaking agreement.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/experiment.h"
#include "baselines/hssd.h"
#include "clock/drift.h"
#include "proc/adversaries.h"
#include "sim/simulator.h"

namespace wlsync::analysis {
namespace {

core::Params standard(std::int32_t n, std::int32_t f) {
  return core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
}

TEST(Hssd, FaultFreeAgreementIsDeltaEpsScale) {
  RunSpec spec;
  spec.params = standard(7, 2);
  spec.algo = Algo::kHSSD;
  spec.rounds = 14;
  spec.seed = 3;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  // About delta + eps (Section 10); allow 1.5x.
  EXPECT_LT(result.gamma_measured,
            1.5 * (spec.params.delta + spec.params.eps));
  EXPECT_TRUE(result.validity.holds);
}

TEST(Hssd, ToleratesHalfSilentWithSignatures) {
  // n = 4 with 2 silent faults: f = 2 > (n-1)/3, impossible for the
  // signature-free algorithms (A2), fine for [HSSD].
  core::Params p = standard(7, 2);  // algebra for beta/P
  p.n = 4;                          // but only 4 processes exist
  RunSpec spec;
  spec.params = p;
  spec.algo = Algo::kHSSD;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.rounds = 14;
  spec.seed = 4;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  ASSERT_GE(result.completed_rounds, 13);
  EXPECT_LT(result.gamma_measured, 1.5 * (p.delta + p.eps));
}

TEST(Hssd, WelchLynchCannotDoThat) {
  // The same 2-silent-of-4 setting is outside the averaging algorithm's
  // domain altogether: reduce() needs n >= 2f+1 = 5 entries.  The library
  // refuses the configuration up front.
  core::Params p = standard(7, 2);
  p.n = 4;
  RunSpec spec;
  spec.params = p;
  spec.algo = Algo::kWelchLynch;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.rounds = 14;
  spec.seed = 4;
  EXPECT_THROW((void)run(spec), std::invalid_argument);
}

/// Rushing signer: a faulty-but-signature-abiding process that broadcasts
/// its *own* chain for round k+1 as early as the timeliness test allows,
/// dragging everyone's clock forward (Section 10's observation about
/// [HSSD]'s validity).  Because the attack itself accelerates the schedule,
/// a single predicted send could miss the acceptance window; the rusher
/// fires a burst of copies spaced 2*eps apart across the window — honest
/// processes accept whichever lands earliest and ignore the rest.
class RushingSigner final : public proc::Process {
 public:
  explicit RushingSigner(core::Params params) : params_(params) {}

  void on_start(proc::Context&) override {}
  void on_timer(proc::Context& ctx, std::int32_t) override {
    ctx.broadcast(baselines::kSignedTag, params_.round_label(next_), 1);
  }
  void on_message(proc::Context& ctx, const sim::Message& m) override {
    if (m.tag != baselines::kSignedTag) return;
    if (m.from == ctx.id()) return;  // ignore own echoes
    const auto i = static_cast<std::int32_t>(
        std::llround((m.value - params_.T0) / params_.P));
    if (i < next_) return;
    next_ = i + 1;
    // Honest acceptors require local >= ET - k(1+rho)(delta+eps), so the
    // most damaging arrival is ~delta+eps before the label.  Sweep send
    // times across [-2.5*delta, 0] relative to the predicted label.
    auto& actx = proc::AdversaryContext::from(ctx);
    const double next_label_real =
        actx.real_time() - params_.delta + params_.P;
    for (double lead = 2.5 * params_.delta; lead >= 0.0;
         lead -= 2.0 * params_.eps) {
      actx.set_timer_real(next_label_real - lead, 1);
    }
  }

 private:
  core::Params params_;
  std::int32_t next_ = 1;
};

TEST(Hssd, RushingFaultSpeedsClocksUpButAgreementHolds) {
  const core::Params p = standard(7, 2);

  auto elapsed_ratio = [&](bool with_rusher) {
    sim::SimConfig sim_config;
    sim_config.delta = p.delta;
    sim_config.eps = p.eps;
    sim_config.seed = 11;
    sim::Simulator sim(sim_config, nullptr);
    std::vector<std::int32_t> honest;
    for (std::int32_t id = 0; id < 6; ++id) {
      auto clock = std::make_unique<clk::PhysicalClock>(
          clk::make_constant(1.0), 10.0 * id, p.rho);
      const double corr0 = p.T0 - clock->now(0.0);
      honest.push_back(id);
      sim.add_process(std::make_unique<baselines::HssdProcess>(p),
                      std::move(clock), corr0, false, 0.0);
    }
    if (with_rusher) {
      auto clock = std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0),
                                                        0.0, p.rho);
      sim.add_process(std::make_unique<RushingSigner>(p), std::move(clock),
                      p.T0, true, 0.0);
    }
    const double horizon = 12 * p.P;
    sim.run_until(horizon);
    double max_skew = 0.0;
    for (std::int32_t a : honest) {
      for (std::int32_t b : honest) {
        max_skew = std::max(max_skew, sim.local_time(a, horizon) -
                                          sim.local_time(b, horizon));
      }
    }
    EXPECT_LT(max_skew, 1.5 * (p.delta + p.eps));
    // Elapsed local time per elapsed real time.
    return (sim.local_time(0, horizon) - p.T0) / horizon;
  };

  const double honest_rate = elapsed_ratio(false);
  const double rushed_rate = elapsed_ratio(true);
  // Perfect clocks: without attack the rate is ~1; with the rusher every
  // round is pulled forward by up to ~delta, i.e. rate up to ~1 + d/P.
  EXPECT_NEAR(honest_rate, 1.0, 2e-3);
  EXPECT_GT(rushed_rate, honest_rate + 0.3 * (p.delta + p.eps) / p.P);
}

TEST(Hssd, AdjustmentIsDeltaScale) {
  RunSpec spec;
  spec.params = standard(7, 2);
  spec.algo = Algo::kHSSD;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  spec.rounds = 12;
  spec.seed = 5;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  // Clocks advance to ET_i on acceptance: adjustments are delta-scale
  // (Section 10 quotes ~(f+1)(delta+eps) worst case), far above WL's ~5 eps.
  EXPECT_LT(result.max_abs_adj,
            (spec.params.f + 1) * (spec.params.delta + spec.params.eps));
}

}  // namespace
}  // namespace wlsync::analysis
