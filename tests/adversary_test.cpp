// Adversary framework: honest processes cannot use Byzantine powers; each
// adversary behaves per its contract.

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "clock/drift.h"
#include "proc/adversaries.h"
#include "proc/placement.h"
#include "sim/simulator.h"

namespace wlsync::proc {
namespace {

std::unique_ptr<clk::PhysicalClock> perfect_clock() {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0,
                                              1e-4);
}

/// An honest process that (incorrectly) tries to read real time.
class Cheater : public Process {
 public:
  void on_start(Context& ctx) override {
    (void)AdversaryContext::from(ctx).real_time();
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

TEST(AdversaryPowers, HonestProcessCannotUseThem) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Cheater>(), perfect_clock(), 0.0,
                  /*faulty=*/false, 0.0);
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

TEST(AdversaryPowers, FaultyProcessCanUseThem) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Cheater>(), perfect_clock(), 0.0,
                  /*faulty=*/true, 0.0);
  EXPECT_NO_THROW(sim.run_until(1.0));
}

/// Counts received messages.
class Counter : public Process {
 public:
  void on_start(Context&) override {}
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override { ++count; }
  int count = 0;
};

TEST(SpamAdversary, FloodsRecipients) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  SpamAdversary::Config spam;
  spam.period = 0.01;
  spam.burst = 5;
  sim.add_process(std::make_unique<SpamAdversary>(spam), perfect_clock(), 0.0,
                  true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(1.0);
  EXPECT_GT(sim.messages_sent(), 100u);
}

TEST(SilentAdversary, SendsNothing) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<SilentAdversary>(), perfect_clock(), 0.0,
                  true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(1.0);
  EXPECT_EQ(sim.messages_sent(), 0u);
}

/// Broadcasts one message on start and on every timer.
class Beacon : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.broadcast(/*tag=*/1, /*value=*/100.0, 0);
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

TEST(TwoFacedAdversary, PredictsNextRoundAndSendsTwoFaces) {
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.001;
  sim::Simulator sim(config, nullptr);
  TwoFacedAdversary::Config two_faced;
  two_faced.pivot = 1;       // id 0 gets the early face
  two_faced.honest_end = 3;  // ids 1, 2 get the late face
  two_faced.tag = 1;
  two_faced.P = 0.5;
  two_faced.delta = config.delta;
  two_faced.beta = 0.1;  // wide span so the two faces are clearly separated
  // id 0, 1: counters; id 2: beacon (honest trigger); id 3: adversary.
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  sim.add_process(std::make_unique<Beacon>(), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<TwoFacedAdversary>(two_faced),
                  perfect_clock(), 0.0, true, 0.0);

  // Beacon's broadcast reaches the adversary at ~0.01; it schedules the
  // attack for the *predicted next round* at ~0.5: early face sent at
  // ~0.5 + 0.1*0.1, late at ~0.5 + 0.9*0.1.
  auto& early = dynamic_cast<Counter&>(sim.process(0));
  auto& late = dynamic_cast<Counter&>(sim.process(1));
  sim.run_until(0.05);
  EXPECT_EQ(early.count, 1);  // beacon only, attack still pending
  EXPECT_EQ(late.count, 1);
  sim.run_until(0.55);
  EXPECT_EQ(early.count, 2);  // early face landed
  EXPECT_EQ(late.count, 1);   // late face still pending
  sim.run_until(0.75);
  EXPECT_EQ(late.count, 2);   // late face landed
  EXPECT_EQ(early.count, 2);  // and only the chosen group got each face
}

// --------------------------------------------------------- sparse graphs ---
//
// The suite above exercises adversaries on the full mesh only.  These cases
// run the same fault kinds through the experiment harness on sparse
// exchange graphs, where honest processes clamp their clipping budget to
// the local neighbor view (f_local = (deg - 1) / 3): the two-faced attack
// must stay survivable even when every adversary sits at a structurally
// critical position and lies per-neighbor.

analysis::RunSpec sparse_fault_spec(net::TopologyKind kind) {
  analysis::RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;  // clique size 6 -> f_local = (6 - 1) / 3 = 1
  spec.rounds = 10;
  spec.seed = 808;
  spec.topology.kind = kind;
  spec.topology.clique_size = 6;
  spec.topology.degree = 6;
  return spec;
}

TEST(SparseFaults, TwoFacedAtJointsOfRingOfCliques) {
  analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kRingOfCliques);
  spec.placement = PlacementKind::kArticulation;  // joints via degree fallback
  const analysis::RunResult result = analysis::run(spec);
  EXPECT_FALSE(result.diverged);
  EXPECT_GE(result.completed_rounds, spec.rounds);
  EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound);
}

TEST(SparseFaults, TwoFacedOnExpanderEveryPlacement) {
  for (const PlacementKind placement :
       {PlacementKind::kTrailing, PlacementKind::kRandom,
        PlacementKind::kMaxDegree, PlacementKind::kAntipodal}) {
    analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kKRegular);
    spec.placement = placement;
    const analysis::RunResult result = analysis::run(spec);
    EXPECT_FALSE(result.diverged) << placement_name(placement);
    EXPECT_GE(result.completed_rounds, spec.rounds) << placement_name(placement);
    EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound)
        << placement_name(placement);
  }
}

TEST(SparseFaults, SilentAndSpamRespectLocalQuorums) {
  for (const analysis::FaultKind fault :
       {analysis::FaultKind::kSilent, analysis::FaultKind::kSpam}) {
    analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kRingOfCliques);
    spec.fault = fault;
    spec.placement = PlacementKind::kRandom;
    const analysis::RunResult result = analysis::run(spec);
    EXPECT_FALSE(result.diverged) << static_cast<int>(fault);
    EXPECT_GE(result.completed_rounds, spec.rounds);
  }
}

}  // namespace
}  // namespace wlsync::proc
