// Pins for the composable scenario API:
//   - ScenarioSpec is the RunSpec's base subobject (aliasing, not a copy);
//   - analysis::run() builds every algorithm, Section 9.2 start-up
//     included, through one path: start-up honours the shared knobs and
//     build() rejects by name the few it cannot;
//   - the arbitrary-initial-state (self-stabilization) workload measures a
//     deterministic stabilization round / time;
//   - the adaptive-adversary env reproduces bit for bit under the same
//     action sequence, and different actions change the physics.

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "core/params.h"
#include "scenario/adversary_env.h"

namespace {

using namespace wlsync;
using analysis::RunResult;
using analysis::RunSpec;

RunSpec small_spec() {
  RunSpec spec;
  spec.params = core::make_params(8, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 10;
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.seed = 42;
  return spec;
}

TEST(ScenarioSpec, IsTheRunSpecBaseSubobjectNotACopy) {
  RunSpec spec = small_spec();
  // The nested view IS the flat spec: same address, same bytes.
  analysis::ScenarioSpec& nested = spec.scenario();
  EXPECT_EQ(static_cast<analysis::ScenarioSpec*>(&spec), &nested);

  // Historical flat access and the nested view read the same field...
  EXPECT_EQ(spec.fault, nested.fault);
  EXPECT_EQ(spec.fault_count, nested.fault_count);

  // ...and a mutation through either side is visible through the other.
  nested.fault_count = 2;
  EXPECT_EQ(spec.fault_count, 2);
  spec.placement = proc::PlacementKind::kMaxDegree;
  EXPECT_EQ(nested.placement, proc::PlacementKind::kMaxDegree);

  const RunSpec& cspec = spec;
  EXPECT_EQ(&cspec.scenario(), static_cast<const analysis::ScenarioSpec*>(&cspec));
}

TEST(ScenarioSpec, ScenarioSliceIsCopyableAsOneValue) {
  RunSpec a = small_spec();
  a.topology.kind = net::TopologyKind::kRingOfCliques;
  a.topology.clique_size = 4;
  a.dynamics.fail_link(50.0, 0, 1).heal_link(80.0, 0, 1);

  // A scenario generator composes the WHO/WHERE/WHAT/HOW slice wholesale.
  RunSpec b;
  b.params = a.params;
  b.rounds = a.rounds;
  b.seed = a.seed;
  b.scenario() = a.scenario();
  EXPECT_EQ(b.fault, analysis::FaultKind::kTwoFaced);
  EXPECT_EQ(b.topology.kind, net::TopologyKind::kRingOfCliques);
  ASSERT_EQ(b.dynamics.events.size(), 2u);

  const RunResult ra = analysis::run(a);
  const RunResult rb = analysis::run(b);
  EXPECT_TRUE(analysis::results_identical(ra, rb));
}

TEST(UnifiedRun, MaintenanceModeIsDeterministicWithoutPayloads) {
  const RunSpec spec = small_spec();
  const RunResult first = analysis::run(spec);
  const RunResult second = analysis::run(spec);
  EXPECT_TRUE(analysis::results_identical(first, second));
  EXPECT_FALSE(first.startup.has_value());
  EXPECT_TRUE(first.rejoins.empty());
  EXPECT_GT(first.wall_seconds, 0.0);
}

// ------------------------------------------------------------------------
// Start-up is one more algorithm: it honours the shared knobs, and build()
// rejects by name the few combinations it cannot run.

RunSpec startup_spec() {
  RunSpec spec;
  spec.algo = analysis::Algo::kStartup;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 12;
  spec.initial_clock_spread = 1.0;
  return spec;
}

/// A maintenance run whose process 0 crashes at `crash` and is repaired at
/// `wake` (Section 9.1).
RunSpec rejoin_spec(double crash, double wake, std::int32_t rounds) {
  RunSpec spec;
  spec.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.dynamics.leave(crash, 0).rejoin(wake, 0);
  spec.rounds = rounds;
  return spec;
}

/// The std::invalid_argument message run() throws for `spec`; empty when
/// it runs.
std::string rejection(const RunSpec& spec) {
  try {
    (void)analysis::run(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Applies `mutate` to a valid start-up spec and expects run() to reject
/// it with a message containing `message`.
template <typename Mutate>
void expect_startup_rejects(Mutate mutate, const std::string& message) {
  RunSpec spec = startup_spec();
  mutate(spec);
  EXPECT_NE(rejection(spec).find(message), std::string::npos)
      << "\"" << rejection(spec) << "\" does not contain " << message;
}

TEST(ModeValidation, BaseSpecsRun) {
  EXPECT_EQ(rejection(startup_spec()), "");
  RunSpec spam = startup_spec();
  spam.fault = analysis::FaultKind::kSpam;
  spam.fault_count = 2;
  spam.engine = analysis::EngineMode::kEvent;
  EXPECT_EQ(rejection(spam), "");
}

TEST(ModeValidation, RejectsDynamics) {
  expect_startup_rejects([](RunSpec& s) { s.dynamics.fail_link(5.0, 0, 1); },
                         "dynamics schedules require Algo::kWelchLynch");
}

TEST(ModeValidation, StartupHonoursSharedKnobs) {
  // Each row sets one knob on a start-up spec and checks that it reaches
  // the result.  The algorithm knobs configure the maintenance algorithm
  // the handoff resumes, so those rows must leave the start-up rounds
  // before the switch untouched.  Two silent faults make every honest
  // READY count, so no straggler misses the handoff.
  using analysis::FaultKind;
  RunSpec base = startup_spec();
  base.startup_handoff = true;
  base.fault = FaultKind::kSilent;
  base.fault_count = 2;
  const RunResult plain = analysis::run(base);
  ASSERT_TRUE(plain.startup->handoff_done);
  const auto same_startup_rounds = [&](auto&, const RunResult& r) {
    const auto before = static_cast<std::size_t>(base.rounds - 1);
    return r.startup->handoff_done && r.skew_at_round.size() >= before &&
           std::equal(r.skew_at_round.begin(),
                      r.skew_at_round.begin() +
                          static_cast<std::ptrdiff_t>(before),
                      plain.skew_at_round.begin()) &&
           !analysis::results_identical(r, plain);
  };

  struct Row {
    const char* knob;
    std::function<void(RunSpec&)> set;
    std::function<bool(analysis::Experiment&, const RunResult&)> reached;
  };
  const std::vector<Row> rows = {
      {"fault_mix",
       [](RunSpec& s) {
         s.fault = FaultKind::kNone;
         s.fault_count = 0;
         s.fault_mix = {{FaultKind::kSilent, 2}};
       },
       [&](auto&, const RunResult& r) {
         return analysis::results_identical(r, plain);
       }},
      {"placement",
       [](RunSpec& s) { s.placement = proc::PlacementKind::kRandom; },
       [&](auto&, const RunResult& r) { return r.honest != plain.honest; }},
      {"placement_ids", [](RunSpec& s) { s.placement_ids = {0, 1}; },
       [](auto&, const RunResult& r) {
         return r.honest == std::vector<std::int32_t>{2, 3, 4, 5, 6};
       }},
      {"nic", [](RunSpec& s) { s.nic = sim::NicConfig{}; },
       [](auto&, const RunResult& r) { return r.nic.arrivals > 0; }},
      {"measure_gradient", [](RunSpec& s) { s.measure_gradient = true; },
       [](auto&, const RunResult& r) { return r.gradient.measured(); }},
      {"stabilize_threshold",
       [](RunSpec& s) { s.stabilize_threshold = 1e9; },
       [&](auto&, const RunResult& r) {
         return plain.stabilized_round > 0 && r.stabilized_round == 0;
       }},
      {"initial_spread", [](RunSpec& s) { s.initial_spread = 0.001; },
       [](auto&, const RunResult& r) { return r.tmax0 == 0.001; }},
      {"averaging",
       [](RunSpec& s) { s.averaging = core::Averaging::kReducedMean; },
       same_startup_rounds},
      {"k_exchanges", [](RunSpec& s) { s.k_exchanges = 2; },
       same_startup_rounds},
      {"stagger", [](RunSpec& s) { s.stagger = 0.05; }, same_startup_rounds},
      // A slew moves no measured maximum here, so look at the displayed
      // clock mid-slew after the first maintenance update.
      {"amortize", [](RunSpec& s) { s.amortize = 0.5; },
       [&](analysis::Experiment& ex, const RunResult& r) {
         const auto& updates = ex.trace().updates();
         const auto first = std::find_if(
             updates.begin(), updates.end(), [&](const auto& u) {
               return u.round == base.rounds;
             });
         if (first == updates.end()) return false;
         const sim::CorrLog& corr = ex.simulator().corr_log(first->pid);
         const double mid = first->real_time + 0.25;
         return r.startup->handoff_done &&
                corr.displayed_at(mid) != corr.target_at(mid);
       }},
  };
  for (const Row& row : rows) {
    RunSpec spec = base;
    row.set(spec);
    analysis::Experiment experiment(spec);
    const RunResult r = experiment.run();
    EXPECT_TRUE(row.reached(experiment, r)) << row.knob;
  }
}

TEST(ModeValidation, AcceptsPerformanceKnobs) {
  RunSpec spec = startup_spec();
  spec.pdes_workers = 2;
  spec.scheduler = engine::SchedulerKind::kCalendar;
  spec.max_events = 100'000'000;
  EXPECT_EQ(rejection(spec), "");
}

TEST(ModeValidation, StartupRejectsTwoFacedAndLiarFaults) {
  // Their schedules assume A4's synchronized start.  The rule reads the
  // resolved roster, so a fault_mix entry is refused like fault.
  for (const auto fault :
       {analysis::FaultKind::kTwoFaced, analysis::FaultKind::kLiar}) {
    RunSpec spec = startup_spec();
    spec.fault = fault;
    spec.fault_count = 2;
    EXPECT_NE(rejection(spec).find("two-faced or liar"), std::string::npos)
        << static_cast<int>(fault);
    spec.fault = analysis::FaultKind::kNone;
    spec.fault_count = 0;
    spec.fault_mix = {{analysis::FaultKind::kSilent, 1}, {fault, 1}};
    EXPECT_NE(rejection(spec).find("two-faced or liar"), std::string::npos)
        << "fault_mix " << static_cast<int>(fault);
  }
}

TEST(ModeValidation, MaintenanceRejectsStartupHandoff) {
  RunSpec spec = small_spec();
  spec.startup_handoff = true;
  EXPECT_NE(rejection(spec).find("startup_handoff requires Algo::kStartup"),
            std::string::npos);
}

TEST(ModeValidation, RejectsBoundedHistoryWithARejoin) {
  // RunResult::rejoins reads the retained history a bounded run drops.
  RunSpec spec = rejoin_spec(25.0, 95.0, 20);
  spec.retain_history = false;
  EXPECT_NE(rejection(spec).find("retain_history = false does not support a "
                                 "dynamics rejoin"),
            std::string::npos);
  // A final leave has nothing to report, so bounded history stays allowed.
  spec.dynamics = {};
  spec.dynamics.leave(25.0, 0);
  EXPECT_EQ(rejection(spec), "");

  // StartupResult::post_handoff_skew reads it too; start-up without a
  // handoff runs bounded, measuring what the retained run measures.
  RunSpec startup = startup_spec();
  const RunResult retained = analysis::run(startup);
  startup.retain_history = false;
  const RunResult bounded = analysis::run(startup);
  EXPECT_TRUE(bounded.observe.bounded);
  EXPECT_TRUE(analysis::results_identical(bounded, retained));
  startup.startup_handoff = true;
  EXPECT_NE(rejection(startup).find("retain_history = false does not "
                                    "support a dynamics rejoin or a start-up "
                                    "handoff"),
            std::string::npos);
}

TEST(ModeValidation, RejoinShortOfTheHorizonIsNotReported) {
  // Six rounds end before the joiner's first full round (~70 s): the run
  // reports no rejoin rather than one with a NaN spread.  Seven reach it.
  RunSpec spec = rejoin_spec(15.0, 60.0, 6);
  EXPECT_TRUE(analysis::run(spec).rejoins.empty());
  spec.rounds = 7;
  const RunResult r = analysis::run(spec);
  ASSERT_EQ(r.rejoins.size(), 1u);
  EXPECT_EQ(r.rejoins[0].pid, 0);
  EXPECT_FALSE(std::isnan(r.rejoins[0].spread_with_joiner));
  EXPECT_LE(r.rejoins[0].spread_with_joiner, spec.params.beta);
}

TEST(Stabilization, AlignedStartIsStableFromTheFirstRound) {
  const RunSpec spec = small_spec();
  const RunResult r = analysis::run(spec);
  // A healthy aligned run never exceeds 2 * gamma, so the suffix scan
  // reports stabilization at round 0 with zero elapsed time.
  EXPECT_EQ(r.stabilized_round, 0);
  EXPECT_EQ(r.stabilization_time, 0.0);
}

// Arbitrary-initial-state workload: the collection window must be able to
// CAPTURE the injected disagreement (arrivals outside ~beta are clipped and
// the halves never re-join — the paper's algorithm is not self-stabilizing
// at its tuned window), so the window is widened and the stabilization
// story is measured against an explicit threshold.
RunSpec arbitrary_state_spec() {
  RunSpec spec = small_spec();
  spec.fault = analysis::FaultKind::kNone;
  spec.fault_count = 0;
  spec.rounds = 16;
  spec.params.beta = 0.5;           // widened window: capture range ~0.5
  spec.initial_clock_spread = 0.2;  // CORR starts uniform in [0, 0.2); the
                                    // A4 start spread (0.9 * beta) rides on
                                    // top, so larger values escape capture
  spec.stabilize_threshold = 0.05;
  return spec;
}

TEST(Stabilization, ArbitraryInitialStateStabilizesDeterministically) {
  const RunSpec spec = arbitrary_state_spec();
  const RunResult r = analysis::run(spec);
  ASSERT_FALSE(r.diverged);
  // The arbitrary logical-clock state breaks agreement at round 0 and the
  // averaging contracts it: stabilization happens, but not instantly.
  EXPECT_GT(r.stabilized_round, 0);
  EXPECT_LT(r.stabilized_round, r.completed_rounds);
  EXPECT_GT(r.stabilization_time, 0.0);
  // Round-0 skew reflects the injected spread; the suffix is tight.
  EXPECT_GT(r.skew_at_round.front(), spec.stabilize_threshold);

  // Same seed, same measurement — bit for bit.
  const RunResult again = analysis::run(spec);
  EXPECT_TRUE(analysis::results_identical(r, again));
  EXPECT_EQ(r.stabilized_round, again.stabilized_round);
  EXPECT_EQ(r.stabilization_time, again.stabilization_time);

  // A different seed draws different arbitrary state.
  RunSpec other = spec;
  other.seed = spec.seed + 1;
  const RunResult shifted = analysis::run(other);
  EXPECT_FALSE(analysis::results_identical(r, shifted));
}

TEST(Stabilization, CustomThresholdShiftsTheMeasuredRound) {
  const RunSpec spec = arbitrary_state_spec();
  RunSpec loose = spec;
  loose.stabilize_threshold = 1.0;  // wider than the injected spread
  const RunResult tight = analysis::run(spec);
  const RunResult relaxed = analysis::run(loose);
  // The looser threshold can only stabilize earlier (same physics).
  ASSERT_GT(tight.stabilized_round, 0);
  EXPECT_LE(relaxed.stabilized_round, tight.stabilized_round);
  EXPECT_EQ(relaxed.stabilized_round, 0);
  EXPECT_EQ(relaxed.skew_at_round, tight.skew_at_round);
}

TEST(AdversaryEnv, SameActionSequenceReproducesBitForBit) {
  scenario::AdversaryEnv::Config config;
  config.spec = small_spec();
  config.spec.rounds = 8;
  config.warmup_rounds = 2;

  const auto episode = [&] {
    scenario::AdversaryEnv env(config);
    scenario::AdversaryObservation obs = env.reset();
    scenario::AdversaryAction action;
    std::vector<double> skews;
    while (!obs.done) {
      action.early_frac += 0.05;  // a nontrivial, deterministic policy
      obs = env.step(action);
      skews.push_back(obs.round_skew);
    }
    skews.push_back(env.finish());
    return skews;
  };

  const std::vector<double> a = episode();
  const std::vector<double> b = episode();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // bitwise-equal doubles, step by step
}

TEST(AdversaryEnv, RetunedActionsChangeThePhysics) {
  scenario::AdversaryEnv::Config config;
  config.spec = small_spec();
  config.spec.rounds = 8;

  const auto final_skew = [&](double early, double late) {
    scenario::AdversaryEnv env(config);
    scenario::AdversaryObservation obs = env.reset();
    scenario::AdversaryAction action;
    action.early_frac = early;
    action.late_frac = late;
    while (!obs.done) obs = env.step(action);
    return env.finish();
  };

  const double near_edges = final_skew(0.02, 0.98);
  const double near_center = final_skew(0.45, 0.55);
  EXPECT_GT(near_edges, 0.0);
  EXPECT_GT(near_center, 0.0);
  // Moving the forged faces is not a no-op: the retune reaches the
  // adversary processes and alters the measured steady-state skew.
  EXPECT_NE(near_edges, near_center);
}

TEST(AdversaryEnv, RejectsSpecsWithoutATwoFacedAdversary) {
  scenario::AdversaryEnv::Config config;
  config.spec = small_spec();
  config.spec.fault = analysis::FaultKind::kSilent;
  EXPECT_THROW(scenario::AdversaryEnv env(config), std::invalid_argument);

  // Start-up refuses the two-faced adversary when the episode builds.
  scenario::AdversaryEnv::Config startup;
  startup.spec = small_spec();
  startup.spec.algo = analysis::Algo::kStartup;
  scenario::AdversaryEnv env2(startup);
  EXPECT_THROW((void)env2.reset(), std::invalid_argument);
}

TEST(AdversaryEnv, GreedyBaselineIsDeterministic) {
  RunSpec spec = small_spec();
  spec.params = core::make_params(16, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 4;
  spec.rounds = 8;

  const scenario::GreedyResult a = scenario::run_greedy_adversary(spec);
  const scenario::GreedyResult b = scenario::run_greedy_adversary(spec);
  EXPECT_EQ(a.best_placement, b.best_placement);
  EXPECT_EQ(a.placement_ids, b.placement_ids);
  EXPECT_EQ(a.static_skew, b.static_skew);
  EXPECT_EQ(a.adaptive_skew, b.adaptive_skew);
  EXPECT_EQ(a.env_steps, b.env_steps);
  EXPECT_GT(a.static_skew, 0.0);
  EXPECT_GT(a.adaptive_skew, 0.0);
  EXPECT_GT(a.env_steps, 0);
  EXPECT_EQ(a.placement_ids.size(), 1u);
}

}  // namespace
