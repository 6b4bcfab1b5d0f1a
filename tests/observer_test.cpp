// The streaming observation layer (analysis/observe.h): bounded (streamed)
// == retained (post-hoc grids) pins across algos x topologies x fault
// mixes, a hand-attached observer against explicit grid calls on its own
// window, history-truncation unit tests on CorrLog and PhysicalClock, and
// observer counter cross-checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/observe.h"
#include "analysis/parallel_runner.h"
#include "clock/drift.h"
#include "clock/physical_clock.h"
#include "sim/corr_log.h"
#include "stream_pin.h"
#include "util/rng.h"

namespace wlsync::analysis {
namespace {

RunSpec base_spec(Algo algo, net::TopologyKind topo, FaultKind fault,
                  std::int32_t fault_count) {
  RunSpec spec;
  spec.params = core::make_params(16, 5, 1e-5, 0.01, 1e-3, 10.0);
  spec.algo = algo;
  spec.topology.kind = topo;
  spec.topology.clique_size = 8;
  spec.topology.degree = 6;
  spec.fault = fault;
  spec.fault_count = fault_count;
  spec.rounds = 8;
  spec.seed = 11;
  return spec;
}

std::string label(const RunSpec& spec) {
  return "algo=" + std::to_string(static_cast<int>(spec.algo)) +
         " topo=" + std::string(net::topology_name(spec.topology.kind)) +
         " fault=" + std::to_string(static_cast<int>(spec.fault)) +
         " gradient=" + std::to_string(spec.measure_gradient);
}

// ------------------------------------------------------------------------
// The headline pin: a run that drops its history is measured by the
// stream, one that keeps it by the grids.  For runs that complete their
// configured rounds both drivers land on the identical steady-state
// window, so bounded and retained runs are results_identical — bitwise,
// not 1e-12.

TEST(Observer, StreamingMatchesPostHocAcrossConfigs) {
  std::vector<RunSpec> grid;
  for (const Algo algo : {Algo::kWelchLynch, Algo::kLM, Algo::kST, Algo::kMS}) {
    grid.push_back(base_spec(algo, net::TopologyKind::kFullMesh,
                             FaultKind::kTwoFaced, 2));
  }
  grid.push_back(base_spec(Algo::kWelchLynch, net::TopologyKind::kRingOfCliques,
                           FaultKind::kNone, 0));
  grid.push_back(base_spec(Algo::kWelchLynch, net::TopologyKind::kKRegular,
                           FaultKind::kSilent, 1));
  // Heterogeneous mixture + gradient measurement on a sparse graph.
  RunSpec mixed = base_spec(Algo::kWelchLynch, net::TopologyKind::kRingOfCliques,
                            FaultKind::kNone, 0);
  mixed.fault_mix = {{FaultKind::kSilent, 1}, {FaultKind::kTwoFaced, 1}};
  mixed.measure_gradient = true;
  grid.push_back(mixed);
  RunSpec gradient_mesh =
      base_spec(Algo::kLM, net::TopologyKind::kFullMesh, FaultKind::kNone, 0);
  gradient_mesh.measure_gradient = true;
  grid.push_back(gradient_mesh);

  for (const RunSpec& spec : grid) {
    const RunResult retained = run(spec);
    // The bitwise pin holds when both drivers anchor at the same round:
    // post-hoc uses last_complete_round / 2, streaming (rounds + 1) / 2.
    ASSERT_EQ((retained.completed_rounds - 1) / 2, (spec.rounds + 1) / 2)
        << label(spec) << " completed=" << retained.completed_rounds;
    EXPECT_FALSE(retained.observe.enabled) << label(spec);
    RunSpec bounded_spec = spec;
    bounded_spec.retain_history = false;
    const RunResult bounded = run(bounded_spec);
    EXPECT_TRUE(results_identical(retained, bounded)) << label(spec);
    EXPECT_TRUE(bounded.observe.bounded) << label(spec);
    EXPECT_GT(bounded.observe.truncated_entries, 0u) << label(spec);
    EXPECT_LT(bounded.observe.peak_history_bytes, retained.history_bytes)
        << label(spec);
  }
}

// Window-explicit pin: a hand-attached observer that truncates nothing,
// against the post-hoc calls on the exact window it reports (this holds
// even when a run would not complete all rounds).
TEST(Observer, StreamedSeriesMatchesExplicitPostHocOnSameWindow) {
  RunSpec spec = base_spec(Algo::kWelchLynch, net::TopologyKind::kRingOfCliques,
                           FaultKind::kTwoFaced, 2);
  spec.placement = proc::PlacementKind::kArticulation;
  spec.measure_gradient = true;

  Experiment experiment(spec);
  sim::Simulator& sim = experiment.simulator();
  StreamingObserver observer(sim, experiment.make_observe_spec());
  sim.set_observer(&observer);
  sim.run_until(experiment.horizon());
  sim.set_observer(nullptr);
  const double t_end = sim.current_time();
  const StreamingSummary streamed = observer.finalize(t_end);
  ASSERT_TRUE(streamed.stats.enabled);
  EXPECT_FALSE(streamed.stats.bounded);
  const std::vector<std::int32_t>& honest = experiment.honest();
  const double t0 = streamed.stats.t_steady;
  const double dt = spec.params.P / 25.0;

  const SkewSeries series = skew_series(sim, honest, t0, t_end, dt);
  EXPECT_EQ(streamed.skew.times, series.times);
  EXPECT_EQ(streamed.skew.skews, series.skews);
  EXPECT_EQ(streamed.skew.max_skew, series.max_skew);
  const GradientSummary gradient = summarize_gradient(
      gradient_series(sim, honest, experiment.topology(), t0, t_end, dt));
  EXPECT_TRUE(streamed.gradient == gradient);
  EXPECT_EQ(streamed.skew.max_skew, gradient.far_skew());

  const core::Derived d = core::derive(spec.params);
  const ValidityReport validity = check_validity(
      sim, honest, spec.params, experiment.tmin0(), experiment.tmax0(),
      experiment.tmax0() + d.window, t_end, spec.params.P / 10.0);
  EXPECT_TRUE(streamed.validity == validity);
  EXPECT_EQ(streamed.final_skew, skew_at(sim, honest, t_end));
  for (std::int32_t r = 0; r <= experiment.trace().last_complete_round(honest);
       ++r) {
    const std::vector<double> begins = experiment.trace().begin_times(r, honest);
    ASSERT_LT(static_cast<std::size_t>(r), streamed.skew_at_round.size());
    EXPECT_EQ(streamed.skew_at_round[static_cast<std::size_t>(r)],
              skew_at(sim, honest, *std::max_element(begins.begin(),
                                                     begins.end())))
        << "round " << r;
  }
}

TEST(Observer, BoundedModeIsDeterministicAcrossEnginesAndSchedulers) {
  RunSpec spec = base_spec(Algo::kWelchLynch, net::TopologyKind::kKRegular,
                           FaultKind::kTwoFaced, 1);
  spec.measure_gradient = true;
  spec.retain_history = false;

  const RunResult reference = run(spec);
  const RunResult repeat = run(spec);
  EXPECT_TRUE(results_identical(reference, repeat));

  RunSpec scheduler = spec;
  scheduler.scheduler = engine::SchedulerKind::kCalendar;
  EXPECT_TRUE(results_identical(reference, run(scheduler)));
}

TEST(Observer, CountersCrossCheckAgainstSimulatorState) {
  RunSpec spec = base_spec(Algo::kWelchLynch, net::TopologyKind::kFullMesh,
                           FaultKind::kNone, 0);
  spec.retain_history = false;
  const RunResult result = run(spec);
  ASSERT_TRUE(result.observe.enabled);
  EXPECT_TRUE(result.observe.bounded);
  EXPECT_GT(result.observe.samples, 0u);
  // Every honest process begins every completed round.
  EXPECT_GE(result.observe.round_marks,
            static_cast<std::uint64_t>(result.completed_rounds) *
                result.honest.size());
  EXPECT_GT(result.observe.truncations, 0u);
  EXPECT_LE(result.observe.final_history_bytes,
            result.observe.peak_history_bytes);
  EXPECT_EQ(result.observe.final_history_bytes, result.history_bytes);
}

TEST(Observer, DegradedRunCollapsesWindowDeterministically) {
  // NIC starvation (service time ~ the collection window) empties whole
  // rounds: the run degrades, skew samples blow up (~1e300), and the anchor
  // round may never complete — the streaming window then collapses to the
  // endpoint sample, marked by t_steady == t_end.  The degraded regime
  // must stay deterministic in both retention modes, and truncation must
  // stay invisible: a non-truncating observer on the retained run streams
  // exactly what the bounded run reports.
  RunSpec spec = base_spec(Algo::kWelchLynch, net::TopologyKind::kFullMesh,
                           FaultKind::kNone, 0);
  spec.params = core::make_params(8, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 12;
  spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/1e-3};
  spec.retain_history = false;
  const RunResult bounded = run(spec);
  EXPECT_TRUE(bounded.diverged);
  EXPECT_LT(bounded.completed_rounds, spec.rounds);
  EXPECT_EQ(bounded.observe.t_steady, bounded.t_end);  // collapsed window
  EXPECT_GT(bounded.observe.truncated_entries, 0u);
  EXPECT_TRUE(results_identical(bounded, run(spec)));

  spec.retain_history = true;
  const ObservedRun observed = run_observed(spec);
  const StreamingSummary& streamed = observed.streamed;
  EXPECT_TRUE(observed.result.diverged);
  EXPECT_FALSE(streamed.stats.bounded);
  EXPECT_EQ(observed.result.t_end, bounded.t_end);
  ASSERT_GE(streamed.skew_at_round.size(), bounded.skew_at_round.size());
  for (std::size_t r = 0; r < bounded.skew_at_round.size(); ++r) {
    EXPECT_EQ(streamed.skew_at_round[r], bounded.skew_at_round[r]) << "round "
                                                                   << r;
  }
  EXPECT_EQ(streamed.final_skew, bounded.final_skew);
  EXPECT_TRUE(streamed.validity == bounded.validity);
  EXPECT_EQ(streamed.skew.max_skew, bounded.gamma_measured);
  EXPECT_EQ(streamed.stats.t_steady, bounded.observe.t_steady);
  EXPECT_TRUE(results_identical(observed.result, run(spec)));
}

// ------------------------------------------------------------------------
// History-truncation primitives.

TEST(CorrLogTruncation, QueriesAtOrAfterFrontierAreUnchanged) {
  sim::CorrLog log(1.0);
  log.step(1.0, 2.0);
  log.ramp(2.0, -1.0, 0.5);
  log.step(4.0, 3.0);
  log.step(6.0, 5.0);

  const std::vector<double> probes = {2.2, 2.4, 2.6, 3.0, 4.0, 5.0, 6.0, 7.0};
  std::vector<double> before;
  for (const double t : probes) before.push_back(log.displayed_at(t));

  const std::size_t total = log.changes();
  const std::size_t removed = log.truncate_before(2.2);
  EXPECT_EQ(removed, 2u);  // the initial entry and the step at t=1
  EXPECT_EQ(log.trimmed(), 2u);
  EXPECT_EQ(log.changes(), total);  // total change count preserved
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(log.displayed_at(probes[i]), before[i]) << "t=" << probes[i];
  }
  EXPECT_EQ(log.current_target(), 5.0);
  // Appending after truncation keeps working.
  log.step(8.0, 9.0);
  EXPECT_EQ(log.current_target(), 9.0);
}

TEST(CorrLogTruncation, WalkerSurvivesTruncation) {
  sim::CorrLog log(0.0);
  for (int k = 1; k <= 20; ++k) {
    log.step(static_cast<double>(k), static_cast<double>(k));
  }
  sim::CorrLog::Walker walker(log);
  for (int k = 1; k <= 10; ++k) {
    const double t = static_cast<double>(k) + 0.5;
    EXPECT_EQ(walker.displayed_at(t), log.displayed_at(t));
  }
  (void)log.truncate_before(10.5);
  for (int k = 11; k <= 20; ++k) {
    const double t = static_cast<double>(k) + 0.5;
    EXPECT_EQ(walker.displayed_at(t), log.displayed_at(t));
  }
}

TEST(ClockTruncation, QueriesAtOrAfterFrontierAreUnchanged) {
  clk::PhysicalClock clock(clk::make_piecewise_uniform(1e-3, 0.5, util::Rng(3)),
                           5.0, 1e-3);
  (void)clock.now(40.0);  // generate a long segment list
  const std::vector<double> probes = {10.0, 10.7, 13.3, 20.0, 39.9, 45.0};
  std::vector<double> now_before;
  std::vector<double> real_before;
  for (const double t : probes) {
    now_before.push_back(clock.now(t));
    real_before.push_back(clock.to_real(clock.now(t)));
  }
  const double offset = clock.offset();
  const std::size_t kept_before = clock.retained_breakpoints();
  const std::size_t removed = clock.truncate_before(10.0);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(clock.trimmed(), removed);
  EXPECT_EQ(clock.retained_breakpoints(), kept_before - removed);
  EXPECT_EQ(clock.offset(), offset);  // stored, not derived from breaks
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(clock.now(probes[i]), now_before[i]) << "t=" << probes[i];
    EXPECT_EQ(clock.to_real(clock.now(probes[i])), real_before[i]);
  }
  // Lazy extension still works past the generated horizon.
  EXPECT_GT(clock.now(80.0), clock.now(40.0));
}

TEST(ClockTruncation, WalkerSurvivesTruncation) {
  clk::PhysicalClock clock(clk::make_piecewise_uniform(1e-3, 0.25, util::Rng(9)),
                           0.0, 1e-3);
  (void)clock.now(30.0);
  clk::PhysicalClock::Walker walker(clock);
  for (double t = 0.5; t < 15.0; t += 0.7) {
    EXPECT_EQ(walker.now(t), clock.now(t)) << "t=" << t;
  }
  (void)clock.truncate_before(15.0);
  for (double t = 15.1; t < 30.0; t += 0.7) {
    EXPECT_EQ(walker.now(t), clock.now(t)) << "t=" << t;
  }
}

TEST(SimulatorHistory, TruncateAndAccountingAgree) {
  RunSpec spec = base_spec(Algo::kWelchLynch, net::TopologyKind::kFullMesh,
                           FaultKind::kNone, 0);
  Experiment experiment(spec);
  sim::Simulator& sim = experiment.simulator();
  sim.run_until(40.0);
  const std::size_t entries = sim.history_entries();
  const std::size_t bytes = sim.history_bytes();
  EXPECT_GT(entries, 0u);
  EXPECT_GT(bytes, 0u);
  const double t = sim.current_time();
  const std::size_t removed = sim.truncate_history_before(t);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(sim.history_entries(), entries - removed);
  // Queries at/after the frontier still work (the run goes on).
  const double before = sim.local_time(0, t);
  sim.run_until(60.0);
  EXPECT_EQ(sim.local_time(0, t), before);
}

}  // namespace
}  // namespace wlsync::analysis
