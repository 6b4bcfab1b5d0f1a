// Unit tests for the measurement layer itself: skew probes, label-crossing
// inversion, round traces.  The theorems are only as trustworthy as the
// instruments that measure them.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/round_trace.h"
#include "analysis/skew.h"
#include "clock/drift.h"
#include "proc/process.h"
#include "sim/simulator.h"

namespace wlsync::analysis {
namespace {

/// Process that applies a scripted CORR step at a given local time.
class ScriptedStepper : public proc::Process {
 public:
  ScriptedStepper(double at_local, double adj) : at_(at_local), adj_(adj) {}
  void on_start(proc::Context& ctx) override { ctx.set_timer(at_, 1); }
  void on_timer(proc::Context& ctx, std::int32_t) override { ctx.add_corr(adj_); }
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  double at_, adj_;
};

std::unique_ptr<clk::PhysicalClock> perfect_clock(double offset = 0.0) {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), offset,
                                              1e-4);
}

TEST(SkewProbe, MeasuresKnownOffsets) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  // Clocks with offsets 0.0 and 0.25; no corrections.
  sim.add_process(std::make_unique<ScriptedStepper>(1e9, 0.0), perfect_clock(0.0),
                  0.0, false, -1.0);
  sim.add_process(std::make_unique<ScriptedStepper>(1e9, 0.0),
                  perfect_clock(0.25), 0.0, false, -1.0);
  const std::vector<std::int32_t> ids{0, 1};
  EXPECT_NEAR(skew_at(sim, ids, 5.0), 0.25, 1e-12);
  const SkewSeries series = skew_series(sim, ids, 0.0, 10.0, 1.0);
  EXPECT_NEAR(series.max_skew, 0.25, 1e-12);
  EXPECT_EQ(series.times.size(), series.skews.size());
}

TEST(SkewProbe, SeesCorrStep) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<ScriptedStepper>(2.0, 0.5), perfect_clock(),
                  0.0, false, 0.0);
  sim.add_process(std::make_unique<ScriptedStepper>(1e9, 0.0), perfect_clock(),
                  0.0, false, -1.0);
  sim.run_until(10.0);
  const std::vector<std::int32_t> ids{0, 1};
  EXPECT_NEAR(skew_at(sim, ids, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(skew_at(sim, ids, 3.0), 0.5, 1e-12);
}

TEST(CrossingTime, InvertsLocalTime) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  // Clock offset 1.0, step +0.5 at local 3.0 (real 2.0).
  sim.add_process(std::make_unique<ScriptedStepper>(3.0, 0.5), perfect_clock(1.0),
                  0.0, false, 0.0);
  sim.run_until(10.0);
  // Before the step: label 2.5 crossed at real 1.5.
  EXPECT_NEAR(crossing_time(sim, 0, 2.5, 0.0, 10.0), 1.5, 1e-6);
  // Label 4.0 after the step: local(t) = t + 1.5, crossed at 2.5.
  EXPECT_NEAR(crossing_time(sim, 0, 4.0, 0.0, 10.0), 2.5, 1e-6);
  // The jump skips labels in (3.0, 3.5): first time local >= 3.25 is the
  // step instant, real 2.0.
  EXPECT_NEAR(crossing_time(sim, 0, 3.25, 0.0, 10.0), 2.0, 1e-6);
  // Unreachable label.
  EXPECT_TRUE(std::isnan(crossing_time(sim, 0, 1e6, 0.0, 10.0)));
}

TEST(LabelSpread, MatchesConstruction) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  // Offsets 0 and -0.2: process 1's local time lags 0.2 behind, so it
  // crosses any label 0.2 later.
  sim.add_process(std::make_unique<ScriptedStepper>(1e9, 0.0), perfect_clock(0.0),
                  0.0, false, -1.0);
  sim.add_process(std::make_unique<ScriptedStepper>(1e9, 0.0),
                  perfect_clock(-0.2), 0.0, false, -1.0);
  EXPECT_NEAR(label_spread(sim, {0, 1}, 5.0, 0.0, 20.0), 0.2, 1e-6);
}

TEST(RoundTrace, IndexesAnnotations) {
  RoundTrace trace;
  trace.on_annotation(0, 1.0, {proc::Annotation::Type::kRoundBegin, 0, 100.0, 0});
  trace.on_annotation(1, 1.2, {proc::Annotation::Type::kRoundBegin, 0, 100.0, 0});
  trace.on_annotation(0, 2.0, {proc::Annotation::Type::kUpdate, 0, 0.5, 99.0});
  trace.on_annotation(1, 2.1, {proc::Annotation::Type::kUpdate, 0, -0.7, 98.0});
  trace.on_annotation(0, 3.0, {proc::Annotation::Type::kRoundBegin, 1, 110.0, 0});
  trace.on_annotation(2, 3.5, {proc::Annotation::Type::kJoined, 1, 110.0, 0});

  const std::vector<std::int32_t> both{0, 1};
  EXPECT_NEAR(trace.begin_spread(0, both), 0.2, 1e-12);
  EXPECT_TRUE(std::isnan(trace.begin_spread(1, both)));  // pid 1 missing
  EXPECT_EQ(trace.last_complete_round(both), 0);
  EXPECT_EQ(trace.last_complete_round({0}), 1);
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment(both, 0), 0.7);
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment({0}, 0), 0.5);
  EXPECT_EQ(trace.joins().size(), 1u);
  EXPECT_EQ(trace.begins().size(), 3u);
  EXPECT_EQ(trace.updates().size(), 2u);
}

TEST(RoundTrace, MaxAdjRespectsFromRound) {
  RoundTrace trace;
  trace.on_annotation(0, 1.0, {proc::Annotation::Type::kUpdate, 0, 5.0, 0});
  trace.on_annotation(0, 2.0, {proc::Annotation::Type::kUpdate, 1, 0.1, 0});
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment({0}, 1), 0.1);
}

TEST(RoundTrace, MaxAdjSkipsNonMembersFromLaterRounds) {
  // Pids 3 and 7 (the largest updates in counted rounds) are outside the
  // id set, 3 between member ids and 7 and 9 beyond them; pid 2's round-0
  // update precedes from_round.  Only pid 2's and pid 4's later updates
  // count.
  RoundTrace trace;
  trace.on_annotation(2, 1.0, {proc::Annotation::Type::kUpdate, 0, -9.0, 0});
  trace.on_annotation(7, 2.0, {proc::Annotation::Type::kUpdate, 1, 8.0, 0});
  trace.on_annotation(3, 2.2, {proc::Annotation::Type::kUpdate, 1, 7.0, 0});
  trace.on_annotation(9, 2.5, {proc::Annotation::Type::kUpdate, 2, 6.0, 0});
  trace.on_annotation(2, 3.0, {proc::Annotation::Type::kUpdate, 1, -0.3, 0});
  trace.on_annotation(4, 4.0, {proc::Annotation::Type::kUpdate, 2, 0.2, 0});
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment({4, 2}, 1), 0.3);
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment({4, 2, 7}, 1), 8.0);
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment({4, 2}, 0), 9.0);
  EXPECT_DOUBLE_EQ(trace.max_abs_adjustment({}, 0), 0.0);
}

}  // namespace
}  // namespace wlsync::analysis
