#pragma once
// Streaming in-run observation: the incremental counterpart of the
// post-hoc measurement grids.
//
// The post-hoc pipeline (analysis/measure.h, skew.h, gradient.h) re-walks
// every clock's segment list and CORR log over dense sample grids after
// the run ends, which requires retaining the complete O(rounds * n)
// history in memory.  The StreamingObserver inverts this: it attaches to
// the simulator through the sim::Observer hook and evaluates the *same*
// sample grids incrementally, event-driven, while the run advances — each
// sample instant t is drained as soon as simulated time passes it, at
// which point every CORR entry and clock segment governing t is final.
// Each drained sample goes through the post-hoc drivers' own folds
// (SpreadFold, ValidityFold, fold_pair_buckets) with the same Walker
// cursors, so streaming and post-hoc results are bit-identical
// (tests/observer_test.cpp).
//
// Experiment::run streams exactly when RunSpec::retain_history is false
// and measures post-hoc otherwise; hand-driven simulations
// (scenario::AdversaryEnv) attach one directly.  The round fast path and
// PDES refuse any attached observer (Simulator::observer_refusal).
//
// Three sample streams share the run:
//   * the skew/gradient grid — opens at the steady-state anchor (the last
//     honest begin of round `anchor_round`) and steps by skew_dt, exactly
//     the window Experiment::run measures gamma over;
//   * the validity grid — opens at validity_t0 (tmax0 + window) and steps
//     by validity_dt, the check_validity window;
//   * round boundaries — the skew at each round's last honest begin
//     (the skew_at_round series), evaluated at the annotation instants.
//
// Bounded-memory mode (ObserveSpec::truncate): once a round's samples are
// drained, the history behind the observation frontier can never be read
// again, so the observer truncates every CORR log and clock segment list
// behind it (Simulator::truncate_history_before).  Peak retained history
// becomes O(history per round) instead of O(rounds * n), which is what
// makes 10-100x longer windows at n = 512 affordable.  All accumulators
// are preallocated against the run horizon, so draining allocates nothing
// (gated by bench_micro --smoke).

#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/gradient.h"
#include "analysis/skew.h"
#include "core/params.h"
#include "net/topology.h"
#include "sim/observer.h"
#include "sim/simulator.h"

namespace wlsync::analysis {

/// What to observe; built by Experiment::run from the RunSpec, usable
/// directly for hand-driven simulations.
struct ObserveSpec {
  std::vector<std::int32_t> ids;  ///< measured ids (the fold order)
  core::Params params;            ///< for the validity envelope folds
  double tmin0 = 0.0;
  double tmax0 = 0.0;
  /// Run horizon (upper bound on t_end); sizes the preallocated sample
  /// storage so the drain hot path never allocates.
  double horizon = 0.0;
  /// The skew/gradient window opens at the last measured begin of this
  /// round (the steady-state anchor).  If the round never completes the
  /// window collapses to the single endpoint sample at t_end.
  std::int32_t anchor_round = 0;
  /// Configured round count (presizes the skew_at_round stream).
  std::int32_t max_rounds = 0;
  double skew_dt = 0.0;      ///< skew/gradient grid step (P/25 post-hoc grid)
  double validity_dt = 0.0;  ///< validity grid step (P/10 post-hoc grid)
  double validity_t0 = 0.0;  ///< validity window start (tmax0 + window)
  /// Also bucket pairwise skew by hop distance (analysis/gradient.h).
  bool gradient = false;
  /// Exchange graph for the gradient buckets (non-owning; required and
  /// used only when `gradient`).  Its BFS cache is warmed at construction.
  const net::Topology* topology = nullptr;
  /// Bounded-memory mode: truncate clock/CORR history behind the
  /// observation frontier as the run progresses.
  bool truncate = false;
};

/// Observation telemetry (RunTelemetry::observe).  Deterministic for a
/// fixed spec, but not physics: the history numbers intentionally differ
/// between retained and bounded runs of the same physics.
struct ObserveStats {
  bool enabled = false;
  bool bounded = false;
  double t_steady = 0.0;  ///< where the skew/gradient window actually opened
  std::uint64_t samples = 0;       ///< grid instants evaluated
  std::uint64_t round_marks = 0;   ///< measured round-begin boundaries seen
  std::uint64_t truncations = 0;   ///< truncate_history_before calls
  std::uint64_t truncated_entries = 0;  ///< history entries discarded
  std::size_t peak_history_bytes = 0;   ///< high-water retained history
  std::size_t final_history_bytes = 0;  ///< retained history at finalize

  bool operator==(const ObserveStats&) const = default;
};

/// Everything the observer measured, in the same shapes the post-hoc
/// pipeline produces.
struct StreamingSummary {
  SkewSeries skew;            ///< == skew_series on [t_steady, t_end]
  ValidityReport validity;    ///< == check_validity on the validity window
  GradientSummary gradient;   ///< == summarize_gradient(gradient_series(...))
  /// Skew at each round's last measured begin (== the skew_at_round loop);
  /// NaN for rounds with no begin observed.
  std::vector<double> skew_at_round;
  double final_skew = 0.0;    ///< == skew_at(t_end)
  ObserveStats stats;
};

class StreamingObserver final : public sim::Observer {
 public:
  /// Preallocates every accumulator (walkers, sample storage, gradient
  /// matrix) against spec.horizon; with `gradient` set, builds the
  /// distance-bucket axis (one O(m^2) pass, warms the distance rows).
  /// The simulator must outlive the observer; attach with
  /// sim.set_observer(&observer).
  StreamingObserver(sim::Simulator& sim, ObserveSpec spec);

  // sim::Observer:
  double on_advance(double now) override;
  void on_round_begin(std::int32_t pid, std::int32_t round, double t) override;
  [[nodiscard]] double next_interest() const override {
    return skew_next_ < validity_next_ ? skew_next_ : validity_next_;
  }

  /// Drains every remaining sample through t_end (>= the last event time),
  /// samples the endpoint, and assembles the summary.  Call exactly once,
  /// after the run; detach the observer before driving the simulator
  /// further.
  [[nodiscard]] StreamingSummary finalize(double t_end);

  [[nodiscard]] const ObserveStats& stats() const noexcept { return stats_; }

  /// Live view of the round-boundary skew stream (NaN = round not observed
  /// yet).  Round r's entry flushes when the first begin of round r+1
  /// arrives — the scenario::AdversaryEnv step loop reads this mid-run to
  /// hand per-round observations to a policy without finalizing.
  [[nodiscard]] const std::vector<double>& round_skews() const noexcept {
    return round_skew_;
  }

 private:
  /// Evaluates all measured local times at `t` into locals_ via the grid
  /// walkers (non-decreasing t across calls).
  void sample_locals(double t);
  /// One skew/gradient grid instant (locals_ already sampled at t).
  void apply_skew_sample(double t);
  /// Drains all pending grid instants strictly before `limit` (or, with
  /// `closed`, validity instants <= limit — the closed-grid endpoint).
  void drain(double limit, bool closed);
  /// Evaluates the round-boundary skew for `round` at instant `t` via the
  /// round walkers and records it.
  void eval_round_skew(std::int32_t round, double t);
  /// Flushes the pending round (if any) and, in bounded mode, truncates
  /// history behind the observation frontier.
  void flush_round_and_truncate(double now);
  void note_history();

  sim::Simulator& sim_;
  ObserveSpec spec_;

  // Grid walkers (skew/gradient + validity streams, merged monotone) and
  // round walkers (round-boundary stream) — separate cursor sets because
  // the two streams interleave arbitrarily in time.
  std::vector<clk::PhysicalClock::Walker> grid_clock_;
  std::vector<sim::CorrLog::Walker> grid_corr_;
  std::vector<clk::PhysicalClock::Walker> round_clock_;
  std::vector<sim::CorrLog::Walker> round_corr_;
  std::vector<double> locals_;  ///< per-id scratch for one instant

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  // Skew/gradient stream.
  bool skew_open_ = false;
  double t_steady_ = 0.0;
  double skew_next_ = kNever;
  std::int32_t anchor_seen_ = 0;  ///< measured begins of the anchor round
  std::vector<double> skew_times_;
  std::vector<double> skew_values_;
  double skew_max_ = 0.0;

  // Gradient stream (rides the skew grid).
  GradientAxis axis_;
  std::size_t gradient_capacity_ = 0;  ///< per-bucket sample capacity
  /// buckets x capacity, bucket-major; column k holds sample k's
  /// per-bucket max |L_i - L_j|.
  std::vector<double> gradient_rows_;

  // Validity stream.
  double validity_next_ = kNever;
  ValidityFold validity_;

  // Round-boundary stream.
  std::vector<char> measured_;        ///< pid -> is measured
  std::vector<double> round_skew_;    ///< per round; NaN = not observed
  std::int32_t pending_round_ = -1;   ///< round accumulating begins
  double pending_instant_ = 0.0;      ///< latest begin time of that round
  double last_round_query_ = -kNever; ///< round-walker monotonicity guard

  ObserveStats stats_;
  bool finalized_ = false;
};

}  // namespace wlsync::analysis
