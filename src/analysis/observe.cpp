#include "analysis/observe.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wlsync::analysis {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

StreamingObserver::StreamingObserver(sim::Simulator& sim, ObserveSpec spec)
    : sim_(sim),
      spec_(std::move(spec)),
      validity_(spec_.params, spec_.tmin0, spec_.tmax0) {
  if (spec_.ids.empty()) {
    throw std::invalid_argument("StreamingObserver: no ids to measure");
  }
  if (spec_.skew_dt <= 0.0 || spec_.validity_dt <= 0.0) {
    throw std::invalid_argument("StreamingObserver: sample steps must be > 0");
  }
  if (spec_.gradient && spec_.topology == nullptr) {
    throw std::invalid_argument(
        "StreamingObserver: gradient observation needs a topology");
  }
  stats_.enabled = true;
  stats_.bounded = spec_.truncate;

  const std::size_t m = spec_.ids.size();
  grid_clock_.reserve(m);
  grid_corr_.reserve(m);
  round_clock_.reserve(m);
  round_corr_.reserve(m);
  for (const std::int32_t id : spec_.ids) {
    grid_clock_.emplace_back(sim_.clock(id));
    grid_corr_.emplace_back(sim_.corr_log(id));
    round_clock_.emplace_back(sim_.clock(id));
    round_corr_.emplace_back(sim_.corr_log(id));
  }
  locals_.assign(m, 0.0);

  measured_.assign(static_cast<std::size_t>(sim_.process_count()), 0);
  for (const std::int32_t id : spec_.ids) {
    measured_[static_cast<std::size_t>(id)] = 1;
  }
  round_skew_.assign(static_cast<std::size_t>(spec_.max_rounds) + 8, kNaN);

  // Sample storage is bounded by the horizon: the skew window opens no
  // earlier than tmin0 and every drained instant is <= t_end <= horizon.
  // Reserving against that bound is what keeps the drain allocation-free
  // (gated by bench_micro --smoke).
  const double span = std::max(spec_.horizon - spec_.tmin0, 0.0);
  gradient_capacity_ = static_cast<std::size_t>(span / spec_.skew_dt) + 8;
  skew_times_.reserve(gradient_capacity_);
  skew_values_.reserve(gradient_capacity_);

  if (spec_.gradient) {
    axis_ = build_gradient_axis(*spec_.topology, spec_.ids);
    gradient_rows_.assign(axis_.distances.size() * gradient_capacity_, 0.0);
  }

  // The validity grid starts exactly where check_validity starts it.
  validity_next_ = spec_.validity_t0;
}

void StreamingObserver::sample_locals(double t) {
  // The same expression as Simulator::local_time, cursor-evaluated — the
  // exact doubles sample_local_times produces for this row/instant.
  for (std::size_t r = 0; r < locals_.size(); ++r) {
    locals_[r] = grid_clock_[r].now(t) + grid_corr_[r].displayed_at(t);
  }
  ++stats_.samples;
}

void StreamingObserver::apply_skew_sample(double t) {
  SpreadFold fold;
  for (double local : locals_) fold.add(local);
  const double skew = fold.spread();
  const std::size_t k = skew_times_.size();
  skew_times_.push_back(t);
  skew_values_.push_back(skew);
  skew_max_ = std::max(skew_max_, skew);

  if (spec_.gradient && !axis_.distances.empty()) {
    if (k >= gradient_capacity_) {
      throw std::logic_error(
          "StreamingObserver: sample count exceeded the horizon-derived "
          "capacity (ObserveSpec::horizon too small)");
    }
    fold_pair_buckets(*spec_.topology, spec_.ids, axis_.bucket_of,
                      locals_.data(), /*id_stride=*/1, /*cols=*/1,
                      gradient_rows_.data() + k, gradient_capacity_);
  }
}

void StreamingObserver::drain(double limit, bool closed) {
  // Merged monotone drain of the two grid streams; `closed` admits
  // validity instants equal to the limit (the closed-grid endpoint at
  // finalize).  Every CORR entry and clock segment governing an instant
  // strictly before the current simulated time is final, which is what
  // makes draining during the run exact.
  for (;;) {
    const double t = std::min(skew_next_, validity_next_);
    const bool take_skew = skew_next_ == t && t < limit;
    const bool take_validity =
        validity_next_ == t && (closed ? t <= limit : t < limit);
    if (!take_skew && !take_validity) break;
    sample_locals(t);
    if (take_skew) {
      apply_skew_sample(t);
      skew_next_ += spec_.skew_dt;  // the grids' t += dt accumulation walk
    }
    if (take_validity) {
      validity_.add(t, locals_.data(), locals_.size());
      validity_next_ += spec_.validity_dt;
    }
  }
}

double StreamingObserver::on_advance(double now) {
  drain(now, /*closed=*/false);
  return next_interest();
}

void StreamingObserver::eval_round_skew(std::int32_t round, double t) {
  if (round < 0) return;
  const auto r = static_cast<std::size_t>(round);
  if (r >= round_skew_.size()) round_skew_.resize(r + 1, kNaN);
  // Round instants arrive in execution order; the clamp only engages in
  // the degenerate interleaving where a round-r begin lands after a later
  // round already flushed (diverged runs), keeping the walkers monotone.
  const double q = std::max(t, last_round_query_);
  last_round_query_ = q;
  SpreadFold fold;
  for (std::size_t i = 0; i < round_clock_.size(); ++i) {
    fold.add(round_clock_[i].now(q) + round_corr_[i].displayed_at(q));
  }
  round_skew_[r] = fold.spread();
}

void StreamingObserver::note_history() {
  stats_.peak_history_bytes =
      std::max(stats_.peak_history_bytes, sim_.history_bytes());
}

void StreamingObserver::flush_round_and_truncate(double now) {
  if (pending_round_ >= 0) {
    eval_round_skew(pending_round_, pending_instant_);
    pending_round_ = -1;
  }
  note_history();
  if (spec_.truncate) {
    // Every future query targets >= now: the grid streams have drained
    // everything strictly before the current event time, round instants
    // are at or after it, and finalize queries t_end.  The defensive min
    // guards hand-driven simulations that attach mid-run.
    const double frontier = std::min(now, next_interest());
    stats_.truncated_entries += sim_.truncate_history_before(frontier);
    ++stats_.truncations;
  }
}

void StreamingObserver::on_round_begin(std::int32_t pid, std::int32_t round,
                                       double t) {
  if (pid < 0 || static_cast<std::size_t>(pid) >= measured_.size() ||
      measured_[static_cast<std::size_t>(pid)] == 0) {
    return;
  }
  ++stats_.round_marks;

  // Steady-state anchor: the window opens at the LAST measured begin of
  // the anchor round — the same instant the post-hoc pipeline anchors its
  // gamma window at.
  if (!skew_open_ && round == spec_.anchor_round) {
    if (++anchor_seen_ == static_cast<std::int32_t>(spec_.ids.size())) {
      skew_open_ = true;
      t_steady_ = t;
      skew_next_ = t;
      stats_.t_steady = t;
    }
  }

  // Round-boundary skew stream: accumulate begins of the current round and
  // evaluate at its last begin when the next round opens (annotations
  // arrive in time order, so the last begin chronologically IS the max
  // begin instant the post-hoc loop evaluates at).
  if (round == pending_round_) {
    pending_instant_ = t;
  } else if (round > pending_round_) {
    flush_round_and_truncate(t);
    pending_round_ = round;
    pending_instant_ = t;
  } else {
    // Begin for an earlier round number — a straggler landed after its
    // round flushed.  The pending round must be evaluated first: its
    // instant precedes this one, and the round walkers only move forward.
    // Then re-evaluate the earlier round at the new (chronologically
    // later, hence larger) instant — the post-hoc loop evaluates at the
    // max begin over ALL begins that carry the round number.
    if (pending_round_ >= 0) {
      eval_round_skew(pending_round_, pending_instant_);
      pending_round_ = -1;
    }
    eval_round_skew(round, t);
  }
}

StreamingSummary StreamingObserver::finalize(double t_end) {
  if (finalized_) {
    throw std::logic_error("StreamingObserver::finalize called twice");
  }
  finalized_ = true;

  if (pending_round_ >= 0) {
    eval_round_skew(pending_round_, pending_instant_);
    pending_round_ = -1;
  }
  if (!skew_open_) {
    // The anchor round never completed (diverged / truncated run): the
    // window collapses to the endpoint sample at t_end.
    skew_open_ = true;
    t_steady_ = t_end;
    skew_next_ = t_end;
    stats_.t_steady = t_end;
  }
  // Remaining grid instants: skew's half-open grid stops strictly before
  // t_end, validity's closed grid includes it.
  drain(t_end, /*closed=*/true);
  // The unconditional endpoint sample of sample_times_with_endpoint.
  sample_locals(t_end);
  apply_skew_sample(t_end);

  StreamingSummary summary;
  summary.final_skew = skew_values_.back();
  summary.skew.max_skew = skew_max_;
  const std::size_t cols = skew_times_.size();
  summary.validity = validity_.report();

  if (spec_.gradient) {
    // Summarize the capacity-strided accumulation matrix in place (no
    // repacking — the long-window runs this mode targets should not spike
    // memory after spending the run keeping history bounded).  The local
    // series carries the strided matrix and no times axis; the summary
    // helpers read only the axis vectors, cols and stride.
    GradientSeries series;
    series.distances = std::move(axis_.distances);
    series.pair_count = std::move(axis_.pair_count);
    series.diameter = axis_.diameter;
    series.skew_by_sample = std::move(gradient_rows_);
    finish_gradient_window_summaries(series, cols, gradient_capacity_);
    summary.gradient = summarize_gradient(series);
  }
  // The observer is finalized-once: hand the per-sample series over
  // instead of copying it.
  summary.skew.times = std::move(skew_times_);
  summary.skew.skews = std::move(skew_values_);

  // Trim trailing never-observed rounds.
  std::size_t last = round_skew_.size();
  while (last > 0 && std::isnan(round_skew_[last - 1])) --last;
  summary.skew_at_round.assign(round_skew_.begin(),
                               round_skew_.begin() + static_cast<std::ptrdiff_t>(last));

  note_history();
  stats_.final_history_bytes = sim_.history_bytes();
  summary.stats = stats_;
  return summary;
}

}  // namespace wlsync::analysis
