#include "analysis/skew.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/measure.h"
#include "core/params.h"

namespace wlsync::analysis {

double skew_at(const sim::Simulator& sim, const std::vector<std::int32_t>& ids,
               double t) {
  SpreadFold fold;
  for (std::int32_t id : ids) fold.add(sim.local_time(id, t));
  return fold.spread();
}

SkewSeries skew_series(const sim::Simulator& sim,
                       const std::vector<std::int32_t>& ids, double t0,
                       double t1, double dt) {
  // Batched pipeline: one pass over every clock for the whole window, then
  // a column-wise spread — same instants and identical doubles as the
  // historical per-sample skew_at scan (pinned by tests/topology_test.cpp).
  const LocalTimeGrid grid = sample_local_times(
      sim, ids, sample_times_with_endpoint(t0, t1, dt));
  SkewSeries series;
  series.times = grid.times;
  series.skews.reserve(grid.cols);
  for (std::size_t k = 0; k < grid.cols; ++k) {
    SpreadFold fold;
    for (std::size_t r = 0; r < grid.rows; ++r) fold.add(grid.at(r, k));
    const double skew = fold.spread();
    series.skews.push_back(skew);
    series.max_skew = std::max(series.max_skew, skew);
  }
  return series;
}

double crossing_time(const sim::Simulator& sim, std::int32_t id, double label,
                     double t_lo, double t_hi) {
  // Coarse forward scan for the first bracket, then bisection.  Local time
  // is piecewise monotone with bounded negative steps, so the first
  // crossing is bracketed by the first coarse sample at or above the label.
  const double step = std::max((t_hi - t_lo) / 4096.0, 1e-9);
  double prev = t_lo;
  if (sim.local_time(id, t_lo) >= label) return t_lo;
  for (double t = t_lo + step; t <= t_hi + step; t += step) {
    const double clamped = std::min(t, t_hi);
    if (sim.local_time(id, clamped) >= label) {
      double lo = prev;
      double hi = clamped;
      for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (sim.local_time(id, mid) >= label) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      return hi;
    }
    if (clamped >= t_hi) break;
    prev = clamped;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double label_spread(const sim::Simulator& sim,
                    const std::vector<std::int32_t>& ids, double label,
                    double t_lo, double t_hi) {
  SpreadFold fold;
  for (std::int32_t id : ids) {
    const double cross = crossing_time(sim, id, label, t_lo, t_hi);
    if (std::isnan(cross)) return std::numeric_limits<double>::quiet_NaN();
    fold.add(cross);
  }
  return fold.spread();
}

ValidityFold::ValidityFold(const core::Params& params, double tmin0,
                           double tmax0)
    : derived_(core::derive(params)),
      T0_(params.T0),
      tmin0_(tmin0),
      tmax0_(tmax0) {}

void ValidityFold::add(double t, const double* column, std::size_t count,
                       std::size_t stride) {
  const double upper = derived_.alpha2 * (t - tmin0_) + derived_.alpha3;
  const double lower = derived_.alpha1 * (t - tmax0_) - derived_.alpha3;
  for (std::size_t r = 0; r < count; ++r) {
    const double elapsed = column[r * stride] - T0_;
    max_upper_ = std::max(max_upper_, elapsed - upper);
    max_lower_ = std::max(max_lower_, lower - elapsed);
    if (t - tmin0_ > 0.0) hi_slope_ = std::max(hi_slope_, elapsed / (t - tmin0_));
    if (t - tmax0_ > 0.0) lo_slope_ = std::min(lo_slope_, elapsed / (t - tmax0_));
  }
}

ValidityReport ValidityFold::report() const {
  ValidityReport report;
  report.max_upper_violation = max_upper_;
  report.max_lower_violation = max_lower_;
  report.holds = max_upper_ <= 0.0 && max_lower_ <= 0.0;
  report.measured_hi_slope = hi_slope_;
  report.measured_lo_slope = lo_slope_;
  return report;
}

ValidityReport check_validity(const sim::Simulator& sim,
                              const std::vector<std::int32_t>& ids,
                              const core::Params& params, double tmin0,
                              double tmax0, double t_start, double t_end,
                              double dt) {
  // Same single-pass pipeline as skew_series, folded column by column.
  const LocalTimeGrid grid =
      sample_local_times(sim, ids, sample_times_closed(t_start, t_end, dt));
  ValidityFold fold(params, tmin0, tmax0);
  for (std::size_t k = 0; k < grid.cols; ++k) {
    fold.add(grid.times[k], grid.values.data() + k, grid.rows, grid.cols);
  }
  return fold.report();
}

}  // namespace wlsync::analysis
