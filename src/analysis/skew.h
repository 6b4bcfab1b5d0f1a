#pragma once
// Post-hoc skew and validity measurement.
//
// The simulator records clocks and CORR histories, so local times
// L_p(t) = Ph_p(t) + CORR_p(t) can be evaluated at any real time after the
// run.  These helpers compute the quantities in the problem statement
// (Section 3.2): the agreement spread max |L_p(t) - L_q(t)| and the
// validity envelope alpha1 (t - tmax0) - alpha3 <= L_p(t) - T0 <=
// alpha2 (t - tmin0) + alpha3.
//
// skew_series and check_validity run on the sharded single-pass pipeline of
// analysis/measure.h (each clock walked once per window); skew_at is the
// per-sample reference scan the pipeline is regression-pinned against.
//
// SpreadFold and ValidityFold are the one home of the two reductions: the
// post-hoc drivers here fold grid columns through them, and the streaming
// observer (analysis/observe.h) folds each drained sample through the same
// code, so both drivers produce identical doubles by construction.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/params.h"
#include "sim/simulator.h"

namespace wlsync::analysis {

/// The agreement spread max |L_p - L_q| = max L - min L, folded one local
/// time at a time (in id order).
struct SpreadFold {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  void add(double local) noexcept {
    lo = std::min(lo, local);
    hi = std::max(hi, local);
  }
  [[nodiscard]] double spread() const noexcept { return hi - lo; }
};

/// max over p, q in ids of |L_p(t) - L_q(t)|.
[[nodiscard]] double skew_at(const sim::Simulator& sim,
                             const std::vector<std::int32_t>& ids, double t);

struct SkewSeries {
  std::vector<double> times;
  std::vector<double> skews;
  double max_skew = 0.0;
};

/// Samples the skew on [t0, t1] every dt (plus the endpoints).
[[nodiscard]] SkewSeries skew_series(const sim::Simulator& sim,
                                     const std::vector<std::int32_t>& ids,
                                     double t0, double t1, double dt);

/// First real time >= t_lo at which L_id reaches `label` (bisection over a
/// coarse forward scan).  Returns NaN if not reached by t_hi.
[[nodiscard]] double crossing_time(const sim::Simulator& sim, std::int32_t id,
                                   double label, double t_lo, double t_hi);

/// Real-time spread of `ids` reaching `label`: the B^i series quantity.
[[nodiscard]] double label_spread(const sim::Simulator& sim,
                                  const std::vector<std::int32_t>& ids,
                                  double label, double t_lo, double t_hi);

struct ValidityReport {
  bool holds = true;
  /// Worst-case signed envelope excursions over all samples and processes;
  /// negative values are margin, positive values are violations.
  double max_upper_violation = 0.0;  ///< max of L - T0 - (a2 (t-tmin0) + a3)
  double max_lower_violation = 0.0;  ///< max of (a1 (t-tmax0) - a3) - (L - T0)
  /// Measured extremes of (L_p(t) - T0)/(t - tmin0) resp. (t - tmax0).
  double measured_hi_slope = 0.0;
  double measured_lo_slope = 0.0;

  bool operator==(const ValidityReport&) const = default;
};

/// The Theorem 19 envelope folded over sample instants, in instant order
/// and id order within an instant.
class ValidityFold {
 public:
  ValidityFold(const core::Params& params, double tmin0, double tmax0);

  /// Folds the `count` local times at instant `t`, spaced `stride` apart.
  void add(double t, const double* column, std::size_t count,
           std::size_t stride = 1);

  [[nodiscard]] ValidityReport report() const;

 private:
  core::Derived derived_;
  double T0_;
  double tmin0_;
  double tmax0_;
  double max_upper_ = -std::numeric_limits<double>::infinity();
  double max_lower_ = -std::numeric_limits<double>::infinity();
  double hi_slope_ = -std::numeric_limits<double>::infinity();
  double lo_slope_ = std::numeric_limits<double>::infinity();
};

/// The envelope over the closed grid {t_start, t_start + dt, ...} <= t_end.
[[nodiscard]] ValidityReport check_validity(
    const sim::Simulator& sim, const std::vector<std::int32_t>& ids,
    const core::Params& params, double tmin0, double tmax0, double t_start,
    double t_end, double dt);

}  // namespace wlsync::analysis
