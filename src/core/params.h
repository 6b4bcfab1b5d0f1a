#pragma once
// System parameters and the Section 5.2 constraint algebra.
//
// rho (drift), delta (median delay) and eps (delay uncertainty) are fixed by
// the "hardware" (assumptions A1/A3); the designer chooses the round length
// P and the initial closeness beta (A4), subject to the paper's
// inequalities.  This header encodes every closed form the analysis
// produces, so tests and benches can compare measured behaviour against the
// paper's bounds by name:
//
//   window      (1+rho)(beta+delta+eps)                  — Section 4.1
//   P_lower     (1+rho)(2(beta+eps) + max(delta, beta+eps)) + rho*delta
//               (Lemmas 8 and 12 both hold iff P >= this)
//   P_upper     beta/(4 rho) - eps/rho - rho(beta+delta+eps)
//               - 2 beta - delta - 2 eps                 — Section 5.2
//   beta_rhs    4 eps + 4 rho (4 beta + delta + 4 eps + m)
//               + 4 rho^2 (3 beta + 2 delta + 3 eps + m), m = max(delta,
//               beta+eps); feasibility is beta >= beta_rhs, and it is
//               algebraically equivalent to P_lower <= P_upper.
//   adj_bound   (1+rho)(beta+eps) + rho*delta            — Theorem 4(a)
//   gamma       beta + eps + rho(7 beta + 3 delta + 7 eps)
//               + 8 rho^2 (beta+delta+eps) + 4 rho^3 (beta+delta+eps)
//                                                        — Theorem 16
//   lambda      (P - (1+rho)(beta+eps) - rho delta)/(1+rho) — Section 8
//   alpha1..3   1 - rho - eps/lambda, 1 + rho + eps/lambda, eps — Theorem 19

#include <cstdint>
#include <string>
#include <vector>

namespace wlsync::core {

struct Params {
  std::int32_t n = 4;   ///< total processes (A2: n >= 3f + 1)
  std::int32_t f = 1;   ///< faults tolerated
  double rho = 1e-5;    ///< drift bound (A1)
  double delta = 0.01;  ///< median message delay (A3)
  double eps = 1e-3;    ///< delay uncertainty (A3)
  double beta = 0.0;    ///< initial closeness along the real-time axis (A4)
  double P = 0.0;       ///< round length in local time (Section 4.1)
  double T0 = 0.0;      ///< first round label (A4)

  /// T^i = T0 + i P (Section 5.1).
  [[nodiscard]] double round_label(std::int32_t i) const {
    return T0 + static_cast<double>(i) * P;
  }
};

/// Everything the analysis derives from Params.
struct Derived {
  double window = 0.0;     ///< (1+rho)(beta+delta+eps)
  double p_lower = 0.0;
  double p_upper = 0.0;
  double beta_rhs = 0.0;   ///< feasibility requires beta >= beta_rhs
  double adj_bound = 0.0;  ///< Theorem 4(a)
  double gamma = 0.0;      ///< Theorem 16 agreement bound
  double lambda = 0.0;     ///< shortest round in real time (Section 8)
  double alpha1 = 0.0;     ///< Theorem 19 validity slopes / offset
  double alpha2 = 0.0;
  double alpha3 = 0.0;
  /// U^i - T^i, i.e. the collection window length in clock time.
  [[nodiscard]] double u_offset() const { return window; }
};

[[nodiscard]] Derived derive(const Params& params);

/// Returns human-readable violations; empty means the parameter set
/// satisfies A2/A3 and the Section 5.2 inequalities.
[[nodiscard]] std::vector<std::string> validate(const Params& params);

/// Smallest beta satisfying the Section 5.2 feasibility inequality for the
/// given hardware constants (fixed-point iteration; converges for rho < 0.1).
[[nodiscard]] double min_feasible_beta(double rho, double delta, double eps);

/// Smallest beta that additionally supports round length P (i.e. also
/// satisfies P <= P_upper(beta)); the paper's "beta is roughly
/// 4 eps + 4 rho P" appears here.
[[nodiscard]] double beta_for_round_length(double P, double rho, double delta,
                                           double eps);

/// Convenience constructor: given hardware constants and a desired round
/// length, picks the smallest feasible beta (times `slack` >= 1 for margin)
/// and validates the result.  Throws std::invalid_argument on infeasibility.
[[nodiscard]] Params make_params(std::int32_t n, std::int32_t f, double rho,
                                 double delta, double eps, double P,
                                 double slack = 1.05, double T0 = 0.0);

/// Lemma 20 (start-up): per-round bound B^{i+1} <= B^i/2 + startup_slack,
/// where startup_slack = 2 eps + 2 rho (11 delta + 39 eps); the limit is
/// twice the slack.
[[nodiscard]] double startup_round_slack(double rho, double delta, double eps);
[[nodiscard]] double startup_limit(double rho, double delta, double eps);

/// f_local: the faults a process with `closed_degree` neighbours (itself
/// included) can clip — f, capped at (deg - 1) / 3 off the full mesh (A2
/// applied to the neighbourhood).  Every local quorum derives from it.
[[nodiscard]] std::int32_t local_fault_budget(std::size_t closed_degree,
                                              std::int32_t n, std::int32_t f);

}  // namespace wlsync::core
