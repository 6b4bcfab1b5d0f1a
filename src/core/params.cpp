#include "core/params.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wlsync::core {

Derived derive(const Params& p) {
  Derived d;
  const double s = p.beta + p.delta + p.eps;  // recurring aggregate
  const double m = std::max(p.delta, p.beta + p.eps);
  d.window = (1.0 + p.rho) * s;
  d.p_lower = (1.0 + p.rho) * (2.0 * (p.beta + p.eps) + m) + p.rho * p.delta;
  d.p_upper = p.beta / (4.0 * p.rho) - p.eps / p.rho - p.rho * s - 2.0 * p.beta -
              p.delta - 2.0 * p.eps;
  d.beta_rhs = 4.0 * p.eps +
               4.0 * p.rho * (4.0 * p.beta + p.delta + 4.0 * p.eps + m) +
               4.0 * p.rho * p.rho *
                   (3.0 * p.beta + 2.0 * p.delta + 3.0 * p.eps + m);
  d.adj_bound = (1.0 + p.rho) * (p.beta + p.eps) + p.rho * p.delta;
  d.gamma = p.beta + p.eps +
            p.rho * (7.0 * p.beta + 3.0 * p.delta + 7.0 * p.eps) +
            8.0 * p.rho * p.rho * s + 4.0 * p.rho * p.rho * p.rho * s;
  d.lambda = (p.P - (1.0 + p.rho) * (p.beta + p.eps) - p.rho * p.delta) /
             (1.0 + p.rho);
  const double eps_over_lambda = d.lambda > 0.0 ? p.eps / d.lambda : 1e300;
  d.alpha1 = 1.0 - p.rho - eps_over_lambda;
  d.alpha2 = 1.0 + p.rho + eps_over_lambda;
  d.alpha3 = p.eps;
  return d;
}

std::vector<std::string> validate(const Params& p) {
  std::vector<std::string> problems;
  if (p.n < 1) problems.push_back("n must be positive");
  if (p.f < 0) problems.push_back("f must be nonnegative");
  if (p.n < 3 * p.f + 1) problems.push_back("A2 violated: need n >= 3f + 1");
  if (p.rho <= 0.0 || p.rho >= 0.1) {
    problems.push_back("rho must be a small positive constant (0, 0.1)");
  }
  if (p.eps < 0.0) problems.push_back("eps must be nonnegative");
  if (p.delta <= p.eps) problems.push_back("A3 violated: need delta > eps");
  if (p.beta <= 0.0) problems.push_back("beta must be positive");
  if (p.P <= 0.0) problems.push_back("P must be positive");
  const Derived d = derive(p);
  if (p.beta < d.beta_rhs) {
    problems.push_back("Section 5.2 infeasible: beta < required " +
                       std::to_string(d.beta_rhs));
  }
  if (p.P < d.p_lower) {
    problems.push_back("round length too short: P < P_lower = " +
                       std::to_string(d.p_lower));
  }
  if (p.P > d.p_upper) {
    problems.push_back("round length too long: P > P_upper = " +
                       std::to_string(d.p_upper));
  }
  return problems;
}

namespace {

/// Iterates beta := max(rhs(beta), floor_fn(beta)) to a fixed point.
template <typename Fn>
double fixed_point(double beta0, Fn rhs) {
  double beta = beta0;
  for (int iter = 0; iter < 200; ++iter) {
    const double next = rhs(beta);
    if (std::abs(next - beta) <= 1e-15 * std::max(1.0, std::abs(beta))) {
      return next;
    }
    beta = next;
  }
  return beta;
}

}  // namespace

double min_feasible_beta(double rho, double delta, double eps) {
  return fixed_point(4.0 * eps, [&](double beta) {
    const double m = std::max(delta, beta + eps);
    return 4.0 * eps + 4.0 * rho * (4.0 * beta + delta + 4.0 * eps + m) +
           4.0 * rho * rho * (3.0 * beta + 2.0 * delta + 3.0 * eps + m);
  });
}

double beta_for_round_length(double P, double rho, double delta, double eps) {
  const double feasible = min_feasible_beta(rho, delta, eps);
  // Invert P <= P_upper(beta):
  //   beta >= 4 rho (P + eps/rho + rho(beta+delta+eps) + 2 beta + delta + 2 eps)
  // which is the Section 5.2 remark "beta is roughly 4 eps + 4 rho P".
  const double from_p = fixed_point(4.0 * eps + 4.0 * rho * P, [&](double beta) {
    return 4.0 * rho *
           (P + eps / rho + rho * (beta + delta + eps) + 2.0 * beta + delta +
            2.0 * eps);
  });
  return std::max(feasible, from_p);
}

Params make_params(std::int32_t n, std::int32_t f, double rho, double delta,
                   double eps, double P, double slack, double T0) {
  Params p;
  p.n = n;
  p.f = f;
  p.rho = rho;
  p.delta = delta;
  p.eps = eps;
  p.P = P;
  p.T0 = T0;
  p.beta = beta_for_round_length(P, rho, delta, eps) * slack;
  const auto problems = validate(p);
  if (!problems.empty()) {
    std::string joined = "make_params: infeasible:";
    for (const auto& problem : problems) joined += " [" + problem + "]";
    throw std::invalid_argument(joined);
  }
  return p;
}

double startup_round_slack(double rho, double delta, double eps) {
  return 2.0 * eps + 2.0 * rho * (11.0 * delta + 39.0 * eps);
}

double startup_limit(double rho, double delta, double eps) {
  return 2.0 * startup_round_slack(rho, delta, eps);
}

std::int32_t local_fault_budget(std::size_t closed_degree, std::int32_t n,
                                std::int32_t f) {
  const auto deg = static_cast<std::int32_t>(closed_degree);
  return deg == n ? f : std::min(f, (deg - 1) / 3);
}

}  // namespace wlsync::core
