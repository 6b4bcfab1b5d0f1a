// EXP-KEX — Section 7: exchanging clock values k times per round gives
// beta >= 4 eps + 2 rho P * 2^k/(2^k - 1).  The eps term is k-independent;
// the win is in the drift term.  With drift dominating (rho = 1e-4,
// eps = 1e-5) and the splitter enforcing worst-case halving dynamics, the
// steady begin spread scales like 2^k/(2^k - 1).

#include <cmath>

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 14));

  bench::print_header(
      "EXP-KEX (Section 7)",
      "Steady round-begin spread vs k (exchanges per round); prediction "
      "~ 2 rho P * 2^k/(2^k - 1) + 4 eps under worst-case steering.");

  core::Params p;
  p.n = 4;
  p.f = 1;
  p.rho = 1e-4;
  p.delta = 0.01;
  p.eps = 1e-5;
  p.P = 10.0;
  p.beta = 8e-3;

  const double drift_term = 2.0 * p.rho * p.P;
  util::Table table({"k", "steady spread", "prediction", "spread/k=1"});
  double s1 = 0.0;
  bool ok = true;
  for (std::int32_t k = 1; k <= 4; ++k) {
    analysis::RunSpec spec;
    spec.params = p;
    spec.k_exchanges = k;
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = 1;
    spec.delay = analysis::DelayKind::kSlow;
    spec.drift = analysis::DriftKind::kExtremal;
    spec.drift_period = 1000.0;
    spec.rounds = rounds;
    spec.seed = 21;
    const analysis::RunResult result = analysis::run(spec);
    double sum = 0.0;
    int count = 0;
    for (std::size_t r = result.begin_spread.size() - 5;
         r < result.begin_spread.size(); ++r) {
      sum += result.begin_spread[r];
      ++count;
    }
    const double steady = sum / std::max(count, 1);
    if (k == 1) s1 = steady;
    const double factor = std::pow(2.0, k) / (std::pow(2.0, k) - 1.0);
    table.add_row({std::to_string(k), util::fmt(steady),
                   util::fmt(drift_term * factor + 4 * p.eps),
                   util::fmt(steady / s1, 3)});
    if (k == 2) ok = ok && steady < 0.85 * s1;
    if (k >= 3) ok = ok && steady < 0.8 * s1;
  }
  table.print(std::cout);
  std::cout << "\nexpected ratios vs k=1: 1, 0.667, 0.571, 0.536\n"
            << "k-exchange drift-term scaling holds: " << bench::verdict(ok)
            << "\n";
  return ok ? 0 : 1;
}
