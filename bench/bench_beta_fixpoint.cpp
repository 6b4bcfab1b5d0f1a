// EXP-BETA — Section 5.2: "If P is regarded as fixed, then beta ... is
// roughly 4 eps + 4 rho P."  Sweeps the round length P, computes the
// feasibility-driven beta, and compares the *measured* worst steady
// round-begin spread against both.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 16));
  const double rho = flags.get_double("rho", 1e-4);
  const double delta = flags.get_double("delta", 0.01);
  const double eps = flags.get_double("eps", 1e-3);

  bench::print_header(
      "EXP-BETA (Section 5.2)",
      "beta(P) from the feasibility algebra vs the 4 eps + 4 rho P rule of "
      "thumb vs the measured steady begin spread (two-faced splitter, "
      "extremal drift).");

  util::Table table({"P", "beta (algebra)", "4eps+4rhoP", "measured spread",
                     "within beta"});
  bool all_ok = true;
  for (double P : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    const core::Params params = core::make_params(4, 1, rho, delta, eps, P);
    analysis::RunSpec spec;
    spec.params = params;
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = 1;
    spec.drift = analysis::DriftKind::kExtremal;
    spec.drift_period = 1000.0;  // persistent divergence pressure
    spec.rounds = rounds;
    spec.seed = 7;
    const analysis::RunResult result = analysis::run(spec);
    double steady = 0.0;
    for (std::size_t r = result.begin_spread.size() / 2;
         r < result.begin_spread.size(); ++r) {
      steady = std::max(steady, result.begin_spread[r]);
    }
    const bool ok = steady <= params.beta * (1 + 1e-9);
    all_ok = all_ok && ok;
    table.add_row({util::fmt(P), util::fmt(params.beta),
                   util::fmt(4 * eps + 4 * rho * P), util::fmt(steady),
                   bench::verdict(ok)});
  }
  table.print(std::cout);
  std::cout << "\nbeta tracks 4 eps + 4 rho P and bounds the measured spread: "
            << bench::verdict(all_ok) << "\n";
  return all_ok ? 0 : 1;
}
