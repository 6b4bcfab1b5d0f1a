// EXP-AGREE — Theorem 16: gamma-agreement.  Sweeps eps and rho; reports the
// closed-form gamma next to the measured worst skew under the strongest
// adversary, and checks the Section 10 summary "clocks stay synchronized to
// within about 4 eps".

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 16));

  bench::print_header(
      "EXP-AGREE (Theorem 16)",
      "gamma = beta + eps + rho(7 beta + 3 delta + 7 eps) + O(rho^2); "
      "measured = worst steady skew under the two-faced splitter.  The "
      "steady skew tracks ~4-5 eps, not delta.");

  util::Table table({"eps", "rho", "beta", "gamma bound", "gamma measured",
                     "meas/eps", "within bound"});
  bool all_ok = true;
  for (double eps : {2e-4, 5e-4, 1e-3, 2e-3, 5e-3}) {
    for (double rho : {1e-6, 1e-5, 1e-4}) {
      const double delta = 0.02;
      const double P = 10.0;
      const core::Params params =
          core::make_params(7, 2, rho, delta, eps, P);
      const core::Derived derived = core::derive(params);
      double worst = 0.0;
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        analysis::RunSpec spec;
        spec.params = params;
        spec.fault = analysis::FaultKind::kTwoFaced;
        spec.fault_count = 2;
        spec.rounds = rounds;
        spec.seed = seed;
        const analysis::RunResult result = analysis::run(spec);
        worst = std::max(worst, result.gamma_measured);
      }
      const bool ok = worst <= derived.gamma * (1 + 1e-9);
      all_ok = all_ok && ok;
      table.add_row({util::fmt(eps), util::fmt(rho), util::fmt(params.beta),
                     util::fmt(derived.gamma), util::fmt(worst),
                     util::fmt(worst / eps, 3), bench::verdict(ok)});
    }
  }
  table.print(std::cout);
  std::cout << "\nTheorem 16 bound holds across the sweep: "
            << bench::verdict(all_ok) << "\n"
            << "(gamma bound itself is ~5.4 eps at these settings: beta ~ "
               "4 eps + 4 rho P, gamma ~ beta + eps.)\n";
  return all_ok ? 0 : 1;
}
