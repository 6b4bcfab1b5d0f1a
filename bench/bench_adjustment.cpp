// EXP-ADJ — Section 10: "The size of the adjustment at each round is about
// 5 eps" for Welch-Lynch (Theorem 4(a): |ADJ| <= (1+rho)(beta+eps) +
// rho*delta ~ 5 eps when beta ~ 4 eps), versus ~(2n+1) eps' for [LM] and
// ~3(delta+eps) for [ST].  Sweeps eps and reports worst adjustments.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 14));

  bench::print_header(
      "EXP-ADJ (Theorem 4(a), Section 10)",
      "Worst per-round adjustment under the splitter: WL bound "
      "(1+rho)(beta+eps)+rho*delta ~ 5 eps; ST's is delta-scale.");

  util::Table table({"eps", "WL max|ADJ|", "WL bound", "|ADJ|/eps",
                     "within", "ST max|ADJ|"});
  bool all_ok = true;
  for (double eps : {5e-4, 1e-3, 2e-3}) {
    const core::Params params = core::make_params(7, 2, 1e-5, 0.02, eps, 10.0);
    const core::Derived derived = core::derive(params);
    auto run = [&](analysis::Algo algo) {
      double worst = 0.0;
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        analysis::RunSpec spec;
        spec.params = params;
        spec.algo = algo;
        spec.fault = analysis::FaultKind::kTwoFaced;
        spec.fault_count = 2;
        spec.rounds = rounds;
        spec.seed = seed;
        const analysis::RunResult result = analysis::run(spec);
        worst = std::max(worst, result.max_abs_adj);
      }
      return worst;
    };
    const double wl = run(analysis::Algo::kWelchLynch);
    const double st = run(analysis::Algo::kST);
    const bool ok = wl <= derived.adj_bound * (1 + 1e-9);
    all_ok = all_ok && ok;
    table.add_row({util::fmt(eps), util::fmt(wl), util::fmt(derived.adj_bound),
                   util::fmt(wl / eps, 3), bench::verdict(ok), util::fmt(st)});
  }
  table.print(std::cout);
  std::cout << "\nWL adjustments stay ~5 eps and within the Theorem 4(a) "
               "bound: "
            << bench::verdict(all_ok) << "\n";
  return all_ok ? 0 : 1;
}
