// EXP-T4 — Theorem 4 invariants across the adversary/delay grid.
//   (a) |ADJ| <= (1+rho)(beta+eps) + rho delta
//   (c) round-begin spread <= beta
//   plus Theorem 16's gamma for the same runs.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto n = static_cast<std::int32_t>(flags.get_int("n", 7));
  const auto f = static_cast<std::int32_t>(flags.get_int("f", 2));
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 15));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::print_header(
      "EXP-T4 (Theorem 4)",
      "Every nonfaulty adjustment within (1+rho)(beta+eps)+rho*delta; every "
      "round's begin spread within beta; skew within gamma.  n=" +
          std::to_string(n) + ", f=" + std::to_string(f));

  const core::Params params = bench::default_params(n, f);
  const core::Derived derived = core::derive(params);
  std::cout << "beta = " << util::fmt(params.beta)
            << "  adj bound = " << util::fmt(derived.adj_bound)
            << "  gamma = " << util::fmt(derived.gamma) << "\n\n";

  util::Table table({"fault", "delay", "max|ADJ|", "adj ok", "max spread",
                     "<=beta", "gamma meas", "<=gamma"});
  const analysis::FaultKind faults[] = {
      analysis::FaultKind::kNone, analysis::FaultKind::kSilent,
      analysis::FaultKind::kSpam, analysis::FaultKind::kTwoFaced,
      analysis::FaultKind::kLiar};
  const analysis::DelayKind delays[] = {
      analysis::DelayKind::kUniform, analysis::DelayKind::kFast,
      analysis::DelayKind::kSlow, analysis::DelayKind::kSplit};
  bool all_ok = true;
  for (auto fault : faults) {
    for (auto delay : delays) {
      analysis::RunSpec spec;
      spec.params = params;
      spec.fault = fault;
      spec.fault_count = fault == analysis::FaultKind::kNone ? 0 : f;
      spec.delay = delay;
      spec.rounds = rounds;
      spec.seed = seed;
      const analysis::RunResult result = analysis::run(spec);
      double max_spread = 0.0;
      for (double spread : result.begin_spread) {
        max_spread = std::max(max_spread, spread);
      }
      const bool adj_ok = result.max_abs_adj <= derived.adj_bound * (1 + 1e-9);
      const bool spread_ok = max_spread <= params.beta * (1 + 1e-9);
      const bool gamma_ok =
          result.gamma_measured <= derived.gamma * (1 + 1e-9);
      all_ok = all_ok && adj_ok && spread_ok && gamma_ok && !result.diverged;
      table.add_row({bench::fault_name(fault), bench::delay_name(delay),
                     util::fmt(result.max_abs_adj), bench::verdict(adj_ok),
                     util::fmt(max_spread), bench::verdict(spread_ok),
                     util::fmt(result.gamma_measured),
                     bench::verdict(gamma_ok)});
    }
  }
  table.print(std::cout);
  std::cout << "\nAll Theorem 4 invariants hold: " << bench::verdict(all_ok)
            << "\n";
  return all_ok ? 0 : 1;
}
