// EXP-FAULT — assumption A2 / [DHS]: n >= 3f + 1.  At and above the
// threshold the gamma bound holds against the strongest constructive
// splitter; below it the same attack does monotonically more damage.
// (Outright divergence at n = 3f is guaranteed *impossible to rule out* by
// a non-constructive indistinguishability argument; a concrete message
// adversary exhibits degradation, not explosion — see EXPERIMENTS.md.)

#include "analysis/parallel_runner.h"
#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 30));
  const auto threads = static_cast<int>(flags.get_int("threads", 0));

  bench::print_header(
      "EXP-FAULT (A2, Section 10)",
      "Worst gamma_measured/gamma_bound over seeds, under the two-faced "
      "splitter with f active faults.  Ratio <= 1 required iff n >= 3f+1.");

  // The whole (n, f) x seed grid is one flat spec list sharded across the
  // ParallelRunner pool; each spec carries its grid index so the per-cell
  // aggregation cannot drift from the trial order.
  const std::vector<std::pair<std::int32_t, std::int32_t>> grid{
      {4, 1}, {3, 1}, {7, 2}, {6, 2}, {5, 2}, {10, 3}, {8, 3}, {7, 3},
      {13, 4}, {9, 4}};
  std::vector<std::size_t> cell_of_trial;
  std::vector<analysis::RunSpec> specs;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto [n, f] = grid[g];
    core::Params p;
    p.n = n;
    p.f = f;
    p.rho = 1e-5;
    p.delta = 0.01;
    p.eps = 1e-3;
    p.P = 10.0;
    p.beta = core::beta_for_round_length(p.P, p.rho, p.delta, p.eps) * 1.05;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      analysis::RunSpec spec;
      spec.params = p;
      spec.fault = analysis::FaultKind::kTwoFaced;
      spec.fault_count = f;
      spec.rounds = rounds;
      spec.seed = seed;
      specs.push_back(spec);
      cell_of_trial.push_back(g);
    }
  }
  const std::vector<analysis::RunResult> results =
      analysis::ParallelRunner(threads).run_adaptive(specs);

  std::vector<double> worst_ratio(grid.size(), 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    worst_ratio[cell_of_trial[i]] =
        std::max(worst_ratio[cell_of_trial[i]],
                 results[i].gamma_measured / results[i].gamma_bound);
  }

  util::Table table(
      {"n", "f", "3f+1", "regime", "gamma ratio", "bound holds"});
  bool all_ok = true;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto [n, f] = grid[g];
    const double worst = worst_ratio[g];
    const bool at_threshold = n >= 3 * f + 1;
    const bool ok = !at_threshold || worst <= 1.0;
    all_ok = all_ok && ok;
    table.add_row({std::to_string(n), std::to_string(f),
                   std::to_string(3 * f + 1),
                   at_threshold ? "n >= 3f+1" : "BELOW",
                   util::fmt(worst, 3), at_threshold ? bench::verdict(ok) : "-"});
  }
  table.print(std::cout);
  std::cout << "\nAll n >= 3f+1 configurations hold the bound: "
            << bench::verdict(all_ok)
            << "\n(below the threshold the ratio climbs monotonically)\n";
  return all_ok ? 0 : 1;
}
