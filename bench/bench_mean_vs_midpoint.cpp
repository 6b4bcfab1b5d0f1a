// EXP-MEAN — Section 7: replacing the midpoint by the mean of the reduced
// multiset gives worst-case convergence rate ~ f/(n-2f) and a steady error
// approaching ~2 eps when n >> f.  Reports (a) the exact multiset-level
// worst-case steering gap for both functions, and (b) system-level
// one-round contraction and steady skew as n grows at fixed f.

#include "analysis/parallel_runner.h"
#include "bench_common.h"
#include "multiset/multiset_ops.h"
#include "util/rng.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto trials = static_cast<std::int32_t>(flags.get_int("trials", 400));
  const auto threads = static_cast<int>(flags.get_int("threads", 0));

  bench::print_header(
      "EXP-MEAN (Section 7)",
      "(a) multiset level: worst adversarial steering gap between two "
      "processes' averages, as a fraction of the honest spread (midpoint "
      "bound: 1/2; mean bound: f/(n-2f));\n(b) system level: steady skew "
      "under the splitter for both averaging functions as n grows, f = 2.");

  // --- (a) multiset-level worst-case steering ---------------------------
  util::Table msets({"n", "f", "mid gap (worst)", "mid bound", "mean gap "
                     "(worst)", "mean bound f/(n-2f)"});
  for (auto [n, f] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 1}, {7, 2}, {10, 3}, {16, 2}, {16, 5}, {25, 2}}) {
    util::Rng rng(99);
    double worst_mid = 0.0;
    double worst_mean = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      // Honest values with spread 1; each process sees them exactly (x = 0)
      // plus f adversarial values anywhere inside the honest range.
      ms::Multiset honest;
      honest.push_back(0.0);
      honest.push_back(1.0);
      for (std::size_t i = 2; i + f < n; ++i) {
        honest.push_back(rng.uniform());
      }
      ms::Multiset u(honest), v(honest);
      for (std::size_t i = 0; i < f; ++i) {
        u.push_back(rng.uniform());  // face shown to process "u"
        v.push_back(rng.uniform());  // face shown to process "v"
      }
      worst_mid = std::max(worst_mid,
                           std::abs(ms::fault_tolerant_midpoint(u, f) -
                                    ms::fault_tolerant_midpoint(v, f)));
      worst_mean = std::max(worst_mean,
                            std::abs(ms::fault_tolerant_mean(u, f) -
                                     ms::fault_tolerant_mean(v, f)));
    }
    msets.add_row({std::to_string(n), std::to_string(f),
                   util::fmt(worst_mid, 3), "0.5", util::fmt(worst_mean, 3),
                   util::fmt(static_cast<double>(f) /
                                 static_cast<double>(n - 2 * f),
                             3)});
  }
  msets.print(std::cout);

  // --- (b) system level --------------------------------------------------
  std::cout << "\n";
  util::Table system({"n", "averaging", "round-1 contraction",
                      "steady skew", "within gamma"});
  bool ok = true;
  // Row labels ride along with the specs so they cannot drift from the
  // trial order.
  std::vector<std::pair<std::int32_t, core::Averaging>> cells;
  std::vector<analysis::RunSpec> specs;
  for (std::int32_t n : {7, 10, 16}) {
    for (auto averaging :
         {core::Averaging::kMidpoint, core::Averaging::kReducedMean}) {
      core::Params p;
      p.n = n;
      p.f = 2;
      p.rho = 1e-5;
      p.delta = 0.01;
      p.eps = 1e-3;
      p.P = 10.0;
      p.beta =
          core::beta_for_round_length(p.P, p.rho, p.delta, p.eps) * 1.05;
      analysis::RunSpec spec;
      spec.params = p;
      spec.averaging = averaging;
      spec.fault = analysis::FaultKind::kTwoFaced;
      spec.fault_count = 2;
      spec.initial_spread = 0.9 * p.beta;
      spec.rounds = 14;
      spec.seed = 31;
      specs.push_back(spec);
      cells.emplace_back(n, averaging);
    }
  }
  const std::vector<analysis::RunResult> results =
      analysis::ParallelRunner(threads).run_adaptive(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [n, averaging] = cells[i];
    const analysis::RunResult& result = results[i];
    const double contraction =
        result.begin_spread.size() > 1 && result.begin_spread[0] > 0
            ? result.begin_spread[1] / result.begin_spread[0]
            : 1.0;
    const bool within =
        result.gamma_measured <= result.gamma_bound * (1 + 1e-9);
    ok = ok && within;
    system.add_row(
        {std::to_string(n),
         averaging == core::Averaging::kMidpoint ? "midpoint" : "mean",
         util::fmt(contraction, 3), util::fmt(result.gamma_measured),
         bench::verdict(within)});
  }
  system.print(std::cout);
  std::cout << "\nboth averaging functions hold gamma at every n: "
            << bench::verdict(ok) << "\n";
  return ok ? 0 : 1;
}
