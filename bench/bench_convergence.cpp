// EXP-CONV — Section 4.1/7: the fault-tolerant midpoint roughly halves the
// clock separation each round.  The 1/2 factor is the worst case, realized
// by the two-faced splitter; benign executions converge faster.  This
// regenerates the per-round spread series (the paper's central convergence
// claim) for both regimes.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 12));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));

  bench::print_header(
      "EXP-CONV (Sections 4.1, 7)",
      "Round-begin spread per round, starting at ~beta: worst-case halving "
      "under the splitter vs one-round collapse in benign executions.");

  core::Params p;
  p.n = 4;
  p.f = 1;
  p.rho = 1e-7;
  p.delta = 0.01;
  p.eps = 1e-7;
  p.P = 1.0;
  p.beta = 0.004;

  auto series = [&](analysis::FaultKind fault) {
    analysis::RunSpec spec;
    spec.params = p;
    spec.fault = fault;
    spec.fault_count = fault == analysis::FaultKind::kNone ? 0 : 1;
    spec.delay = analysis::DelayKind::kSlow;  // jitter-free
    spec.drift = analysis::DriftKind::kNone;
    spec.initial_spread = 0.95 * p.beta;
    spec.rounds = rounds;
    spec.seed = seed;
    return analysis::run(spec).begin_spread;
  };

  const auto adversarial = series(analysis::FaultKind::kTwoFaced);
  const auto benign = series(analysis::FaultKind::kNone);

  util::Table table(
      {"round", "spread (splitter)", "ratio", "spread (benign)"});
  for (std::size_t r = 0; r < adversarial.size(); ++r) {
    const std::string ratio =
        r == 0 ? "-" : util::fmt(adversarial[r] / adversarial[r - 1], 3);
    const std::string benign_cell =
        r < benign.size() ? util::fmt_sci(benign[r]) : "-";
    table.add_row({std::to_string(r), util::fmt_sci(adversarial[r]), ratio,
                   benign_cell});
  }
  table.print(std::cout);

  const double contraction = util::mean_contraction(
      std::span<const double>(adversarial.data(),
                              std::min<std::size_t>(adversarial.size(), 8)),
      2e-4);
  std::cout << "\nmean contraction under splitter (above noise floor): "
            << util::fmt(contraction, 3) << "  (paper worst case: 0.5)\n";
  const bool ok = contraction < 0.62 && benign.size() > 1 &&
                  benign[1] < 0.01 * benign[0];
  std::cout << "shape holds: " << bench::verdict(ok) << "\n";
  return ok ? 0 : 1;
}
