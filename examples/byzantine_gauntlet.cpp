// Byzantine gauntlet: the same 10-process system survives every adversary
// class the model allows (assumption A2), on every delay regime the
// network can legally produce (assumption A3).
//
// For contrast, the final rows run the no-fault-tolerance ablation (plain
// averaging without reduce()) against a single lying clock: agreement may
// survive — the honest processes get dragged *together* — but validity
// (clock time tracking real time, Theorem 19) is destroyed.  That failure
// is exactly what the fault-tolerant averaging function prevents.

#include <iostream>

#include "analysis/parallel_runner.h"
#include "util/table.h"

using namespace wlsync;

namespace {

const char* fault_label(analysis::FaultKind kind) {
  switch (kind) {
    case analysis::FaultKind::kNone: return "none";
    case analysis::FaultKind::kSilent: return "silent (crashed)";
    case analysis::FaultKind::kSpam: return "spammer";
    case analysis::FaultKind::kTwoFaced: return "two-faced splitter";
    case analysis::FaultKind::kLiar: return "lying clock";
  }
  return "?";
}

}  // namespace

int main() {
  const core::Params params =
      core::make_params(/*n=*/10, /*f=*/3, 1e-5, 0.01, 1e-3, 10.0);
  const double gamma = core::derive(params).gamma;

  std::cout << "Byzantine gauntlet: n=10, f=3, gamma bound = "
            << util::fmt(gamma) << " s\n\n";

  // Every (adversary, delay-regime) cell is an independent trial; the whole
  // gauntlet runs as one ParallelRunner sweep.  The cells vector is built
  // in the same loop as the specs, so row labels cannot drift from the
  // trial order.
  std::vector<std::pair<analysis::FaultKind, analysis::DelayKind>> cells;
  std::vector<analysis::RunSpec> specs;
  for (auto fault :
       {analysis::FaultKind::kSilent, analysis::FaultKind::kSpam,
        analysis::FaultKind::kTwoFaced, analysis::FaultKind::kLiar}) {
    for (auto delay : {analysis::DelayKind::kUniform,
                       analysis::DelayKind::kSplit}) {
      analysis::RunSpec spec;
      spec.params = params;
      spec.fault = fault;
      spec.fault_count = 3;
      spec.delay = delay;
      spec.drift = analysis::DriftKind::kRandomWalk;
      spec.rounds = 16;
      spec.seed = 77;
      specs.push_back(spec);
      cells.emplace_back(fault, delay);
    }
  }
  const std::vector<analysis::RunResult> results =
      analysis::ParallelRunner().run_adaptive(specs);

  util::Table table({"adversary (x3)", "delay regime", "steady skew",
                     "validity", "verdict"});
  bool all_ok = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [fault, delay] = cells[i];
    const analysis::RunResult& result = results[i];
    const bool ok = !result.diverged && result.gamma_measured <= gamma &&
                    result.validity.holds;
    all_ok = all_ok && ok;
    table.add_row({fault_label(fault),
                   delay == analysis::DelayKind::kUniform ? "uniform"
                                                          : "adversarial",
                   util::fmt(result.gamma_measured),
                   result.validity.holds ? "holds" : "violated",
                   ok ? "survived" : "FAILED"});
  }

  // The ablation: plain mean + one lying clock.
  analysis::RunSpec ablation;
  ablation.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);
  ablation.algo = analysis::Algo::kPlainMean;
  ablation.fault = analysis::FaultKind::kLiar;
  ablation.fault_count = 1;
  ablation.rounds = 16;
  ablation.seed = 77;
  const analysis::RunResult broken = analysis::run(ablation);
  table.add_row({"lying clock", "uniform (no reduce!)",
                 util::fmt(broken.gamma_measured),
                 broken.validity.holds ? "holds" : "violated",
                 broken.validity.holds ? "UNEXPECTED" : "destroyed, as expected"});
  all_ok = all_ok && !broken.validity.holds;

  table.print(std::cout);
  std::cout << "\n"
            << (all_ok ? "The fault-tolerant average survives the gauntlet; "
                         "the unguarded average does not."
                       : "Unexpected result — investigate!")
            << "\n";
  return all_ok ? 0 : 1;
}
