// Quickstart: synchronize 7 simulated clocks, 2 of them Byzantine.
//
// Demonstrates the core public API in ~40 lines: pick hardware constants,
// derive feasible algorithm parameters (Section 5.2), run the Welch-Lynch
// maintenance algorithm against the worst-case splitter adversary, and
// check the Theorem 16 guarantee.

#include <iostream>

#include "analysis/experiment.h"
#include "util/table.h"

using namespace wlsync;

int main() {
  // Hardware constants (assumptions A1/A3): drift 1e-5, delays 10ms +- 1ms.
  // Designer's choice: resynchronize every P = 10 s.  make_params picks the
  // smallest feasible initial closeness beta per the Section 5.2 algebra.
  const core::Params params =
      core::make_params(/*n=*/7, /*f=*/2, /*rho=*/1e-5, /*delta=*/0.01,
                        /*eps=*/1e-3, /*P=*/10.0);
  const core::Derived derived = core::derive(params);

  std::cout << "Welch-Lynch clock synchronization, n=7, f=2\n"
            << "  beta  (initial closeness)  = " << util::fmt(params.beta) << " s\n"
            << "  gamma (agreement bound)    = " << util::fmt(derived.gamma) << " s\n"
            << "  |ADJ| bound per round      = " << util::fmt(derived.adj_bound)
            << " s\n\n";

  analysis::RunSpec spec;
  spec.params = params;
  spec.fault = analysis::FaultKind::kTwoFaced;  // worst-case Byzantine pair
  spec.fault_count = 2;
  spec.rounds = 20;
  spec.seed = 2024;

  const analysis::RunResult result = analysis::run(spec);

  std::cout << "ran " << result.completed_rounds << " rounds, "
            << result.messages << " messages\n"
            << "  initial spread of clock starts: " << util::fmt(result.tmax0 - result.tmin0)
            << " s\n"
            << "  worst steady skew (measured gamma): "
            << util::fmt(result.gamma_measured) << " s\n"
            << "  largest adjustment applied:         "
            << util::fmt(result.max_abs_adj) << " s\n"
            << "  validity envelope (Theorem 19):     "
            << (result.validity.holds ? "holds" : "VIOLATED") << "\n\n";

  const bool ok = !result.diverged &&
                  result.gamma_measured <= derived.gamma &&
                  result.validity.holds;
  std::cout << (ok ? "All guarantees hold despite 2 Byzantine processes."
                   : "Something is wrong — guarantees violated!")
            << "\n";
  return ok ? 0 : 1;
}
