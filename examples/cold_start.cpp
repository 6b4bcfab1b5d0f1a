// Cold start (Section 9.2): seven machines boot with clocks up to five
// seconds apart — no initial synchronization at all (A4 does not hold).
// The start-up algorithm (analysis::Algo::kStartup) exchanges clock values
// and READY messages, halving the disagreement every round (Lemma 20) down
// to ~4 eps, then hands off to the Section 4.2 maintenance algorithm on the
// T0 + iP grid.  It runs through the same analysis::run as every other
// algorithm; B^i is RunResult::skew_at_round[i].

#include <algorithm>
#include <iostream>
#include <vector>

#include "analysis/experiment.h"
#include "util/table.h"

using namespace wlsync;

int main() {
  const core::Params params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);

  analysis::RunSpec spec;
  spec.algo = analysis::Algo::kStartup;
  spec.params = params;
  spec.rounds = 12;
  spec.startup_handoff = true;
  spec.initial_clock_spread = 5.0;  // clocks begin up to 5 s apart!
  spec.fault = analysis::FaultKind::kSilent;
  spec.fault_count = 2;  // and two machines never come up
  spec.seed = 4;

  std::cout << "Cold-start demo: 7 machines, clocks up to 5 s apart, 2 dead\n"
            << "Lemma 20: B(i+1) <= B(i)/2 + "
            << util::fmt(core::startup_round_slack(params.rho, params.delta,
                                                   params.eps))
            << ", limit ~ 4 eps = " << util::fmt(4 * params.eps) << "\n\n";

  const analysis::RunResult run_result = analysis::run(spec);
  const analysis::StartupResult& result = *run_result.startup;
  const std::vector<double>& b = run_result.skew_at_round;

  // The start-up rounds; the maintenance rounds after the handoff follow.
  const std::size_t rounds =
      std::min(b.size(), static_cast<std::size_t>(spec.rounds));
  util::Table table({"startup round", "clock disagreement B^i"});
  for (std::size_t i = 0; i < rounds; ++i) {
    table.add_row({std::to_string(i), util::fmt_sci(b[i])});
  }
  table.print(std::cout);

  std::cout << "\nhandoff to maintenance: "
            << (result.handoff_done ? "completed" : "FAILED") << "\n";
  if (result.handoff_done) {
    std::cout << "steady skew under maintenance afterwards: "
              << util::fmt_sci(result.post_handoff_skew) << " s (gamma = "
              << util::fmt_sci(core::derive(params).gamma) << " s)\n";
  }
  const bool ok = result.handoff_done && rounds > 0 &&
                  b[rounds - 1] < spec.initial_clock_spread / 100 &&
                  result.post_handoff_skew <= core::derive(params).gamma;
  std::cout << "\n"
            << (ok ? "From 5 seconds apart to a few milliseconds, through "
                     "Byzantine-tolerant averaging alone."
                   : "Start-up failed to establish synchronization!")
            << "\n";
  return ok ? 0 : 1;
}
