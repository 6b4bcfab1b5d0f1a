// Crash and rejoin (Section 9.1): process 0 runs normally, dies at t=25s,
// is repaired at t=95s, observes one full round to orient itself, applies
// the ordinary fault-tolerant average to its (now arbitrary) clock, and
// rejoins — within beta of everyone else at the next round label.  The crash
// and repair are a churn schedule (leave, then rejoin) on an ordinary
// maintenance run, which reports the rejoin in RunResult::rejoins.

#include <iostream>

#include "analysis/experiment.h"
#include "util/table.h"

using namespace wlsync;

int main() {
  const core::Params params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);

  analysis::RunSpec spec;
  spec.params = params;
  spec.dynamics.leave(25.0, 0).rejoin(95.0, 0);
  spec.rounds = 20;
  spec.seed = 9;

  std::cout << "Crash-and-rejoin demo (n=4, f=1, P=10s)\n\n"
            << "t=0      all four processes synchronized, rounds every 10 s\n"
            << "t=25s    process 0 crashes (counts toward the f=1 budget;\n"
            << "         the other three keep synchronizing unfazed)\n"
            << "t=95s    process 0 is repaired with an arbitrary clock\n"
            << "         - it listens for T^i round messages\n"
            << "         - the first round confirmed by f+1 senders orients it\n"
            << "         - it collects the *next* round completely, then\n"
            << "           applies ADJ = T + delta - mid(reduce(ARR))\n\n";

  const analysis::RunResult result = analysis::run(spec);

  if (result.rejoins.empty()) {
    std::cout << "process 0 failed to rejoin — unexpected!\n";
    return 1;
  }
  const analysis::RejoinReport& rejoin = result.rejoins[0];
  util::Table table({"event", "value"});
  table.add_row({"rejoined at (real time)", util::fmt(rejoin.join_time) + " s"});
  table.add_row({"first full round index", std::to_string(rejoin.join_round)});
  table.add_row({"begin spread incl. joiner",
                 util::fmt(rejoin.spread_with_joiner) + " s"});
  table.add_row({"beta (the Section 9.1 claim)", util::fmt(params.beta) + " s"});
  table.add_row({"steady skew afterwards", util::fmt(rejoin.skew_after) + " s"});
  table.add_row({"gamma bound", util::fmt(result.gamma_bound) + " s"});
  table.print(std::cout);

  const bool ok = rejoin.spread_with_joiner <= params.beta &&
                  rejoin.skew_after <= result.gamma_bound;
  std::cout << "\n"
            << (ok ? "Process 0 is back within beta and indistinguishable "
                     "from the others."
                   : "Reintegration guarantee violated!")
            << "\n";
  return ok ? 0 : 1;
}
