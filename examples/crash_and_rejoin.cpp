// Crash and rejoin (Section 9.1): process 0 runs normally, dies at t=25s,
// is repaired at t=95s, observes one full round to orient itself, applies
// the ordinary fault-tolerant average to its (now arbitrary) clock, and
// rejoins — within beta of everyone else at the next round label.

#include <iostream>

#include "analysis/experiment.h"
#include "util/table.h"

using namespace wlsync;

int main() {
  const core::Params params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);

  analysis::RunSpec spec;
  spec.mode = analysis::RunMode::kReintegration;
  spec.params = params;
  spec.crash_at = 25.0;
  spec.wake_at = 95.0;
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

  const analysis::ReintegrationResult result =
      *analysis::run(spec).reintegration;

  if (!result.rejoined) {
    std::cout << "process 0 failed to rejoin — unexpected!\n";
    return 1;
  }
  util::Table table({"event", "value"});
  table.add_row({"rejoined at (real time)", util::fmt(result.join_time) + " s"});
  table.add_row({"first full round index", std::to_string(result.join_round)});
  table.add_row({"begin spread incl. joiner",
                 util::fmt(result.spread_with_joiner) + " s"});
  table.add_row({"beta (the Section 9.1 claim)", util::fmt(result.beta) + " s"});
  table.add_row({"steady skew afterwards", util::fmt(result.skew_after) + " s"});
  table.add_row({"gamma bound", util::fmt(result.gamma_bound) + " s"});
  table.print(std::cout);

  const bool ok = result.spread_with_joiner <= result.beta &&
                  result.skew_after <= result.gamma_bound;
  std::cout << "\n"
            << (ok ? "Process 0 is back within beta and indistinguishable "
                     "from the others."
                   : "Reintegration guarantee violated!")
            << "\n";
  return ok ? 0 : 1;
}
