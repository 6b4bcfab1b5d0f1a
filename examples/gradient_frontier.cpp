// Gradient frontier: how far apart can two honest clocks drift as a
// function of how far apart they sit in the exchange graph?
//
// The paper's Theorem 4 bounds the skew between ANY two honest clocks on a
// full mesh, where every pair is one hop apart.  On a sparse graph the
// gradient-clock-sync literature (Bund/Lenzen/Rosenbaum, PAPERS.md) asks
// the sharper question: skew as a function of hop distance d(i, j).  This
// example measures that frontier on a ring of cliques — first fault-free,
// then with two-faced adversaries placed ON the inter-clique joints (the
// structurally critical positions PlacementPolicy::kArticulation selects),
// lying per-neighbor.  The attack widens the frontier at every distance
// while the local quorums keep the system convergent.

#include <iostream>

#include "analysis/gradient.h"
#include "analysis/parallel_runner.h"
#include "proc/placement.h"
#include "util/table.h"

using namespace wlsync;

int main() {
  // 6 cliques of 8: diameter 7, local budget (8 - 1) / 3 = 2 faults.
  constexpr std::int32_t kN = 48;
  constexpr std::int32_t kClique = 8;

  analysis::RunSpec base;
  base.params = core::make_params(kN, /*f=*/2, 1e-5, 0.01, 1e-3, 10.0);
  base.topology.kind = net::TopologyKind::kRingOfCliques;
  base.topology.clique_size = kClique;
  base.rounds = 12;
  base.seed = 424242;
  base.measure_gradient = true;

  analysis::RunSpec attacked = base;
  attacked.fault = analysis::FaultKind::kTwoFaced;
  attacked.fault_count = 2;
  attacked.placement = proc::PlacementKind::kArticulation;

  std::cout << "Gradient frontier on a ring of " << kN / kClique
            << " cliques of " << kClique << " (diameter "
            << net::build_topology(base.topology, kN).diameter() << ")\n"
            << "fault-free vs. 2 two-faced adversaries at inter-clique "
               "joints (neighbor-scoped, per-victim faces)\n\n";

  const std::vector<analysis::RunResult> results =
      analysis::ParallelRunner().run_adaptive({base, attacked});
  const analysis::GradientSummary& clean = results[0].gradient;
  const analysis::GradientSummary& split = results[1].gradient;

  util::Table table({"distance d", "pairs", "clean max skew", "attacked max skew",
                     "attacked frontier"});
  for (std::size_t b = 0; b < split.distances.size(); ++b) {
    // Bucket axes can differ (the attacked run has fewer honest pairs);
    // look the clean value up by distance.
    double clean_max = 0.0;
    for (std::size_t c = 0; c < clean.distances.size(); ++c) {
      if (clean.distances[c] == split.distances[b]) clean_max = clean.max_skew[c];
    }
    table.add_row({std::to_string(split.distances[b]),
                   std::to_string(split.pair_count[b]), util::fmt_sci(clean_max),
                   util::fmt_sci(split.max_skew[b]),
                   util::fmt_sci(split.frontier[b])});
  }
  table.print(std::cout);

  std::cout << "\nslope of max skew vs distance:  clean "
            << util::fmt_sci(clean.slope) << " s/hop,  attacked "
            << util::fmt_sci(split.slope) << " s/hop\n"
            << "far-pair skew (global):         clean "
            << util::fmt_sci(clean.far_skew()) << " s,  attacked "
            << util::fmt_sci(split.far_skew()) << " s\n"
            << (results[1].diverged
                    ? "\nattacked run DIVERGED (should not happen)\n"
                    : "\nboth runs stay convergent: the local quorums clip "
                      "the joint-placed liars\n");

  // Long-window variant: a run that drops its history behind the
  // streaming observer (analysis/observe.h), which measures the identical
  // curves event-driven during the run — 4x the window in bounded memory,
  // the mode that scales to the n = 512 drift-regime study.
  analysis::RunSpec longrun = attacked;
  longrun.rounds = 4 * attacked.rounds;
  longrun.retain_history = false;
  const analysis::RunResult streamed = analysis::run(longrun);
  std::cout << "\nstreaming bounded-memory run, " << longrun.rounds
            << " rounds: far skew " << util::fmt_sci(streamed.gradient.far_skew())
            << " s, slope " << util::fmt_sci(streamed.gradient.slope)
            << " s/hop\n  peak retained history "
            << streamed.observe.peak_history_bytes / 1024 << " KiB ("
            << streamed.observe.truncated_entries
            << " entries truncated behind the observation frontier)\n";
  return results[1].diverged || streamed.diverged ? 1 : 0;
}
