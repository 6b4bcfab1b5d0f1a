// EXP-SCENARIO — the dynamic-scenario layer's measurement driver.
//
// Three modes:
//
//   --smoke       Deterministic CI gate: runs the canonical arbitrary-
//                 initial-state, churn, and adaptive-adversary scenarios
//                 TWICE each and exits 1 unless the reruns are identical
//                 bit for bit (results_identical for the runs, exact
//                 doubles for the env episode).  Fast enough for the
//                 gcc+clang driver-smoke CI step.
//
//   --stabilize   README measurement (a): stabilization time vs fault
//                 fraction, from arbitrary initial logical-clock state
//                 (the Khanchandani-Lenzen-style workload;
//                 RunSpec::initial_clock_spread), on two topologies —
//                 the full mesh and the deg-8 k-regular expander.  The
//                 collection window is widened (beta = 0.5) so the
//                 injected disagreement is inside the capture range —
//                 at the paper-tuned beta the algorithm is NOT
//                 self-stabilizing: state beyond ~beta never re-joins
//                 (tests/dynamics_test.cpp pins that regime too).
//                 Streams a CSV (--out) and prints a per-cell mean table.
//
//   --adversary   README measurement (b): the adaptive adversary loop
//                 (scenario::AdversaryEnv) vs every static placement on
//                 the 8x8 ring of cliques (n = 64).  Prints per-placement
//                 static steady-state skew, then the greedy env episode's
//                 skew on the best placement.
//
// Everything here is deterministic by construction: fixed seeds, no
// wall-clock-dependent control flow.

#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/parallel_runner.h"
#include "bench_common.h"
#include "scenario/adversary_env.h"

namespace wlsync {
namespace {

// The canonical arbitrary-initial-state spec: window widened to capture
// the injected spread (see header comment), explicit threshold so the
// measured story is "disagreement 0.2 contracts below 0.05".
analysis::RunSpec stabilize_spec(std::int32_t n, std::int32_t f,
                                 net::TopologyKind topo,
                                 std::int32_t fault_count,
                                 std::uint64_t seed) {
  analysis::RunSpec spec;
  spec.params = bench::default_params(n, f);
  spec.params.beta = 0.5;
  spec.topology.kind = topo;
  spec.topology.degree = 8;
  spec.rounds = 30;
  spec.initial_clock_spread = 0.2;
  spec.stabilize_threshold = 0.05;
  spec.fault = fault_count > 0 ? analysis::FaultKind::kTwoFaced
                               : analysis::FaultKind::kNone;
  spec.fault_count = fault_count;
  spec.seed = seed;
  return spec;
}

int run_smoke() {
  int failures = 0;
  const auto gate = [&](const char* what, bool ok) {
    std::cout << (ok ? "  ok      " : "  FAILED  ") << what << "\n";
    if (!ok) ++failures;
  };

  // 1. Arbitrary-initial-state stabilization reproduces bit for bit.
  {
    const analysis::RunSpec spec =
        stabilize_spec(16, 5, net::TopologyKind::kFullMesh, 1, 7);
    const analysis::RunResult a = analysis::run(spec);
    const analysis::RunResult b = analysis::run(spec);
    gate("stabilization rerun identical", analysis::results_identical(a, b));
    gate("stabilization measured", a.stabilized_round > 0 &&
                                       a.stabilization_time > 0.0 &&
                                       !a.diverged);
  }

  // 2. A churn schedule routes through reintegration deterministically.
  {
    analysis::RunSpec spec;
    spec.params = bench::default_params(16, 1);
    spec.rounds = 12;
    spec.seed = 11;
    spec.dynamics.leave(25.0, 3).rejoin(55.0, 3);
    const analysis::RunResult a = analysis::run(spec);
    const analysis::RunResult b = analysis::run(spec);
    gate("churn rerun identical", analysis::results_identical(a, b));
    gate("churn schedule applied", a.dynamics_applied == 2 && !a.diverged &&
                                       a.rejoins.size() == 1 &&
                                       a.rejoins[0].pid == 3);
  }

  // 3. An adversary-env episode reproduces exactly under the same actions.
  {
    scenario::AdversaryEnv::Config config;
    config.spec.params = bench::default_params(8, 1);
    config.spec.rounds = 8;
    config.spec.fault = analysis::FaultKind::kTwoFaced;
    config.spec.fault_count = 1;
    config.spec.seed = 5;
    const auto episode = [&config] {
      scenario::AdversaryEnv env(config);
      scenario::AdversaryObservation obs = env.reset();
      scenario::AdversaryAction action;
      while (!obs.done) {
        action.early_frac += 0.05;
        obs = env.step(action);
      }
      return env.finish();
    };
    const double a = episode();
    const double b = episode();
    gate("adversary env episode identical", a == b && a > 0.0);
  }

  std::cout << (failures == 0 ? "bench_scenario --smoke: PASS\n"
                              : "bench_scenario --smoke: FAIL\n");
  return failures == 0 ? 0 : 1;
}

int run_stabilize(const util::Flags& flags) {
  const auto n = static_cast<std::int32_t>(flags.get_int("n", 16));
  const std::int32_t f = (n - 1) / 3;
  const auto trials =
      static_cast<std::int32_t>(flags.get_int("trials", 5));
  const std::string out_path = flags.get_string("out", "");
  flags.reject_unread();

  bench::print_header(
      "EXP-SCENARIO/stabilize",
      "Stabilization time vs fault fraction from arbitrary initial "
      "logical-clock state (spread 0.2, threshold 0.05, beta widened to "
      "0.5 so the state is inside the capture range).");

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "bench_scenario: cannot open --out=" << out_path << "\n";
      return 1;
    }
    file << "topology,fault_count,fault_frac,seed,stabilized_round,"
            "stabilization_time,gamma_measured,stabilized\n";
  }

  util::Table table({"topology", "faults", "frac", "mean stab round",
                     "mean stab time (s)", "never"});
  const net::TopologyKind topos[] = {net::TopologyKind::kFullMesh,
                                     net::TopologyKind::kKRegular};
  for (const net::TopologyKind topo : topos) {
    for (std::int32_t faults = 0; faults <= f; ++faults) {
      double sum_round = 0.0;
      double sum_time = 0.0;
      std::int32_t never = 0;
      std::int32_t measured = 0;
      for (std::int32_t t = 0; t < trials; ++t) {
        const std::uint64_t seed = 100 + static_cast<std::uint64_t>(t);
        const analysis::RunResult r =
            analysis::run(stabilize_spec(n, f, topo, faults, seed));
        if (file.is_open()) {
          file << net::topology_name(topo) << ',' << faults << ','
               << static_cast<double>(faults) / n << ',' << seed << ','
               << r.stabilized_round << ',' << r.stabilization_time << ','
               << r.gamma_measured << ','
               << (r.stabilized_round >= 0 ? 1 : 0) << '\n';
        }
        if (r.diverged || r.stabilized_round < 0) {
          ++never;  // residual skew never crossed below the threshold
          continue;
        }
        sum_round += r.stabilized_round;
        sum_time += r.stabilization_time;
        ++measured;
      }
      table.add_row({std::string(net::topology_name(topo)),
                     std::to_string(faults),
                     util::fmt(static_cast<double>(faults) / n, 3),
                     measured > 0 ? util::fmt(sum_round / measured, 2)
                                  : "-",
                     measured > 0 ? util::fmt(sum_time / measured, 2)
                                  : "-",
                     std::to_string(never)});
    }
  }
  table.print(std::cout);
  if (file.is_open()) {
    std::cout << "\nwrote " << out_path << "\n";
  }
  return 0;
}

int run_adversary(const util::Flags& flags) {
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 20));
  const auto fault_count =
      static_cast<std::int32_t>(flags.get_int("faults", 2));
  flags.reject_unread();

  bench::print_header(
      "EXP-SCENARIO/adversary",
      "Adaptive two-faced adversary (greedy env policy) vs every static "
      "placement on the 8x8 ring of cliques (n = 64).  The env observes "
      "per-round honest skew mid-run and re-tunes the forged faces.");

  analysis::RunSpec base;
  base.params = bench::default_params(64, 1);
  base.topology.kind = net::TopologyKind::kRingOfCliques;
  base.topology.clique_size = 8;
  base.fault = analysis::FaultKind::kTwoFaced;
  base.fault_count = fault_count;
  base.rounds = rounds;
  base.seed = 17;

  // Static reference: every positional placement policy, default faces.
  util::Table table({"placement", "steady-state skew", "vs gamma bound"});
  const proc::PlacementKind kinds[] = {
      proc::PlacementKind::kTrailing, proc::PlacementKind::kArticulation,
      proc::PlacementKind::kBridge, proc::PlacementKind::kMaxDegree,
      proc::PlacementKind::kAntipodal};
  const net::Topology topo = net::build_topology(base.topology, base.params.n);
  double best_static = 0.0;
  for (const proc::PlacementKind kind : kinds) {
    analysis::RunSpec spec = base;
    spec.placement_ids =
        proc::place_faults(topo, kind, fault_count, base.seed);
    const analysis::RunResult r = analysis::run(spec);
    best_static = std::max(best_static, r.gamma_measured);
    table.add_row({std::string(proc::placement_name(kind)),
                   util::fmt(r.gamma_measured, 6),
                   util::fmt(r.gamma_measured / r.gamma_bound, 3)});
  }
  table.print(std::cout);

  const scenario::GreedyResult greedy = scenario::run_greedy_adversary(base);
  std::cout << "\nbest static placement: "
            << proc::placement_name(greedy.best_placement)
            << "  skew = " << greedy.static_skew << "\n"
            << "adaptive episode:      skew = " << greedy.adaptive_skew
            << "  (" << greedy.env_steps << " env steps, settled at "
            << "early_frac = " << greedy.best_action.early_frac
            << ", late_frac = " << greedy.best_action.late_frac << ")\n"
            << "adaptive / best static = "
            << greedy.adaptive_skew / best_static << "\n";
  return 0;
}

}  // namespace
}  // namespace wlsync

int main(int argc, char** argv) {
  using namespace wlsync;
  try {
    const util::Flags flags(argc, argv);
    if (flags.get_bool("smoke", false)) {
      flags.reject_unread();
      return run_smoke();
    }
    if (flags.get_bool("adversary", false)) return run_adversary(flags);
    if (flags.get_bool("stabilize", false)) return run_stabilize(flags);
    flags.reject_unread();
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_scenario: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "bench_scenario: pick a mode: --smoke | --stabilize | "
               "--adversary (see the header comment)\n";
  return 2;
}
