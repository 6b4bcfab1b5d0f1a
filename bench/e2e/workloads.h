#pragma once
// The end-to-end benchmark's four workloads.  Every input derives from the
// seed alone; README.md records why each workload exists and which layers
// it stresses.
//
// All of them use the repository's standard hardware constants (rho = 1e-5,
// delta = 10 ms, eps = 1 ms, P = 10 s), uniform delays, extremal drift, and
// f = (n - 1) / 3 in the parameters.  `smoke` shrinks every size so the
// whole benchmark, traced path included, finishes in seconds.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/params.h"
#include "net/topology.h"
#include "proc/placement.h"
#include "sim/nic.h"

namespace wlsync::bench::e2e {

inline constexpr int kThreads = 4;  ///< runner threads and PDES workers

struct Workload {
  std::string name;
  /// One spec for a single-run workload; every trial for sweep_compare.
  std::vector<analysis::RunSpec> specs;
  bool sweep = false;
  /// Whether the traced run's engine split includes the three PDES
  /// configurations (the serial three always run).
  bool pdes_split = false;
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "mesh_fastpath", "mesh_byzantine", "expander_nic", "sweep_compare"};
  return names;
}

inline analysis::RunSpec base_spec(std::int32_t n, std::int32_t rounds,
                                   std::uint64_t seed) {
  analysis::RunSpec spec;
  spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = rounds;
  spec.seed = seed;
  spec.delay = analysis::DelayKind::kUniform;
  spec.drift = analysis::DriftKind::kExtremal;
  return spec;
}

inline Workload make_workload(const std::string& name, std::uint64_t seed,
                              bool smoke) {
  Workload w;
  w.name = name;
  const std::int32_t rounds = smoke ? 6 : 12;
  if (name == "mesh_fastpath") {
    analysis::RunSpec spec = base_spec(smoke ? 64 : 2048, rounds, seed);
    // One n = 2048 exchange is ~4.2M deliveries: 12 rounds pass the
    // simulator's 50M runaway guard legitimately.
    spec.max_events = 1'000'000'000;
    w.specs.push_back(spec);
  } else if (name == "mesh_byzantine") {
    analysis::RunSpec spec = base_spec(smoke ? 64 : 512, rounds, seed);
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = spec.params.f;  // Theorem 16's worst case, n = 3f + 2
    w.specs.push_back(spec);
  } else if (name == "expander_nic") {
    analysis::RunSpec spec = base_spec(smoke ? 512 : 8192, rounds, seed);
    spec.topology.kind = net::TopologyKind::kKRegular;
    spec.topology.degree = 16;
    // The graph is part of the workload, like n: one fixed stride draw, so
    // seeds vary the fault placement, delays and drift but not the
    // partition PDES runs on.
    spec.topology.seed = 1;
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = smoke ? 2 : 8;
    spec.placement = proc::PlacementKind::kRandom;
    sim::NicConfig nic;
    nic.capacity = 0;  // unbounded: nothing drops, every datagram queues
    nic.service_time = 50e-6;
    spec.nic = nic;
    spec.pdes_workers = kThreads;
    w.specs.push_back(spec);
    w.pdes_split = true;
  } else if (name == "sweep_compare") {
    // {WL, LM, ST, MS} x {none, silent, two-faced at f} x 16 seeds.  Kept
    // on the mesh: on the deg-16 expander Srikanth-Toueg stops after one
    // round with even one silent fault.
    const std::int32_t n = smoke ? 16 : 128;
    const std::int32_t seeds = smoke ? 2 : 16;
    for (const analysis::Algo algo :
         {analysis::Algo::kWelchLynch, analysis::Algo::kLM,
          analysis::Algo::kST, analysis::Algo::kMS}) {
      for (const analysis::FaultKind fault :
           {analysis::FaultKind::kNone, analysis::FaultKind::kSilent,
            analysis::FaultKind::kTwoFaced}) {
        for (std::int32_t s = 0; s < seeds; ++s) {
          analysis::RunSpec spec =
              base_spec(n, smoke ? 8 : 20, seed + static_cast<std::uint64_t>(s));
          spec.algo = algo;
          spec.fault = fault;
          spec.fault_count =
              fault == analysis::FaultKind::kNone ? 0 : spec.params.f;
          // The runner supplies the parallelism.  Left at the default, the
          // PDES auto-tuner gives the event-engine trials 2 workers each —
          // it does not check ParallelRunner::in_worker() — and the sweep
          // would run up to 8 threads on 4 cores.
          spec.pdes_workers = 1;
          w.specs.push_back(spec);
        }
      }
    }
    w.sweep = true;
    w.pdes_split = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace wlsync::bench::e2e
