// EXP-GRADIENT — skew-vs-distance grids on sparse exchange graphs (the
// measurable form of a gradient bound, Bund/Lenzen/Rosenbaum).
//
// Builds the cross product of topology x placement x fault axes, runs every
// cell times every seed through the ParallelRunner with
// RunSpec::measure_gradient on, and emits one CSV row PER DISTANCE BUCKET
// per trial, so a skew-vs-distance curve is the set of rows sharing a spec
// index.  Example:
//
//   bench_gradient --topology=kregular --degree=16 --n=256 --rounds=12
//                  --fault=twofaced --placement=random,articulation
//                  --trials=5 --out=gradient.csv
//
// CSV columns (placement knobs included so curves are self-describing):
//   spec        trial index (rows of one trial share it)
//   n,topology  system size and exchange graph (cliques carries --clique,
//               kregular carries --degree in the topo_param column)
//   topo_param  clique size (cliques) / target degree (kregular) / 0 (mesh)
//   placement   PlacementPolicy that mapped faults onto positions
//               (trailing|random|max-degree|articulation|bridge|antipodal;
//               non-trailing switches the two-faced attack to its
//               neighbor-scoped per-victim mode)
//   fault,f     fault kind and count (f < 0 on the command line = the local
//               cap min_v (deg(v) - 1) / 3 over the graph)
//   seed,rounds trial seed and configured round count
//   diameter    hop diameter of the exchange graph
//   slope       least-squares slope of max_skew against distance (s/hop)
//   distance    hop-distance bucket d(i, j) of this row
//   pairs       honest pairs at this distance
//   max_skew    max over the steady-state window of the bucket's per-sample
//               max |L_i - L_j|
//   mean_skew   window mean of the per-sample bucket max
//   p99_skew    0.99-quantile of the per-sample bucket max
//   frontier    max_skew folded over all distances <= d (non-decreasing:
//               the "skew within distance d" curve)
//   observe     measurement engine: off (post-hoc grids), on (streaming),
//               bounded (streaming + history truncation) — --observe flag
//   hist_peak_mb  peak retained clock/CORR history (observe rows; 0 = off)
//   wall_s      trial wall-clock seconds
//
// Long windows: post-hoc grids must retain the full O(rounds * n) history,
// so --rounds much beyond the default at n = 512 exhausts memory/wall
// budget; --observe=bounded streams the same values in bounded memory
// (analysis/observe.h), and --dt coarsens the sample step when even the
// per-sample gradient matrix gets large.  --smoke shrinks the grid to
// seconds for CI.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel_runner.h"
#include "bench_common.h"
#include "net/topology.h"
#include "proc/placement.h"

namespace wlsync {
namespace {

using bench::parse_fault;
using bench::parse_placement;
using bench::parse_topology;
using bench::split_ints;
using bench::split_list;

/// The local A2 budget: the largest f no honest neighborhood overruns,
/// min_v (deg(v) - 1) / 3 with deg counting the self-loop (the quorum view
/// welch_lynch.cpp clamps against).
std::int32_t local_fault_cap(const net::Topology& topo) {
  std::int32_t cap = topo.n();
  for (std::int32_t v = 0; v < topo.n(); ++v) {
    cap = std::min(cap, (topo.degree(v) - 1) / 3);
  }
  return std::max(cap, std::int32_t{0});
}

std::int32_t topo_param(const net::TopologySpec& spec) {
  switch (spec.kind) {
    case net::TopologyKind::kRingOfCliques: return spec.clique_size;
    case net::TopologyKind::kKRegular: return spec.degree;
    default: return 0;
  }
}

}  // namespace
}  // namespace wlsync

int main(int argc, char** argv) {
  using namespace wlsync;
  const util::Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  const std::vector<std::int64_t> ns =
      split_ints(flags.get_string("n", smoke ? "32" : "64,256"));
  const std::vector<std::string> topologies =
      split_list(flags.get_string("topology", "cliques,kregular"));
  const std::vector<std::string> placements = split_list(
      flags.get_string("placement", smoke ? "trailing,articulation" : "trailing"));
  const std::vector<std::string> faults =
      split_list(flags.get_string("fault", smoke ? "none,twofaced" : "none"));
  const auto fault_count = flags.get_int("faults", -1);
  const auto trials =
      static_cast<std::int32_t>(flags.get_int("trials", smoke ? 1 : 5));
  const auto rounds =
      static_cast<std::int32_t>(flags.get_int("rounds", smoke ? 4 : 12));
  const auto clique =
      static_cast<std::int32_t>(flags.get_int("clique", 8));
  const auto degree =
      static_cast<std::int32_t>(flags.get_int("degree", smoke ? 8 : 16));
  const auto seed0 = static_cast<std::uint64_t>(flags.get_int("seed0", 1));
  const auto threads = static_cast<int>(flags.get_int("threads", 0));
  const bench::ObserveMode observe =
      bench::parse_observe(flags.get_string("observe", "off"));
  const double observe_dt = flags.get_double("dt", 0.0);
  const std::string out_path = flags.get_string("out", "");

  // ------------------------------------------------------------- grid ---
  std::vector<analysis::RunSpec> specs;
  for (const std::int64_t n : ns) {
    for (const std::string& topology : topologies) {
      net::TopologySpec topo_spec;
      topo_spec.kind = parse_topology(topology);
      topo_spec.clique_size = clique;
      topo_spec.degree = degree;
      const net::Topology topo =
          net::build_topology(topo_spec, static_cast<std::int32_t>(n));
      const std::int32_t cap = local_fault_cap(topo);
      for (const std::string& placement : placements) {
        for (const std::string& fault : faults) {
          analysis::RunSpec base;
          const analysis::FaultKind kind = parse_fault(fault);
          const std::int32_t count =
              kind == analysis::FaultKind::kNone
                  ? 0
                  : static_cast<std::int32_t>(fault_count < 0 ? cap : fault_count);
          if (kind != analysis::FaultKind::kNone && count == 0) {
            std::cerr << "bench_gradient: dropping fault=" << fault << " cells on "
                      << topology << " n=" << n
                      << " (local fault cap (min_deg-1)/3 = 0; pass --faults "
                         "explicitly to override)\n";
            continue;
          }
          base.params = core::make_params(
              static_cast<std::int32_t>(n), std::max(count, std::int32_t{1}),
              1e-5, 0.01, 1e-3, 10.0);
          base.topology = topo_spec;
          base.placement = parse_placement(placement);
          base.fault = kind;
          base.fault_count = count;
          base.rounds = rounds;
          base.measure_gradient = true;
          base.observe = observe.observe;
          base.retain_history = observe.retain;
          base.observe_dt = observe_dt;
          const std::vector<analysis::RunSpec> seeded =
              analysis::seed_sweep(base, seed0, trials);
          specs.insert(specs.end(), seeded.begin(), seeded.end());
        }
      }
    }
  }

  // ----------------------------------------------------------- stream ---
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "bench_gradient: cannot open --out=" << out_path << "\n";
      return 1;
    }
  }
  std::ostream& csv = out_path.empty() ? std::cout : file;
  csv << "spec,n,topology,topo_param,placement,fault,f,seed,rounds,diameter,"
         "slope,distance,pairs,max_skew,mean_skew,p99_skew,frontier,"
         "observe,hist_peak_mb,wall_s\n";

  std::size_t done = 0;
  std::size_t non_monotone = 0;
  const analysis::ParallelRunner runner(threads);
  std::cerr << "bench_gradient: " << specs.size() << " trials on "
            << runner.threads() << " threads\n";
  (void)runner.run_adaptive(
      specs, [&](std::size_t i, const analysis::RunResult& r) {
        const analysis::RunSpec& s = specs[i];
        const analysis::GradientSummary& g = r.gradient;
        for (std::size_t b = 0; b < g.distances.size(); ++b) {
          csv << i << ',' << s.params.n << ','
              << net::topology_name(s.topology.kind) << ','
              << topo_param(s.topology) << ','
              << proc::placement_name(s.placement) << ','
              << bench::fault_name(s.fault) << ',' << s.fault_count << ','
              << s.seed << ',' << s.rounds << ',' << g.diameter << ','
              << g.slope << ',' << g.distances[b] << ',' << g.pair_count[b]
              << ',' << g.max_skew[b] << ',' << g.mean_skew[b] << ','
              << g.p99_skew[b] << ',' << g.frontier[b] << ','
              << bench::observe_name(observe) << ','
              << static_cast<double>(r.observe.peak_history_bytes) /
                     (1024.0 * 1024.0)
              << ',' << r.wall_seconds << '\n';
        }
        if (!std::is_sorted(g.max_skew.begin(), g.max_skew.end())) {
          ++non_monotone;
        }
        if (++done % 20 == 0) {
          std::cerr << "  " << done << "/" << specs.size() << " trials\n";
        }
      });
  csv.flush();
  std::cerr << "bench_gradient: done (" << done << " trials; raw per-distance "
            << "max was non-monotone in " << non_monotone << " of them — the "
            << "frontier column is monotone by construction)\n";
  return 0;
}
