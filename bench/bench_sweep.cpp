// EXP-SWEEP — the one sweep driver (ROADMAP: "grid n x f x delay x drift
// without editing mains").
//
// Builds the cross product of comma-separated axis lists, runs every cell
// times every seed through the work-stealing ParallelRunner, and streams
// one CSV row per trial the moment it completes (rows carry their spec
// index; completion order is nondeterministic, sort by the first column for
// a stable view).  Example:
//
//   bench_sweep --n=8,16,32 --delay=uniform,slow --drift=extremal
//               --algo=wl,st --trials=20 --rounds=12 --out=grid.csv
//
// Axis values:
//   --algo      wl, lm, st, ms, mean, hssd
//   --delay     uniform, fast, slow, perlink, split
//   --drift     none, extremal, piecewise, randomwalk
//   --fault     none, silent, spam, twofaced, liar   (with --faults=count;
//               count < 0 means f, the tolerated maximum)
//   --topology  mesh, cliques, kregular   (--degree, --clique as needed)
//   --placement trailing, random, maxdeg, articulation, bridge, antipodal —
//               which topology positions the faulty roster occupies
//               (proc/placement.h; non-trailing switches the two-faced
//               attack to its neighbor-scoped per-victim mode).  Echoed in
//               the `placement` CSV column so rows are self-describing.
//   --churn     process-churn axis (net/dynamics.h): comma list of churned
//               process counts; 0 = the historical static membership.  A
//               count c > 0 installs a deterministic churn wave — processes
//               0 .. c-1 leave at 2P staggered by P/2 and rejoin 3P later
//               through core/reintegration — so every cell's schedule is a
//               pure function of (c, P), reproducible row for row.  Churn
//               requires the Welch-Lynch round structure and the event
//               engine (the fast path and PDES refuse dynamic schedules by
//               name), so churn > 0 cells with --algo != wl or
//               --engine=fastpath/pdes are skipped with a note.  Echoed in
//               the `churn` CSV column.
//   --f         explicit list, or auto = (n-1)/3 per cell
//   --nic       Section 9.3 ingress-queue axis: off, inf (unbounded), or a
//               capacity in datagrams (--nic-service seconds per datagram).
//               Fills the nic_* overflow columns; "off" rows stay zero.
//   --nic-drop  drop policy axis when the queue overflows: oldest (the
//               paper's "old ones are overwritten"), newest (tail drop).
//               Irrelevant (but echoed) on nic=off/inf rows — sweep it
//               only together with a finite capacity.
//   --stagger   Section 9.3 staggered-broadcast axis (seconds between
//               successive senders' broadcasts; Welch-Lynch only).  The
//               stagger x capacity x n grid maps the drop-free frontier.
//   --ingest    arena (dense neighbor-slot ARR arena), legacy (the seed's
//               id-indexed path) — results are bit-identical, only wall_s
//               moves; the axis exists for perf A/Bs
//   --engine    execution-engine axis (core/fastpath.h, engine/pdes.h):
//               event (the event engine, the measured reference), fastpath
//               (require the round fast path; aborts on ineligible cells),
//               pdes (require the sharded conservative engine; pair with
//               --workers), auto (fast path where the cell qualifies, then
//               PDES where the cell opted in with workers >= 2).
//               Bit-identical like --ingest; the wall_s / rounds_per_sec
//               columns show the speedup per cell, the fastpath column
//               records whether the fast path engaged, the
//               fastpath_refusal / pdes_refusal columns say why an engine
//               was declined ("-" when it ran or was never consulted;
//               commas become ';' so reasons stay one field), and
//               pdes_epochs / pdes_stalls record the conservative
//               protocol's windows and empty windows per trial.
//   --workers   PDES shard/worker-count axis (comma list).  0 (the
//               default) hands the shard count to the stall-aware
//               auto-tuner (engine::choose_pdes_workers; it may decline
//               back to serial — the pdes_refusal column says why), 1
//               forces serial, >= 2 pins the count.  Crossed with
//               --engine=pdes it maps wall-clock vs shard count.
//   --observe   measurement-engine axis: off (post-hoc grids), on
//               (streaming in-run observation), bounded (streaming +
//               history truncation; analysis/observe.h).  on == bounded
//               always; both == off bitwise on cells that complete their
//               rounds (degraded cells measure observe-mode's collapsed
//               window — see bench_common.h).  wall_s and hist_peak_mb
//               move.
//   --P         round length; --trials seeds per cell from --seed0
//   --gradient  also measure skew-vs-distance (analysis/gradient.h); fills
//               the gradient_slope / gradient_diameter / gradient_far_skew
//               columns (blank-zero when off)
//   --balance   adaptive (default: cost-aware chunks + telemetry-guided
//               stealing, ParallelRunner::run_adaptive) or fixed (equal
//               chunks).  Scheduling only; rows are bit-identical.
//   --smoke     tiny fixed grid for CI driver smoke tests
//
// --pdes-json=PATH bypasses the grid entirely and emits the PDES
// perf-trajectory artifact (BENCH_pdes.json, the engine/pdes.h acceptance
// workload): per (topology, n, workers) cell, serial event engine as the
// measured reference, with per-cell epochs/stalls and per-cell speedups
// keyed "nN_wK" (the historical deg-16 expander keys stay unprefixed so
// artifacts compare across revisions), "cliques_nN_wK" and "mesh_nN_wK".
// --pdes-topos picks the topology axis (default expander,cliques,mesh;
// mesh cells only materialize at --max-n >= 4096, the size where the
// memory-bound serial baseline makes sharding pay off), and workers
// rows include 16 (from n=1024, the lane-size floor) plus an `auto` row
// (pdes_workers=0, the kAuto default) recording what the stall-aware
// tuner picked.  Each cell is timed --reps times (default 3) and the
// BEST engine span (RunResult::engine_seconds — setup and measurement
// excluded, see analysis/experiment.h) feeds the speedup map: a single
// sample is at the mercy of the host scheduler — the ISSUE 8 audit of an
// apparently nonmonotonic n=2048 cell (w=4 slower than w=2) found it
// unreproducible across reruns (w=4 beat w=2 in 4/4 repetitions;
// epochs/stalls, which ARE deterministic, were unchanged), i.e. pure
// single-sample noise, not a partition or stall pathology.  Timing rows
// are telemetry, not gates (bit-identity is gated by ctest's pdes_test;
// the deterministic stall-rate ceiling by bench_micro --smoke) — EXCEPT
// under --pdes-compare=OLD.json, which re-parses a prior artifact's
// speedup map and fails (exit 1) if any shared key regressed below 0.8x
// its baseline, the same regression gate bench_micro --fastpath-compare
// applies to the fast path.  Keys whose serial reference span is under
// 100 ms are exempt from the gate (still reported): at that scale the
// best-of-reps minimum itself swings +-30% with machine state between
// runs, so their ratios measure the host, not the engine.
//
// Every row also carries wall_s, the trial's wall-clock seconds as measured
// inside run_experiment (per-trial telemetry from the streaming runner),
// and hist_peak_mb, the peak retained clock/CORR history on observe rows.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/parallel_runner.h"
#include "bench_common.h"
#include "net/topology.h"
#include "proc/placement.h"

namespace wlsync {
namespace {

using bench::parse_algo;
using bench::parse_delay;
using bench::parse_drift;
using bench::parse_fault;
using bench::parse_placement;
using bench::parse_topology;
using bench::split_ints;
using bench::split_list;

void write_csv_header(std::ostream& out) {
  out << "spec,n,f,algo,delay,drift,fault,faults,topology,placement,churn,"
         "ingest,"
         "engine,workers,"
         "nic,nic_drop,stagger,observe,rounds,seed,completed_rounds,messages,"
         "gamma_bound,"
         "gamma_measured,adj_bound,max_abs_adj,final_skew,validity_holds,"
         "diverged,gradient_slope,gradient_diameter,gradient_far_skew,"
         "nic_dropped,nic_drop_rate,nic_peak_queue,nic_max_burst,"
         "hist_peak_mb,fastpath,fastpath_refusal,pdes_epochs,pdes_stalls,"
         "pdes_refusal,wall_s,rounds_per_sec\n";
}

// --pdes-json: the PDES perf-trajectory artifact (BENCH_pdes.json).  The
// sparse deg-16 expander is the workload the sharded engine targets (the
// full mesh cuts O(n^2) edges; an expander cuts O(degree * n / k)); the
// serial event engine is the measured reference per (topology, n).  The
// ring-of-cliques (clique=64) row maps the near-ideal cut and the mesh
// row (n=4096 only, 2 rounds — every cell is ~n^2 messages per round)
// maps the adversarial one.  Wall-clock numbers are informational on
// shared runners.  Serial and lanes run the same d-ary heap, so on one
// core the ratios sit near 1x and what they show is real parallelism.
int run_pdes_json(const util::Flags& flags) {
  const std::string out_path =
      flags.get_string("pdes-json", "BENCH_pdes.json");
  const auto max_n = static_cast<std::int32_t>(flags.get_int("max-n", 2048));
  const auto reps =
      static_cast<std::int32_t>(std::max<std::int64_t>(flags.get_int("reps", 3), 1));
  const std::vector<std::string> topos =
      split_list(flags.get_string("pdes-topos", "expander,cliques,mesh"));
  const std::string compare_path = flags.get_string("pdes-compare", "");

  struct Cell {
    std::string key;       // speedup-map key ("" for serial reference rows)
    std::string topo;      // expander | cliques | mesh
    std::int32_t n;
    std::int32_t workers;       // 0 = serial event engine, -1 = auto-tuned
    std::int32_t workers_used;  // what actually ran (auto rows differ)
    std::int32_t rounds;
    std::int64_t epochs;
    std::int64_t stalls;
    double wall_s;    // full run_experiment (setup + engine + measurement)
    double engine_s;  // engine span only — the speedup map uses this
  };
  std::vector<Cell> cells;

  // One measured cell: best engine span (and best wall) over `cell_reps`
  // repetitions.  The run itself is deterministic (epochs/stalls are
  // identical every repetition), so the repetitions only filter host
  // scheduler noise out of the clock.
  const auto measure = [&](const std::string& topo, std::int32_t n,
                           std::int32_t workers, std::int32_t rounds,
                           std::int32_t cell_reps, std::uint64_t max_events,
                           const std::string& key) {
    analysis::RunSpec spec;
    spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
    spec.rounds = rounds;
    spec.seed = 9;
    if (topo == "expander") {
      spec.topology.kind = net::TopologyKind::kKRegular;
      spec.topology.degree = 16;
    } else if (topo == "cliques") {
      spec.topology.kind = net::TopologyKind::kRingOfCliques;
      spec.topology.clique_size = 64;
    } else {
      spec.topology.kind = net::TopologyKind::kFullMesh;
    }
    if (max_events > 0) spec.max_events = max_events;
    // workers = -1 is the auto row: kPdes with pdes_workers=0 hands the
    // shard count to the stall-aware tuner (engine::choose_pdes_workers)
    // and the cell records what it picked in workers_used.
    spec.engine = workers == 0 ? analysis::EngineMode::kEvent
                               : analysis::EngineMode::kPdes;
    spec.pdes_workers = workers < 0 ? 0 : workers;
    analysis::RunResult result;
    double wall = 0.0;
    double engine = 0.0;
    for (std::int32_t rep = 0; rep < cell_reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      try {
        result = analysis::run_experiment(spec);
      } catch (const std::exception& e) {
        // An auto row the tuner declines (or a partition collapse) is a
        // skipped cell, not a dead artifact.
        std::cerr << "  " << topo << " n=" << n << " workers=" << workers
                  << ": skipped (" << e.what() << ")\n";
        return;
      }
      const double sample =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (rep == 0 || sample < wall) wall = sample;
      if (rep == 0 || result.engine_seconds < engine) {
        engine = result.engine_seconds;
      }
    }
    cells.push_back({key, topo, n, workers, result.pdes_workers_used,
                     result.completed_rounds, result.pdes_epochs,
                     result.pdes_stalls, wall, engine});
    std::cerr << "  " << topo << " n=" << n << " workers="
              << (workers < 0 ? std::string("auto(") +
                                    std::to_string(result.pdes_workers_used) +
                                    ")"
                              : std::to_string(workers))
              << " " << result.completed_rounds << " rounds in " << engine
              << " s engine / " << wall << " s total (best of " << cell_reps
              << ")\n";
  };

  for (const std::string& topo : topos) {
    if (topo != "expander" && topo != "cliques" && topo != "mesh") {
      std::cerr << "bench_sweep: unknown --pdes-topos entry '" << topo
                << "' (want expander, cliques, mesh)\n";
      return 1;
    }
    // The historical expander keys stay unprefixed so --pdes-compare finds
    // shared keys in artifacts written before the topology axis existed.
    const std::string prefix = topo == "expander" ? "" : topo + "_";
    if (topo == "mesh") {
      // Mesh is the adversarial cut, measured only at n=4096: below that
      // the serial engine wins outright, above it the serial reference
      // alone runs for many minutes.  2 rounds keeps the
      // ~n^2-messages-per-round cell in budget, and the event budget needs
      // lifting past the 50M default.
      if (max_n < 4096) continue;
      const std::int32_t n = 4096;
      for (const std::int32_t workers : {0, 8}) {
        const std::string key =
            workers == 0 ? "" : prefix + "n" + std::to_string(n) + "_w" +
                                    std::to_string(workers);
        measure(topo, n, workers, /*rounds=*/2, std::min(reps, 2),
                /*max_events=*/400'000'000, key);
      }
      continue;
    }
    for (std::int32_t n = 512; n <= max_n; n *= 2) {
      const std::int32_t rounds = n >= 2048 ? 6 : 10;
      // Small cells are tens of milliseconds — the noisiest relative to
      // their size, and the ones the --pdes-compare gate trips on first
      // when a best-of-3 minimum fails to converge.  Double the
      // repetitions there so both the baseline artifact and the fresh CI
      // measurement carry converged minima.
      const std::int32_t cell_reps = n <= 1024 ? reps * 2 : reps;
      for (const std::int32_t workers : {0, 2, 4, 8, 16, -1}) {
        if (workers == 16 && n < 1024) continue;  // 64-process lane floor
        const std::string key =
            workers == 0
                ? ""
                : prefix + "n" + std::to_string(n) + "_w" +
                      (workers < 0 ? "auto" : std::to_string(workers));
        measure(topo, n, workers, rounds, cell_reps, /*max_events=*/0, key);
      }
    }
  }

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "bench_sweep: cannot open --pdes-json=" << out_path << "\n";
    return 1;
  }
  const auto rate = [](const Cell& c) {
    return c.engine_s > 0.0 ? static_cast<double>(c.rounds) / c.engine_s : 0.0;
  };
  json << "{\n  \"workload\": \"expander=k-regular/16, cliques=ring of "
          "64-cliques, mesh=full; P=10, seed 9, best of "
       << reps << " reps (engine span)\",\n"
       << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"topology\": \"" << c.topo << "\", \"n\": " << c.n
         << ", \"engine\": \"" << (c.workers == 0 ? "event" : "pdes")
         << "\", \"workers\": " << c.workers
         << ", \"workers_used\": " << c.workers_used
         << ", \"rounds\": " << c.rounds << ", \"pdes_epochs\": " << c.epochs
         << ", \"pdes_stalls\": " << c.stalls << ", \"wall_s\": " << c.wall_s
         << ", \"engine_s\": " << c.engine_s
         << ", \"rounds_per_sec\": " << rate(c)
         << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  // Speedup per cell vs the serial reference of the SAME (topology, n) —
  // the reference rows precede their pdes rows in `cells` by construction.
  // ref_seconds records each key's serial reference span: keys whose
  // reference runs under kGateMinRefSeconds are too noisy to ratio-gate
  // (a ~50 ms cell's best-of-reps minimum swings +-30% with machine state
  // across runs) and are excluded from --pdes-compare below — they still
  // land in the JSON for information.
  std::vector<std::pair<std::string, double>> speedups;
  std::vector<double> ref_seconds;
  {
    std::string ref_topo;
    std::int32_t ref_n = -1;
    double event_rate = 0.0;
    double event_s = 0.0;
    for (const Cell& c : cells) {
      if (c.workers == 0) {
        ref_topo = c.topo;
        ref_n = c.n;
        event_rate = rate(c);
        event_s = c.engine_s;
        continue;
      }
      if (c.topo != ref_topo || c.n != ref_n || event_rate <= 0.0) continue;
      speedups.emplace_back(c.key, rate(c) / event_rate);
      ref_seconds.push_back(event_s);
    }
  }
  json << "  ],\n  \"speedup\": {";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << speedups[i].first
         << "\": " << speedups[i].second;
  }
  json << "}\n}\n";
  json.flush();
  std::cout << "bench_sweep --pdes-json: wrote " << out_path << "\n";

  // --pdes-compare=OLD.json: the regression gate.  Every gated key shared
  // with the prior artifact must hold >= 0.8x its baseline speedup (the
  // same floor bench_micro --fastpath-compare applies); new keys inform,
  // absent keys are ignored, zero shared keys is an error (a renamed key
  // scheme would otherwise pass vacuously).  Keys whose serial reference
  // span is under kGateMinRefSeconds are skipped (see ref_seconds above):
  // their ratios are not reproducible across runs on the same machine, so
  // gating them means flaky CI, not regression coverage.
  if (!compare_path.empty()) {
    constexpr double kRegressionFloor = 0.8;
    constexpr double kGateMinRefSeconds = 0.1;
    std::vector<std::pair<std::string, double>> baseline;
    if (!bench::parse_speedup_map(compare_path, &baseline)) {
      std::cerr << "bench_sweep: cannot parse --pdes-compare=" << compare_path
                << "\n";
      return 1;
    }
    std::vector<std::pair<std::string, double>> gated;
    for (std::size_t i = 0; i < speedups.size(); ++i) {
      if (ref_seconds[i] < kGateMinRefSeconds) {
        std::cout << "  skip " << speedups[i].first
                  << " (serial reference " << ref_seconds[i] * 1e3
                  << " ms below the " << kGateMinRefSeconds * 1e3
                  << " ms gate floor)\n";
        continue;
      }
      gated.push_back(speedups[i]);
    }
    const int verdict = bench::gate_speedups("bench_sweep --pdes-compare",
                                             gated, baseline,
                                             kRegressionFloor);
    if (verdict != 1) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace wlsync

int main(int argc, char** argv) {
  using namespace wlsync;
  const util::Flags flags(argc, argv);
  if (!flags.get_string("pdes-json", "").empty()) {
    return run_pdes_json(flags);
  }
  const bool smoke = flags.get_bool("smoke", false);

  const std::vector<std::int64_t> ns =
      split_ints(flags.get_string("n", smoke ? "16" : "7"));
  const std::string f_flag = flags.get_string("f", "auto");
  const std::vector<std::string> algos =
      split_list(flags.get_string("algo", "wl"));
  const std::vector<std::string> delays =
      split_list(flags.get_string("delay", "uniform"));
  const std::vector<std::string> drifts =
      split_list(flags.get_string("drift", "extremal"));
  const std::vector<std::string> faults =
      split_list(flags.get_string("fault", smoke ? "none,twofaced" : "none"));
  const std::vector<std::string> topologies =
      split_list(flags.get_string("topology", smoke ? "mesh,cliques" : "mesh"));
  const std::vector<std::string> placements =
      split_list(flags.get_string("placement", "trailing"));
  const std::vector<std::int64_t> churns =
      split_ints(flags.get_string("churn", "0"));
  const std::vector<std::string> nics =
      split_list(flags.get_string("nic", smoke ? "off,8" : "off"));
  const double nic_service = flags.get_double("nic-service", 50e-6);
  const std::vector<std::string> nic_drops =
      split_list(flags.get_string("nic-drop", "oldest"));
  const std::vector<double> staggers =
      bench::split_doubles(flags.get_string("stagger", "0"));
  const std::vector<std::string> ingests =
      split_list(flags.get_string("ingest", "arena"));
  const std::vector<std::string> engines =
      split_list(flags.get_string("engine", smoke ? "event,auto" : "auto"));
  const std::vector<std::int64_t> workers_axis =
      split_ints(flags.get_string("workers", "0"));
  const std::vector<std::string> observes =
      split_list(flags.get_string("observe", smoke ? "off,bounded" : "off"));
  const bool adaptive =
      flags.get_string("balance", "adaptive") != "fixed";
  const bool gradient = flags.get_bool("gradient", smoke);
  const auto fault_count = flags.get_int("faults", -1);
  const auto trials =
      static_cast<std::int32_t>(flags.get_int("trials", smoke ? 2 : 5));
  const auto rounds =
      static_cast<std::int32_t>(flags.get_int("rounds", smoke ? 4 : 12));
  const double P = flags.get_double("P", 10.0);
  const auto seed0 = static_cast<std::uint64_t>(flags.get_int("seed0", 1));
  const auto threads = static_cast<int>(flags.get_int("threads", 0));
  const std::string out_path = flags.get_string("out", "");

  // ------------------------------------------------------------- grid ---
  std::vector<analysis::RunSpec> specs;
  for (const std::int64_t n : ns) {
    const std::vector<std::int64_t> fs =
        f_flag == "auto" ? std::vector<std::int64_t>{(n - 1) / 3}
                         : split_ints(f_flag);
    for (const std::int64_t f : fs) {
      for (const std::string& algo : algos) {
        for (const std::string& delay : delays) {
          for (const std::string& drift : drifts) {
            for (const std::string& fault : faults) {
              for (const std::string& topology : topologies) {
                for (const std::string& placement : placements) {
                 for (const std::int64_t churn : churns) {
                 for (const std::string& nic : nics) {
                  for (const std::string& nic_drop : nic_drops) {
                  for (const double stagger : staggers) {
                  for (const std::string& observe : observes) {
                  for (const std::string& ingest : ingests) {
                  for (const std::string& engine : engines) {
                  for (const std::int64_t workers : workers_axis) {
                  analysis::RunSpec base;
                  base.params = core::make_params(
                      static_cast<std::int32_t>(n), static_cast<std::int32_t>(f),
                      1e-5, 0.01, 1e-3, P);
                  base.algo = parse_algo(algo);
                  base.delay = parse_delay(delay);
                  base.drift = parse_drift(drift);
                  base.fault = parse_fault(fault);
                  base.fault_count =
                      base.fault == analysis::FaultKind::kNone
                          ? 0
                          : static_cast<std::int32_t>(
                                fault_count < 0 ? f : fault_count);
                  base.topology.kind = parse_topology(topology);
                  base.topology.degree =
                      static_cast<std::int32_t>(flags.get_int("degree", 8));
                  base.topology.clique_size =
                      static_cast<std::int32_t>(flags.get_int("clique", 8));
                  base.placement = parse_placement(placement);
                  base.nic = bench::parse_nic(nic, nic_service);
                  if (base.nic.has_value()) {
                    base.nic->drop = bench::parse_nic_drop(nic_drop);
                  }
                  base.stagger = stagger;
                  const bench::ObserveMode omode = bench::parse_observe(observe);
                  base.observe = omode.observe;
                  base.retain_history = omode.retain;
                  base.ingest = bench::parse_ingest(ingest);
                  base.engine = bench::parse_engine(engine);
                  // 0 under --engine=pdes is the auto-tuner (the kAuto
                  // default): engine::choose_pdes_workers picks the shard
                  // count and the row's pdes_workers column echoes the
                  // request, not the pick.
                  base.pdes_workers = static_cast<std::int32_t>(workers);
                  base.measure_gradient = gradient;
                  base.rounds = rounds;
                  if (churn > 0) {
                    // Deterministic wave: ids 0..c-1 leave at 2P staggered
                    // by P/2, rejoin 3P later (>= the 2P reintegration
                    // minimum).  Trailing fault placement keeps the
                    // Byzantine roster disjoint from the churned ids.
                    if (base.algo != analysis::Algo::kWelchLynch ||
                        base.engine == analysis::EngineMode::kFastpath ||
                        base.engine == analysis::EngineMode::kPdes ||
                        base.placement != proc::PlacementKind::kTrailing ||
                        !base.placement_ids.empty()) {
                      std::cerr << "bench_sweep: skipping churn=" << churn
                                << " cell (" << algo << "/" << engine << "/"
                                << placement
                                << "): churn needs wl + event-capable engine"
                                   " + trailing placement\n";
                      continue;
                    }
                    base.dynamics.churn_wave(2.0 * P,
                                             /*first=*/0,
                                             static_cast<std::int32_t>(churn),
                                             /*downtime=*/3.0 * P,
                                             /*stagger=*/0.5 * P);
                  }
                  const std::vector<analysis::RunSpec> seeded =
                      analysis::seed_sweep(base, seed0, trials);
                  specs.insert(specs.end(), seeded.begin(), seeded.end());
                  }
                  }
                  }
                  }
                  }
                  }
                 }
                 }
                }
              }
            }
          }
        }
      }
    }
  }

  // ----------------------------------------------------------- stream ---
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "bench_sweep: cannot open --out=" << out_path << "\n";
      return 1;
    }
  }
  std::ostream& csv = out_path.empty() ? std::cout : file;
  write_csv_header(csv);

  std::size_t done = 0;
  const analysis::ParallelRunner runner(threads);
  std::cerr << "bench_sweep: " << specs.size() << " trials on "
            << runner.threads() << " threads ("
            << (adaptive ? "adaptive" : "fixed") << " chunks)\n";
  const auto write_row = [&](std::size_t i, const analysis::RunResult& r) {
    const analysis::RunSpec& s = specs[i];
    const bench::ObserveMode omode{s.observe, s.retain_history};
    csv << i << ',' << s.params.n << ',' << s.params.f << ','
        << bench::algo_name(s.algo) << ',' << bench::delay_name(s.delay)
        << ',' << bench::drift_name(s.drift) << ','
        << bench::fault_name(s.fault) << ',' << s.fault_count << ','
        << net::topology_name(s.topology.kind) << ','
        << proc::placement_name(s.placement) << ','
        << net::churn_intervals(s.dynamics).size() << ','
        << proc::ingest_name(s.ingest) << ','
        << bench::engine_name(s.engine) << ',' << s.pdes_workers << ','
        << bench::nic_name(s.nic) << ','
        << (s.nic.has_value() ? bench::nic_drop_name(s.nic->drop) : "-") << ','
        << s.stagger << ',' << bench::observe_name(omode) << ','
        << s.rounds << ','
        << s.seed << ',' << r.completed_rounds << ',' << r.messages << ','
        << r.gamma_bound << ',' << r.gamma_measured << ',' << r.adj_bound
        << ',' << r.max_abs_adj << ',' << r.final_skew << ','
        << (r.validity.holds ? 1 : 0) << ',' << (r.diverged ? 1 : 0) << ','
        << r.gradient.slope << ',' << r.gradient.diameter << ','
        << r.gradient.far_skew() << ',' << r.nic.dropped << ','
        << r.nic.drop_rate() << ',' << r.nic.peak_queue << ','
        << r.nic.max_burst << ','
        << static_cast<double>(r.observe.peak_history_bytes) / (1024.0 * 1024.0)
        << ',' << (r.fastpath_engaged ? 1 : 0) << ','
        << bench::refusal_csv(r.fastpath_refusal) << ',' << r.pdes_epochs
        << ',' << r.pdes_stalls << ','
        << bench::refusal_csv(r.pdes_refusal) << ',' << r.wall_seconds << ','
        << (r.wall_seconds > 0.0 ? r.completed_rounds / r.wall_seconds : 0.0)
        << '\n';
    if (++done % 50 == 0) {
      std::cerr << "  " << done << "/" << specs.size() << " trials\n";
    }
  };
  if (adaptive) {
    (void)runner.run_adaptive(specs, write_row);
  } else {
    (void)runner.run_streaming(specs, write_row);
  }
  csv.flush();
  std::cerr << "bench_sweep: done (" << done << " trials)\n";
  return 0;
}
