// EXP-SWEEP — the one sweep driver (ROADMAP: "grid n x f x delay x drift
// without editing mains").
//
// Builds the cross product of comma-separated axis lists, runs every cell
// times every seed through ParallelRunner, and streams one CSV row per
// trial the moment it completes (rows carry their spec index; completion
// order is nondeterministic, sort by the first column for a stable view).
// Example:
//
//   bench_sweep --n=8,16,32 --delay=uniform,slow --drift=extremal
//               --algo=wl,st --trials=20 --rounds=12 --out=grid.csv
//
// Axis values:
//   --algo      wl, lm, st, ms, mean, hssd, startup (Section 9.2, on its
//               local quorum: deg - f_local READYs, core/startup.h)
//   --delay     uniform, fast, slow, perlink, split
//   --drift     none, extremal, piecewise, randomwalk
//   --fault     none, silent, spam, twofaced, liar   (with --faults=count;
//               count < 0 means f, the tolerated maximum)
//   --topology  mesh, cliques, kregular   (--degree, --clique as needed;
//               the topo_param column echoes the one that applies)
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
//               name), so churn > 0 cells with --algo != wl,
//               --engine=fastpath/pdes or --observe=bounded (the rejoin
//               report reads retained history) are skipped with a note.
//               Echoed in the `churn` CSV column.
//   --f         comma list of counts, auto = (n-1)/3, or local = the local
//               A2 budget min_v (deg(v) - 1) / 3 of the cell's exchange
//               graph (deg counts the self-loop; equals auto on the mesh)
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
//   --engine    execution-engine axis (core/fastpath.h, engine/pdes.h):
//               event (the event engine, the measured reference), fastpath
//               (require the round fast path; aborts on ineligible cells),
//               pdes (require the sharded conservative engine; pair with
//               --workers), auto (fast path where the cell qualifies, then
//               PDES where the cell opted in with workers >= 2).
//               Results are bit-identical; the wall_s / rounds_per_sec
//               columns show the speedup per cell, the fastpath column
//               records whether the fast path engaged, the
//               fastpath_refusal / pdes_refusal columns say why an engine
//               was declined ("-" when it ran or was never consulted;
//               commas become ';' so reasons stay one field), and
//               pdes_epochs / pdes_stalls record the conservative
//               protocol's windows and empty windows per trial.
//   --workers   PDES shard/worker-count axis (comma list).  0 (the
//               default) hands the shard count to the auto-tuner
//               (engine::choose_pdes_workers, capped by the core count;
//               it may decline back to serial — the pdes_refusal column
//               says why; under --engine=auto it declines inside the
//               runner's workers at any --threads), 1 forces serial,
//               >= 2 pins the count.  Crossed with --engine=pdes it maps
//               wall-clock vs shard count.
//   --observe   history axis: off (history retained, measured post hoc
//               on the sample grids) or bounded (history truncated behind
//               the streaming observer, which measures the run as it
//               executes; analysis/observe.h).  bounded == off bitwise on
//               cells that complete their rounds (degraded cells measure
//               the stream's collapsed window — see bench_common.h).
//               Bounded cells run on the event engine (the fast path and
//               PDES refuse an observer); wall_s, hist_peak_mb and
//               history_mb move.
//   --P         round length; --trials seeds per cell from --seed0
//   --gradient  measure skew-vs-distance (analysis/gradient.h) and write
//               one row PER DISTANCE BUCKET per trial, so a
//               skew-vs-distance curve is the set of rows sharing a spec
//               index.  distance / pairs / max_skew / mean_skew / p99_skew
//               / frontier describe the bucket (frontier = max_skew folded
//               over all distances <= d, monotone by construction); the
//               per-trial gradient_slope / gradient_diameter /
//               gradient_far_skew columns repeat on every row.  Without
//               --gradient every bucket column reads 0.
//   --threads   runner worker count (0 = hardware threads; 1 runs the
//               trials one after another on the calling thread, as does a
//               one-trial grid).  Every column but wall_s and
//               rounds_per_sec is identical for any count
//               (parallel_runner_test), so --threads=1 vs --threads=8 on
//               one grid is the runner's throughput A/B.
//   --smoke     tiny fixed grid for CI driver smoke tests
//
// Every row also carries the engine-pressure telemetry of its trial
// (RunTelemetry): queue_ops (scheduler push + pop), peak_pending (pending
// entry high-water mark), fanout_direct (ring deliveries without a queue
// round-trip), history_mb (clock/CORR history retained at the end of the
// run) and hist_peak_mb (its peak, bounded rows only), plus wall_s, the
// trial's wall-clock seconds as measured inside analysis::run.  The
// large-n topology family is a grid like any other, e.g.
//
//   bench_sweep --n=64,128,256,512 --topology=mesh,kregular,cliques
//               --degree=16 --clique=16 --rounds=4 --trials=1 --threads=1
//               --nic=8
//
// (per-round figures are these columns over completed_rounds).
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
// (pdes_workers=0, the kAuto default) recording what the auto-tuner
// picked.  Each cell is timed --reps times (default 3) and the
// BEST engine span (RunResult::engine_seconds — setup and measurement
// excluded, see analysis/experiment.h) feeds the speedup map: a single
// sample is at the mercy of the host scheduler — the ISSUE 8 audit of an
// apparently nonmonotonic n=2048 cell (w=4 slower than w=2) found it
// unreproducible across reruns (w=4 beat w=2 in 4/4 repetitions;
// epochs/stalls, which ARE deterministic, were unchanged), i.e. pure
// single-sample noise, not a partition or stall pathology.  The serial
// reference of a (topology, n) divides every speedup of its group, so the
// group's reps are interleaved (bench::time_interleaved, the loop
// bench_micro --fastpath-json uses too): every pass runs the reference
// and then each PDES row once, and one slow stretch of the host lands on
// both sides of every ratio.  Timing rows are telemetry, not gates
// (bit-identity is gated by ctest's pdes_test; the deterministic
// stall-rate ceiling by bench_micro --smoke) — EXCEPT
// under --pdes-compare=OLD.json, which re-parses a prior artifact's
// speedup map and fails (exit 1) if any shared key regressed below 0.8x
// its baseline, the same regression gate bench_micro --fastpath-compare
// applies to the fast path.  Keys whose serial reference span is under
// 100 ms are exempt from the gate (still reported): at that scale the
// best-of-reps minimum itself swings +-30% with machine state between
// runs, so their ratios measure the host, not the engine.
//
// A malformed flag or axis value, or a flag the driver does not know
// (`--nn=5`), exits 2 with the flag named.

#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
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

// ---------------------------------------------------------- CSV schema ---
//
// One row of the CSV: a trial's spec and result, and which of its distance
// buckets the bucket columns describe (always 0 without --gradient, where
// the bucket columns read 0).
struct Row {
  std::size_t index;
  const analysis::RunSpec& spec;
  const analysis::RunResult& result;
  std::size_t bucket;
};

// The bucket column `v` of a row; 0 when the trial measured no gradient.
template <typename T>
T bucket_value(const Row& row, const std::vector<T>& v) {
  return row.bucket < v.size() ? v[row.bucket] : T{};
}

std::int32_t topo_param(const net::TopologySpec& topology) {
  switch (topology.kind) {
    case net::TopologyKind::kRingOfCliques: return topology.clique_size;
    case net::TopologyKind::kKRegular: return topology.degree;
    default: return 0;
  }
}

double megabytes(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// The one column list: the header and every row are written from it, so a
// column cannot be in one and missing from the other.
struct Column {
  const char* name;
  void (*write)(std::ostream&, const Row&);
};

#define COLUMN(name, expr) \
  Column { name, [](std::ostream& out, const Row& r) { out << (expr); } }
const Column kColumns[] = {
    COLUMN("spec", r.index),
    COLUMN("n", r.spec.params.n),
    COLUMN("f", r.spec.params.f),
    COLUMN("algo", bench::algo_name(r.spec.algo)),
    COLUMN("delay", bench::delay_name(r.spec.delay)),
    COLUMN("drift", bench::drift_name(r.spec.drift)),
    COLUMN("fault", bench::fault_name(r.spec.fault)),
    COLUMN("faults", r.spec.fault_count),
    COLUMN("topology", net::topology_name(r.spec.topology.kind)),
    COLUMN("topo_param", topo_param(r.spec.topology)),
    COLUMN("placement", proc::placement_name(r.spec.placement)),
    COLUMN("churn", net::churn_intervals(r.spec.dynamics).size()),
    COLUMN("engine", bench::engine_name(r.spec.engine)),
    COLUMN("workers", r.spec.pdes_workers),
    COLUMN("nic", bench::nic_name(r.spec.nic)),
    COLUMN("nic_drop", r.spec.nic.has_value()
                           ? bench::nic_drop_name(r.spec.nic->drop)
                           : "-"),
    COLUMN("stagger", r.spec.stagger),
    COLUMN("observe", bench::observe_name(r.spec.retain_history)),
    COLUMN("rounds", r.spec.rounds),
    COLUMN("seed", r.spec.seed),
    COLUMN("completed_rounds", r.result.completed_rounds),
    COLUMN("messages", r.result.messages),
    COLUMN("gamma_bound", r.result.gamma_bound),
    COLUMN("gamma_measured", r.result.gamma_measured),
    COLUMN("adj_bound", r.result.adj_bound),
    COLUMN("max_abs_adj", r.result.max_abs_adj),
    COLUMN("final_skew", r.result.final_skew),
    COLUMN("validity_holds", r.result.validity.holds ? 1 : 0),
    COLUMN("diverged", r.result.diverged ? 1 : 0),
    COLUMN("gradient_slope", r.result.gradient.slope),
    COLUMN("gradient_diameter", r.result.gradient.diameter),
    COLUMN("gradient_far_skew", r.result.gradient.far_skew()),
    COLUMN("distance", bucket_value(r, r.result.gradient.distances)),
    COLUMN("pairs", bucket_value(r, r.result.gradient.pair_count)),
    COLUMN("max_skew", bucket_value(r, r.result.gradient.max_skew)),
    COLUMN("mean_skew", bucket_value(r, r.result.gradient.mean_skew)),
    COLUMN("p99_skew", bucket_value(r, r.result.gradient.p99_skew)),
    COLUMN("frontier", bucket_value(r, r.result.gradient.frontier)),
    COLUMN("nic_dropped", r.result.nic.dropped),
    COLUMN("nic_drop_rate", r.result.nic.drop_rate()),
    COLUMN("nic_peak_queue", r.result.nic.peak_queue),
    COLUMN("nic_max_burst", r.result.nic.max_burst),
    COLUMN("hist_peak_mb", megabytes(r.result.observe.peak_history_bytes)),
    COLUMN("history_mb", megabytes(r.result.history_bytes)),
    COLUMN("queue_ops", r.result.queue_ops),
    COLUMN("peak_pending", r.result.peak_pending),
    COLUMN("fanout_direct", r.result.fanout_direct),
    COLUMN("fastpath", r.result.fastpath_engaged ? 1 : 0),
    COLUMN("fastpath_refusal", bench::refusal_csv(r.result.fastpath_refusal)),
    COLUMN("pdes_epochs", r.result.pdes_epochs),
    COLUMN("pdes_stalls", r.result.pdes_stalls),
    COLUMN("pdes_refusal", bench::refusal_csv(r.result.pdes_refusal)),
    COLUMN("wall_s", r.result.wall_seconds),
    COLUMN("rounds_per_sec", r.result.wall_seconds > 0.0
                                 ? r.result.completed_rounds /
                                       r.result.wall_seconds
                                 : 0.0),
};
#undef COLUMN

void write_csv_header(std::ostream& out) {
  for (const Column& column : kColumns) {
    if (&column != kColumns) out << ',';
    out << column.name;
  }
  out << '\n';
}

void write_csv_row(std::ostream& out, const Row& row) {
  for (const Column& column : kColumns) {
    if (&column != kColumns) out << ',';
    column.write(out, row);
  }
  out << '\n';
}

/// The --f=local value: the largest f no honest neighborhood of the
/// cell's exchange graph overruns, min_v core::local_fault_budget(deg(v))
/// with deg counting the self-loop (the quorum view every algorithm
/// clamps against).
std::int32_t local_fault_cap(const net::TopologySpec& spec, std::int32_t n) {
  const net::Topology topo = net::build_topology(spec, n);
  std::int32_t cap = (n - 1) / 3;
  for (std::int32_t v = 0; v < topo.n(); ++v) {
    cap = core::local_fault_budget(static_cast<std::size_t>(topo.degree(v)),
                                   n, cap);
  }
  return cap;
}

/// Replaces every spec by one copy per axis value, `set` applying the
/// value to the copy.
template <typename T, typename Set>
void cross(std::vector<analysis::RunSpec>& specs, const std::vector<T>& values,
           Set set) {
  std::vector<analysis::RunSpec> out;
  out.reserve(specs.size() * values.size());
  for (const analysis::RunSpec& spec : specs) {
    for (const T& value : values) {
      out.push_back(spec);
      set(out.back(), value);
    }
  }
  specs = std::move(out);
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
  flags.reject_unread();

  struct Cell {
    std::string key;       // speedup-map key ("" for serial reference rows)
    std::string topo;      // expander | cliques | mesh
    std::int32_t n;
    std::int32_t workers;       // 0 = serial event engine, -1 = auto-tuned
    std::int32_t workers_used;  // what actually ran (auto rows differ)
    std::int32_t rounds;
    std::int64_t epochs;
    std::int64_t stalls;
    double wall_s;    // full analysis::run (setup + engine + measurement)
    double engine_s;  // engine span only — the speedup map uses this
  };
  std::vector<Cell> cells;

  // One timed run of a cell.  The run is deterministic (epochs/stalls are
  // identical every repetition), so repetitions only filter host scheduler
  // noise out of the clock.  Returns nothing for a cell that cannot run.
  const auto run_cell = [&](const std::string& topo, std::int32_t n,
                            std::int32_t workers, std::int32_t rounds,
                            std::uint64_t max_events,
                            const std::string& key) -> std::optional<Cell> {
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
    // shard count to the tuner (engine::choose_pdes_workers, capped by the
    // core count) and the cell records what it picked in workers_used.
    spec.engine = workers == 0 ? analysis::EngineMode::kEvent
                               : analysis::EngineMode::kPdes;
    spec.pdes_workers = workers < 0 ? 0 : workers;
    analysis::RunResult result;
    try {
      result = analysis::run(spec);
    } catch (const std::exception& e) {
      // An auto row the tuner declines (or a partition collapse) is a
      // skipped cell, not a dead artifact.
      std::cerr << "  " << topo << " n=" << n << " workers=" << workers
                << ": skipped (" << e.what() << ")\n";
      return std::nullopt;
    }
    return Cell{key, topo, n, workers, result.pdes_workers_used,
                result.completed_rounds, result.pdes_epochs,
                result.pdes_stalls, result.wall_seconds,
                result.engine_seconds};
  };

  // One (topology, n) group: the serial reference (workers 0) and its PDES
  // rows, timed through bench::time_interleaved so every row's reps
  // alternate with the reference's.  Each cell keeps its best engine span
  // and best wall over `cell_reps` runs.
  const auto measure_group = [&](const std::string& topo, std::int32_t n,
                                 const std::vector<std::int32_t>& workers,
                                 std::int32_t rounds, std::int32_t cell_reps,
                                 std::uint64_t max_events,
                                 const std::string& prefix) {
    std::vector<std::optional<Cell>> best(workers.size());
    bench::time_interleaved(
        workers.size(), cell_reps, std::numeric_limits<double>::infinity(),
        [&](std::size_t c) -> std::optional<double> {
          const std::string key =
              workers[c] == 0
                  ? ""
                  : prefix + "n" + std::to_string(n) + "_w" +
                        (workers[c] < 0 ? "auto" : std::to_string(workers[c]));
          const std::optional<Cell> cell =
              run_cell(topo, n, workers[c], rounds, max_events, key);
          if (!cell) return std::nullopt;
          if (!best[c]) {
            best[c] = cell;
          } else {
            best[c]->wall_s = std::min(best[c]->wall_s, cell->wall_s);
            best[c]->engine_s = std::min(best[c]->engine_s, cell->engine_s);
          }
          return cell->engine_s;
        });
    for (const std::optional<Cell>& cell : best) {
      if (!cell) continue;
      std::cerr << "  " << topo << " n=" << n << " workers="
                << (cell->workers < 0
                        ? "auto(" + std::to_string(cell->workers_used) + ")"
                        : std::to_string(cell->workers))
                << " " << cell->rounds << " rounds in " << cell->engine_s
                << " s engine / " << cell->wall_s << " s total (best of "
                << cell_reps << ")\n";
      cells.push_back(*cell);
    }
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
      measure_group(topo, 4096, {0, 8}, /*rounds=*/2, std::min(reps, 2),
                    /*max_events=*/400'000'000, prefix);
      continue;
    }
    for (std::int32_t n = 512; n <= max_n; n *= 2) {
      const std::int32_t rounds = n >= 2048 ? 6 : 10;
      // Small cells are tens of milliseconds — the noisiest relative to
      // their size, and the ones the --pdes-compare gate trips on first
      // when a best-of-reps minimum fails to converge.  Double the
      // repetitions there so both the baseline artifact and the fresh CI
      // measurement carry converged minima.
      const std::int32_t cell_reps = n <= 1024 ? reps * 2 : reps;
      std::vector<std::int32_t> workers = {0, 2, 4, 8, 16, -1};
      if (n < 1024) {  // 64-process lane floor
        workers.erase(std::find(workers.begin(), workers.end(), 16));
      }
      measure_group(topo, n, workers, rounds, cell_reps, /*max_events=*/0,
                    prefix);
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
       << reps << " reps (engine span; doubled at n <= 1024), each "
          "(topology, n) group's reps interleaved with its serial "
          "reference's\",\n"
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

namespace {

int run_sweep(const wlsync::util::Flags& flags) {
  using namespace wlsync;
  if (!flags.get_string("pdes-json", "").empty()) {
    return run_pdes_json(flags);
  }
  const bool smoke = flags.get_bool("smoke", false);

  const std::vector<std::int32_t> ns =
      split_ints(flags.get_string("n", smoke ? "16" : "7"), "n");
  const std::vector<std::string> fs = split_list(flags.get_string("f", "auto"));
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
  const std::vector<std::int32_t> churns =
      split_ints(flags.get_string("churn", "0"), "churn");
  const std::vector<std::string> nics =
      split_list(flags.get_string("nic", smoke ? "off,8" : "off"));
  const double nic_service = flags.get_double("nic-service", 50e-6);
  const std::vector<std::string> nic_drops =
      split_list(flags.get_string("nic-drop", "oldest"));
  const std::vector<double> staggers =
      bench::split_doubles(flags.get_string("stagger", "0"), "stagger");
  const std::vector<std::string> engines =
      split_list(flags.get_string("engine", smoke ? "event,auto" : "auto"));
  const std::vector<std::int32_t> workers_axis =
      split_ints(flags.get_string("workers", "0"), "workers");
  const std::vector<std::string> observes =
      split_list(flags.get_string("observe", smoke ? "off,bounded" : "off"));
  const bool gradient = flags.get_bool("gradient", smoke);
  const auto fault_count = flags.get_int("faults", -1);
  const auto degree = static_cast<std::int32_t>(flags.get_int("degree", 8));
  const auto clique = static_cast<std::int32_t>(flags.get_int("clique", 8));
  const auto trials =
      static_cast<std::int32_t>(flags.get_int("trials", smoke ? 2 : 5));
  const auto rounds =
      static_cast<std::int32_t>(flags.get_int("rounds", smoke ? 4 : 12));
  const double P = flags.get_double("P", 10.0);
  const auto seed0 = static_cast<std::uint64_t>(flags.get_int("seed0", 1));
  const auto threads = static_cast<int>(flags.get_int("threads", 0));
  const std::string out_path = flags.get_string("out", "");
  flags.reject_unread();

  // ------------------------------------------------------------- grid ---
  // Each cross() multiplies the grid by one axis, so the first axis varies
  // slowest and the seeds fastest.
  using analysis::RunSpec;
  RunSpec base;
  base.rounds = rounds;
  base.measure_gradient = gradient;
  std::vector<RunSpec> specs{base};
  cross(specs, ns, [](auto& s, std::int32_t v) { s.params.n = v; });
  cross(specs, topologies, [&](RunSpec& s, const std::string& topology) {
    s.topology.kind = parse_topology(topology);
    s.topology.degree = degree;
    s.topology.clique_size = clique;
  });
  cross(specs, fs, [&](RunSpec& s, const std::string& entry) {
    const std::int32_t n = s.params.n;
    const std::int32_t f = entry == "auto"    ? (n - 1) / 3
                           : entry == "local" ? local_fault_cap(s.topology, n)
                                              : bench::parse_int(entry, "f");
    s.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, P);
  });
  cross(specs, algos, [](auto& s, const auto& v) { s.algo = parse_algo(v); });
  cross(specs, delays,
        [](auto& s, const auto& v) { s.delay = parse_delay(v); });
  cross(specs, drifts,
        [](auto& s, const auto& v) { s.drift = parse_drift(v); });
  cross(specs, faults, [&](RunSpec& s, const std::string& fault) {
    s.fault = parse_fault(fault);
    s.fault_count =
        s.fault == analysis::FaultKind::kNone
            ? 0
            : static_cast<std::int32_t>(fault_count < 0 ? s.params.f
                                                        : fault_count);
  });
  cross(specs, placements,
        [](auto& s, const auto& v) { s.placement = parse_placement(v); });
  cross(specs, churns, [&](RunSpec& s, std::int32_t churn) {
    // Deterministic wave: ids 0..c-1 leave at 2P staggered by P/2, rejoin
    // 3P later (>= the 2P reintegration minimum).
    if (churn > 0) {
      s.dynamics.churn_wave(2.0 * P, /*first=*/0, churn, /*downtime=*/3.0 * P,
                            /*stagger=*/0.5 * P);
    }
  });
  cross(specs, nics, [&](auto& s, const auto& v) {
    s.nic = bench::parse_nic(v, nic_service);
  });
  cross(specs, nic_drops, [](RunSpec& s, const std::string& nic_drop) {
    const sim::NicDropPolicy drop = bench::parse_nic_drop(nic_drop);
    if (s.nic.has_value()) s.nic->drop = drop;
  });
  cross(specs, staggers, [](auto& s, double v) { s.stagger = v; });
  cross(specs, observes, [](RunSpec& s, const std::string& observe) {
    s.retain_history = bench::parse_observe(observe);
  });
  cross(specs, engines,
        [](auto& s, const auto& v) { s.engine = bench::parse_engine(v); });
  // 0 under --engine=pdes is the auto-tuner (the kAuto default):
  // engine::choose_pdes_workers picks the shard count, capped by the core
  // count, and the row's workers column echoes the request, not the pick.
  cross(specs, workers_axis,
        [](auto& s, std::int32_t v) { s.pdes_workers = v; });
  // Churn needs the Welch-Lynch round structure and the event engine (the
  // fast path and PDES refuse dynamic schedules by name); trailing fault
  // placement keeps the Byzantine roster disjoint from the churned ids, and
  // the rejoin reports read retained history.
  std::erase_if(specs, [](const RunSpec& s) {
    const bool skip = !s.dynamics.events.empty() &&
                      (s.algo != analysis::Algo::kWelchLynch ||
                       s.engine == analysis::EngineMode::kFastpath ||
                       s.engine == analysis::EngineMode::kPdes ||
                       s.placement != proc::PlacementKind::kTrailing ||
                       !s.retain_history);
    if (skip) {
      std::cerr << "bench_sweep: skipping churn="
                << net::churn_intervals(s.dynamics).size() << " cell ("
                << bench::algo_name(s.algo) << "/"
                << bench::engine_name(s.engine) << "/"
                << proc::placement_name(s.placement) << "/"
                << bench::observe_name(s.retain_history)
                << "): churn needs wl + event-capable engine + trailing "
                   "placement + retained history\n";
    }
    return skip;
  });
  std::vector<std::uint64_t> seeds;
  for (std::int32_t t = 0; t < trials; ++t) {
    seeds.push_back(seed0 + static_cast<std::uint64_t>(t));
  }
  cross(specs, seeds, [](auto& s, std::uint64_t v) { s.seed = v; });

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
            << runner.threads() << " threads\n";
  (void)runner.run_adaptive(
      specs, [&](std::size_t i, const analysis::RunResult& r) {
        // One row per distance bucket under --gradient, else one per trial.
        const std::size_t rows =
            std::max<std::size_t>(r.gradient.distances.size(), 1);
        for (std::size_t b = 0; b < rows; ++b) {
          write_csv_row(csv, Row{i, specs[i], r, b});
        }
        if (++done % 50 == 0) {
          std::cerr << "  " << done << "/" << specs.size() << " trials\n";
        }
      });
  csv.flush();
  std::cerr << "bench_sweep: done (" << done << " trials)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_sweep(wlsync::util::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "bench_sweep: " << e.what() << "\n";
    return 2;
  }
}
