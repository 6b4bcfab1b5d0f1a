// bench_e2e — the repository's end-to-end benchmark (see README.md here).
//
//   bench_e2e --workload=NAME [--seed=1] [--reps=3] [--seconds=0]
//   bench_e2e --workload=NAME [--seed=1] --trace=FILE
//   bench_e2e --smoke
//
// One process runs one workload as a closed loop: each rep starts when the
// previous one finishes.  After one untimed warm-up rep it times reps until
// at least --reps reps and --seconds seconds have gone by.  Every metric is
// printed as `name value unit`; any other
// line starts with '#'.  The end-to-end metrics are medians over the reps,
// measured with tracing off.  --trace=FILE instead makes the traced run that
// yields the per-layer metrics and writes its spans to FILE as Chrome
// trace-event JSON.  Every run is checked (bounds, rep-to-rep identity,
// engine-to-engine identity); the exit code is 0 only if all checks pass.
//
// Only the library's public API is called: net::build_topology,
// net::partition_topology, analysis::Experiment, analysis::skew_series /
// check_validity, analysis::ParallelRunner::run_adaptive, the
// sim::Simulator counters and RunResult's telemetry.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "analysis/skew.h"
#include "core/params.h"
#include "engine/scheduler.h"
#include "net/partition.h"
#include "net/topology.h"
#include "trace.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

using namespace wlsync;
using bench::e2e::SpanRecorder;
using bench::e2e::Workload;
using Clock = std::chrono::steady_clock;

/// Setups are short (0.1-30 ms) and jitter by ~25% each, so setup_s is the
/// median of many samples: each timed rep's own setup plus kExtraSetups
/// construction-only passes after it (spreading the samples over the whole
/// run), topped up to at least kSetupSamples at the end.
constexpr int kExtraSetups = 3;
constexpr std::size_t kSetupSamples = 31;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void metric(const std::string& name, double value, const char* unit) {
  std::cout << name << ' '
            << std::setprecision(std::numeric_limits<double>::max_digits10)
            << value << ' ' << unit << '\n';
}

void not_applicable(const std::string& name, const char* why) {
  std::cout << "# " << name << " n/a (" << why << ")\n";
}

// ------------------------------------------------------------- checks ---

/// Counts checked units (runs, trials, engine configurations) and failures.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(const std::string& what, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    std::cout << "# FAIL " << what << ": " << problem << '\n';
    std::cerr << "bench_e2e: FAIL " << what << ": " << problem << '\n';
  }
};

/// Per-run checks.  Every run must complete its rounds without diverging;
/// Welch-Lynch runs inside the paper's assumptions A1-A4 (full mesh, NIC
/// off, n > 3f) must also meet Theorems 4(a), 4(c), 16 and 19.
std::string check_run(const analysis::RunSpec& spec,
                      const analysis::RunResult& r) {
  std::ostringstream problem;
  if (r.completed_rounds < spec.rounds) {
    problem << "completed " << r.completed_rounds << " < " << spec.rounds
            << " rounds; ";
  }
  if (r.diverged) problem << "diverged; ";
  const std::int32_t faults =
      spec.fault == analysis::FaultKind::kNone ? 0 : spec.fault_count;
  const bool in_model = spec.algo == analysis::Algo::kWelchLynch &&
                        !spec.nic.has_value() &&
                        spec.topology.kind == net::TopologyKind::kFullMesh &&
                        spec.params.n > 3 * faults;
  if (in_model) {
    if (!(r.gamma_measured <= r.gamma_bound)) {
      problem << "gamma " << r.gamma_measured << " > bound " << r.gamma_bound
              << " (Theorem 16); ";
    }
    if (!(r.max_abs_adj <= r.adj_bound)) {
      problem << "adjustment " << r.max_abs_adj << " > bound " << r.adj_bound
              << " (Theorem 4a); ";
    }
    const double spread =
        r.begin_spread.empty()
            ? 0.0
            : *std::max_element(r.begin_spread.begin(), r.begin_spread.end());
    if (!(spread <= spec.params.beta)) {
      problem << "begin spread " << spread << " > beta " << spec.params.beta
              << " (Theorem 4c); ";
    }
    if (!r.validity.holds) problem << "validity envelope broken (Theorem 19); ";
  }
  return problem.str();
}

std::string check_identical(const analysis::RunResult& a,
                            const analysis::RunResult& b, const char* what) {
  return analysis::results_identical(a, b)
             ? std::string()
             : std::string("not results_identical to ") + what;
}

// -------------------------------------------------------- single runs ---

struct Timed {
  double setup_s = 0.0;  ///< Experiment constructor
  double run_s = 0.0;    ///< constructor + run()
  /// Constructor through destructor, as RunResult::wall_seconds counts a
  /// runner trial; set by traced runs only.
  double wall_s = 0.0;
  analysis::RunResult result;
};

Timed run_timed(const analysis::RunSpec& spec) {
  Timed t;
  const auto t0 = Clock::now();
  analysis::Experiment experiment(spec);
  t.setup_s = since(t0);
  t.result = experiment.run();
  t.run_s = since(t0);
  return t;
}

double construct_only(const analysis::RunSpec& spec) {
  const auto t0 = Clock::now();
  const analysis::Experiment experiment(spec);
  return since(t0);
}

// ------------------------------------------------------------- sweeps ---

/// The serial pre-pass that constructs every trial without running it.
double sweep_setup(const std::vector<analysis::RunSpec>& specs) {
  double total = 0.0;
  for (const analysis::RunSpec& spec : specs) total += construct_only(spec);
  return total;
}

struct SweepRun {
  double run_s = 0.0;
  std::vector<analysis::RunResult> results;
};

SweepRun run_sweep(
    const std::vector<analysis::RunSpec>& specs,
    const std::function<void(std::size_t, const analysis::RunResult&)>&
        on_result = {}) {
  SweepRun s;
  const auto t0 = Clock::now();
  s.results = analysis::ParallelRunner(bench::e2e::kThreads)
                  .run_adaptive(specs, on_result);
  s.run_s = since(t0);
  return s;
}

// ---------------------------------------------------- untraced measure ---

/// The closed loop: a warm-up rep, then timed reps until both --reps and
/// --seconds are met.  Prints the end-to-end metrics.
void measure(const Workload& w, int reps, double seconds, Tally& tally) {
  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::vector<analysis::RunResult> first;
  const auto setup_once = [&w] {
    return w.sweep ? sweep_setup(w.specs) : construct_only(w.specs.front());
  };
  auto start = Clock::now();
  for (int rep = 0; rep == 0 || static_cast<int>(run_s.size()) < reps ||
                    since(start) < seconds;
       ++rep) {
    std::vector<analysis::RunResult> results;
    double rep_setup = 0.0;
    double rep_run = 0.0;
    if (w.sweep) {
      rep_setup = sweep_setup(w.specs);
      SweepRun s = run_sweep(w.specs);
      rep_run = s.run_s;
      results = std::move(s.results);
    } else {
      Timed t = run_timed(w.specs.front());
      rep_setup = t.setup_s;
      rep_run = t.run_s;
      results.push_back(std::move(t.result));
    }
    std::cout << "# rep " << rep << " run_s " << rep_run << " setup_s "
              << rep_setup << (rep == 0 ? " (warm-up, not timed)" : "") << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::string problem = check_run(w.specs[i], results[i]);
      if (rep > 0) problem += check_identical(results[i], first[i], "rep 0");
      tally.record(w.name + " rep " + std::to_string(rep) + " trial " +
                       std::to_string(i),
                   problem);
    }
    if (rep == 0) {
      // First-touch page faults and allocator growth make the first rep of
      // a process slower than the rest; it is checked but not timed.
      first = std::move(results);
      start = Clock::now();
    } else {
      run_s.push_back(rep_run);
      setup_s.push_back(rep_setup);
      for (int k = 0; k < kExtraSetups; ++k) setup_s.push_back(setup_once());
    }
  }
  while (setup_s.size() < kSetupSamples) setup_s.push_back(setup_once());
  std::cout << "# reps " << run_s.size() << ", setup samples " << setup_s.size()
            << '\n';
  metric("run_s", median(run_s), "s");
  metric("setup_s", median(setup_s), "s");
  metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// -------------------------------------------------------- traced run ---

/// Per-layer counters accumulated over one run or a serial sweep pass.
struct Layers {
  double engine_s = 0.0;
  double measure_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double skew_series_s = 0.0;
  double check_validity_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t queue_ops = 0;
  std::uint64_t messages = 0;
  std::size_t peak_pending = 0;
  std::size_t history_bytes = 0;
  std::size_t nic_peak_queue = 0;
  std::int64_t fastpath_exchanges = 0;
  std::int64_t fastpath_rearms = 0;
  double fastpath_engine_s = 0.0;
  std::uint64_t fastpath_messages = 0;
  std::int64_t pdes_epochs = 0;
  std::int64_t pdes_stalls = 0;
  std::int32_t pdes_workers_used = 0;
};

/// One traced Experiment run under `parent`: spans "setup" and "run" (with
/// "sim.engine" / "analysis.measure" children made from
/// RunResult::engine_seconds), then the two measurement probes re-timed on
/// the run's own window, which must reproduce run()'s values.  Folds the
/// layer counters into `layers`; appends any failed check to `problem`.
Timed traced_run(const analysis::RunSpec& spec, SpanRecorder& rec, int parent,
                 int run_id, Layers& layers, std::string& problem) {
  Timed t;
  const auto t0 = Clock::now();
  const int setup_span = rec.begin("setup", parent, run_id);
  std::optional<analysis::Experiment> exp(std::in_place, spec);
  rec.end(setup_span);
  t.setup_s = since(t0);
  const int run_span = rec.begin("run", parent, run_id);
  t.result = exp->run();
  rec.end(run_span);
  t.run_s = since(t0);

  const analysis::RunResult& r = t.result;
  const SpanRecorder::Span run = rec.spans()[static_cast<std::size_t>(run_span)];
  // run() times its engine span internally; what precedes it inside run()
  // is a few field copies, so the engine span is placed at run()'s start.
  rec.add("sim.engine", run.start, run.start + r.engine_seconds, run_span,
          run_id);
  rec.add("analysis.measure", run.start + r.engine_seconds, run.end, run_span,
          run_id);
  layers.setup_s += t.setup_s;
  layers.run_s += t.run_s;
  layers.engine_s += r.engine_seconds;
  layers.measure_s += (t.run_s - t.setup_s) - r.engine_seconds;

  const sim::Simulator& sim = exp->simulator();
  layers.events += sim.events_processed();
  layers.queue_ops += sim.queue_ops();
  layers.messages += sim.messages_sent();
  layers.peak_pending = std::max(layers.peak_pending, sim.peak_pending());
  layers.history_bytes = std::max(layers.history_bytes, sim.history_bytes());
  layers.nic_peak_queue = std::max(layers.nic_peak_queue, r.nic.peak_queue);
  layers.fastpath_exchanges += r.fastpath_exchanges;
  layers.fastpath_rearms += r.fastpath_rearms;
  if (r.fastpath_engaged) {
    layers.fastpath_engine_s += r.engine_seconds;
    layers.fastpath_messages += r.messages;
  }
  layers.pdes_epochs += r.pdes_epochs;
  layers.pdes_stalls += r.pdes_stalls;
  layers.pdes_workers_used = std::max(layers.pdes_workers_used, r.pdes_workers_used);

  // Re-time the post-hoc probes on exactly the window run() measured.
  const core::Params& p = spec.params;
  const core::Derived d = core::derive(p);
  const std::vector<std::int32_t>& honest = exp->honest();
  double t_steady = exp->tmax0() + d.window;
  const std::int32_t last_round = exp->trace().last_complete_round(honest);
  if (last_round >= 0) {
    const std::vector<double> mid =
        exp->trace().begin_times(last_round / 2, honest);
    if (!mid.empty()) t_steady = *std::max_element(mid.begin(), mid.end());
  }
  const auto probes_start = Clock::now();
  int span = rec.begin("analysis.skew_series", parent, run_id);
  const analysis::SkewSeries series =
      analysis::skew_series(sim, honest, t_steady, r.t_end, p.P / 25.0);
  rec.end(span);
  layers.skew_series_s += rec.duration(span);
  span = rec.begin("analysis.check_validity", parent, run_id);
  const analysis::ValidityReport validity =
      analysis::check_validity(sim, honest, p, exp->tmin0(), exp->tmax0(),
                               exp->tmax0() + d.window, r.t_end, p.P / 10.0);
  rec.end(span);
  layers.check_validity_s += rec.duration(span);
  if (series.max_skew != r.gamma_measured ||
      validity.holds != r.validity.holds ||
      validity.max_upper_violation != r.validity.max_upper_violation) {
    problem += "re-timed measurement probes disagree with run()'s values; ";
  }
  const double probes_s = since(probes_start);
  exp.reset();
  t.wall_s = since(t0) - probes_s;
  return t;
}

/// Restricts the calling thread — and the threads it spawns, like the PDES
/// workers — to one core for its lifetime.
class OneCore {
 public:
  OneCore() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved_)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  }
  ~OneCore() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  OneCore(const OneCore&) = delete;
  OneCore& operator=(const OneCore&) = delete;

 private:
  cpu_set_t saved_{};
};

struct SplitConfig {
  const char* metric;
  analysis::EngineMode engine;
  std::int32_t workers;
  engine::SchedulerKind scheduler;
  bool one_core;
};

/// ROADMAP item 1's engine split.  The serial three let kAuto pick its best
/// single-threaded engine (fast path where eligible, else the event engine)
/// under each scheduler; pdes_workers = 1 opts kAuto out of PDES.
constexpr SplitConfig kSplit[] = {
    {"engine.serial_default_s", analysis::EngineMode::kAuto, 1,
     engine::SchedulerKind::kAuto, false},
    {"engine.serial_dary_s", analysis::EngineMode::kAuto, 1,
     engine::SchedulerKind::kDaryHeap, false},
    {"engine.serial_calendar_s", analysis::EngineMode::kAuto, 1,
     engine::SchedulerKind::kCalendar, false},
    {"engine.pdes_w1_s", analysis::EngineMode::kPdes, 1,
     engine::SchedulerKind::kAuto, false},
    {"engine.pdes_w4_1core_s", analysis::EngineMode::kPdes,
     bench::e2e::kThreads, engine::SchedulerKind::kAuto, true},
    {"engine.pdes_w4_s", analysis::EngineMode::kPdes, bench::e2e::kThreads,
     engine::SchedulerKind::kAuto, false},
};

/// Runs `specs` (each with a reference result) under every split
/// configuration and prints each configuration's summed engine span.
void engine_split(const Workload& w,
                  const std::vector<const analysis::RunSpec*>& specs,
                  const std::vector<const analysis::RunResult*>& reference,
                  SpanRecorder& rec, Tally& tally) {
  const int root = rec.begin("engine.split", -1, 0);
  int config_id = 0;
  for (const SplitConfig& config : kSplit) {
    ++config_id;
    const bool pdes = config.engine == analysis::EngineMode::kPdes;
    if (pdes && !w.pdes_split) {
      not_applicable(config.metric, "PDES split runs on expander_nic and sweep_compare");
      continue;
    }
    const int span = rec.begin(config.metric, root, config_id);
    double engine_s = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      analysis::RunSpec spec = *specs[i];
      spec.engine = config.engine;
      spec.pdes_workers = config.workers;
      spec.scheduler = config.scheduler;
      std::string problem;
      try {
        std::optional<OneCore> pin;
        if (config.one_core) pin.emplace();
        const analysis::RunResult r = run_timed(spec).result;
        pin.reset();
        engine_s += r.engine_seconds;
        problem = check_identical(r, *reference[i], "the traced run");
        if (pdes && r.pdes_workers_used != config.workers) {
          problem += "PDES ran " + std::to_string(r.pdes_workers_used) +
                     " workers, not " + std::to_string(config.workers);
        }
      } catch (const std::exception& e) {
        problem = e.what();
      }
      tally.record(w.name + " split " + config.metric + " spec " +
                       std::to_string(i),
                   problem);
    }
    rec.end(span);
    metric(config.metric, engine_s, "s");
  }
  rec.end(root);
}

void print_layers(const Layers& l) {
  metric("analysis.measure_s", l.measure_s, "s");
  metric("analysis.skew_series_s", l.skew_series_s, "s");
  metric("analysis.check_validity_s", l.check_validity_s, "s");
  metric("sim.engine_s", l.engine_s, "s");
  metric("sim.events", static_cast<double>(l.events), "count");
  metric("sim.queue_ops", static_cast<double>(l.queue_ops), "count");
  metric("sim.peak_pending", static_cast<double>(l.peak_pending), "count");
  metric("sim.messages", static_cast<double>(l.messages), "count");
  metric("sim.ns_per_event",
         l.events == 0 ? 0.0 : l.engine_s * 1e9 / static_cast<double>(l.events),
         "ns");
  metric("sim.history_mb", static_cast<double>(l.history_bytes) / (1024.0 * 1024.0),
         "MB");
  metric("sim.nic_peak_queue", static_cast<double>(l.nic_peak_queue), "count");
  metric("core.fastpath_exchanges", static_cast<double>(l.fastpath_exchanges),
         "count");
  metric("core.fastpath_rearms", static_cast<double>(l.fastpath_rearms), "count");
  if (l.fastpath_messages > 0) {
    metric("core.fastpath_ns_per_delivery",
           l.fastpath_engine_s * 1e9 / static_cast<double>(l.fastpath_messages),
           "ns");
  } else {
    not_applicable("core.fastpath_ns_per_delivery", "the fast path never engaged");
  }
  metric("engine.pdes_epochs", static_cast<double>(l.pdes_epochs), "count");
  metric("engine.pdes_stalls", static_cast<double>(l.pdes_stalls), "count");
  metric("engine.pdes_stall_rate",
         l.pdes_epochs == 0
             ? 0.0
             : static_cast<double>(l.pdes_stalls) /
                   (static_cast<double>(l.pdes_epochs) * l.pdes_workers_used),
         "fraction");
  metric("engine.pdes_workers_used", l.pdes_workers_used, "count");
  const double layer_sum = l.setup_s + l.engine_s + l.measure_s;
  std::cout << "# setup + engine + measure = " << layer_sum << " s of run_s "
            << l.run_s << " s (" << 100.0 * layer_sum / l.run_s << "%)\n";
}

/// Times net::build_topology and net::partition_topology standalone on the
/// workload's graph (partitioned into the PDES worker count).
void net_layer(const analysis::RunSpec& spec, SpanRecorder& rec) {
  int span = rec.begin("net.build_topology", -1, 0);
  const net::Topology topo = net::build_topology(spec.topology, spec.params.n);
  rec.end(span);
  metric("net.build_topology_s", rec.duration(span), "s");
  span = rec.begin("net.partition", -1, 0);
  const net::Partition part =
      net::partition_topology(topo, bench::e2e::kThreads, spec.seed);
  rec.end(span);
  metric("net.partition_s", rec.duration(span), "s");
  metric("net.cut_edges", static_cast<double>(part.cut_edges.size()), "count");
}

void traced_single(const Workload& w, SpanRecorder& rec, Tally& tally) {
  const analysis::RunSpec& spec = w.specs.front();
  // A warm-up run, then the untraced reference for the tracing overhead.
  tally.record(w.name + " warm-up", check_run(spec, run_timed(spec).result));
  const Timed plain = run_timed(spec);
  tally.record(w.name + " untraced reference", check_run(spec, plain.result));

  Layers layers;
  std::string problem;
  const int rep = rec.begin("rep", -1, 1);
  const Timed traced = traced_run(spec, rec, rep, 1, layers, problem);
  rec.end(rep);
  problem += check_run(spec, traced.result);
  problem += check_identical(traced.result, plain.result, "the untraced run");
  tally.record(w.name + " traced run", problem);

  net_layer(spec, rec);
  print_layers(layers);
  engine_split(w, {&spec}, {&traced.result}, rec, tally);
  metric("runner.busy_frac", 0.0, "fraction");
  metric("runner.contention", 0.0, "ratio");
  std::cout << "# runner.* and baselines.* measure sweep_compare only\n";
  metric("trace.overhead_frac", traced.run_s / plain.run_s - 1.0, "fraction");
}

const char* algo_key(analysis::Algo algo) {
  switch (algo) {
    case analysis::Algo::kWelchLynch: return "wl";
    case analysis::Algo::kLM: return "lm";
    case analysis::Algo::kST: return "st";
    case analysis::Algo::kMS: return "ms";
    default: return "other";
  }
}

void traced_sweep(const Workload& w, std::uint64_t seed, SpanRecorder& rec,
                  Tally& tally) {
  const std::size_t count = w.specs.size();
  // Untraced reference sweep for the tracing overhead.
  const SweepRun plain = run_sweep(w.specs);

  // Traced sweep: the construct-only pre-pass, then the 4-thread sweep with
  // one span per trial, from its on_result time minus its wall time.
  const int rep = rec.begin("rep", -1, 1);
  const int setup = rec.begin("setup", rep, 1);
  const double setup_s = sweep_setup(w.specs);
  rec.end(setup);
  const int sweep = rec.begin("runner.sweep", rep, 1);
  std::map<std::thread::id, int> lanes;
  std::vector<double> trial_wall(count, 0.0);
  const SweepRun threaded =
      run_sweep(w.specs, [&](std::size_t i, const analysis::RunResult& r) {
        // on_result calls are serialized by the runner.
        const auto lane = lanes.emplace(std::this_thread::get_id(),
                                        static_cast<int>(lanes.size()) + 1);
        const double t = rec.now();
        rec.add("runner.trial", t - r.wall_seconds, t, sweep,
                static_cast<int>(i), lane.first->second);
        trial_wall[i] = r.wall_seconds;
      });
  rec.end(sweep);
  rec.end(rep);
  for (std::size_t i = 0; i < count; ++i) {
    tally.record(w.name + " traced trial " + std::to_string(i),
                 check_run(w.specs[i], threaded.results[i]) +
                     check_identical(threaded.results[i], plain.results[i],
                                     "the untraced sweep"));
  }
  std::cout << "# traced pre-pass setup " << setup_s << " s\n";

  // Serial pass: every trial alone, spans per layer, held bit-identical to
  // the same trial in the 4-thread sweep.
  Layers layers;
  std::vector<double> serial_wall(count, 0.0);
  std::map<std::string, std::vector<double>> per_algo;
  std::vector<analysis::RunResult> serial(count);
  const int pass = rec.begin("serial_pass", -1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const int trial = rec.begin("trial", pass, static_cast<int>(i));
    std::string problem;
    Timed t = traced_run(w.specs[i], rec, trial, static_cast<int>(i), layers,
                         problem);
    rec.end(trial);
    serial[i] = std::move(t.result);
    serial_wall[i] = t.wall_s;
    per_algo[algo_key(w.specs[i].algo)].push_back(serial_wall[i]);
    problem += check_run(w.specs[i], serial[i]);
    problem += check_identical(serial[i], threaded.results[i],
                               "the 4-thread sweep");
    tally.record(w.name + " serial trial " + std::to_string(i), problem);
  }
  rec.end(pass);

  net_layer(w.specs.front(), rec);
  print_layers(layers);

  // The engine split runs on the twelve (algo x fault) cells at the base seed.
  std::vector<const analysis::RunSpec*> cells;
  std::vector<const analysis::RunResult*> reference;
  for (std::size_t i = 0; i < count; ++i) {
    if (w.specs[i].seed != seed) continue;
    cells.push_back(&w.specs[i]);
    reference.push_back(&serial[i]);
  }
  engine_split(w, cells, reference, rec, tally);

  double busy = 0.0;
  for (const double x : trial_wall) busy += x;
  metric("runner.trial_p50_s", quantile(trial_wall, 0.5), "s");
  metric("runner.trial_p90_s", quantile(trial_wall, 0.9), "s");
  metric("runner.busy_frac", busy / (bench::e2e::kThreads * threaded.run_s),
         "fraction");
  metric("runner.contention", mean(trial_wall) / mean(serial_wall), "ratio");
  for (const auto& [algo, walls] : per_algo) {
    metric("baselines.trial_s." + algo, mean(walls), "s");
  }
  metric("trace.overhead_frac", threaded.run_s / plain.run_s - 1.0, "fraction");
}

/// The traced run: per-layer metrics, span self times, and the trace file.
void trace(const Workload& w, std::uint64_t seed, Tally& tally,
           std::ostream* trace_out) {
  SpanRecorder rec;
  if (w.sweep) {
    traced_sweep(w, seed, rec, tally);
  } else {
    traced_single(w, rec, tally);
  }
  rec.print_self_times(std::cout);
  if (trace_out != nullptr) rec.write_chrome(*trace_out);
}

void summarize(const Tally& tally) {
  metric("runs_attempted", static_cast<double>(tally.attempted), "count");
  metric("runs_failed", static_cast<double>(tally.failed), "count");
  metric("fail_frac",
         tally.attempted == 0
             ? 1.0
             : static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
         "fraction");
}

/// One workload: the measured closed loop, or with a trace path the traced
/// run.
int run_workload(const std::string& name, std::uint64_t seed, int reps,
                 double seconds, const std::string& trace_path) {
  const Workload w = bench::e2e::make_workload(name, seed, false);
  std::cout << "# workload " << w.name << " seed " << seed << " trials "
            << w.specs.size() << (trace_path.empty() ? "" : " (traced)") << '\n';
  Tally tally;
  if (trace_path.empty()) {
    measure(w, reps, seconds, tally);
  } else {
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot write " + trace_path);
    trace(w, seed, tally, &out);
    if (!out.flush()) throw std::runtime_error("short write to " + trace_path);
    std::cout << "# trace written to " << trace_path << '\n';
  }
  summarize(tally);
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}

/// Tiny sizes, one rep, every workload through both the measured and the
/// traced path (the trace JSON is rendered to memory).
int smoke(std::uint64_t seed) {
  Tally tally;
  for (const std::string& name : bench::e2e::workload_names()) {
    const Workload w = bench::e2e::make_workload(name, seed, true);
    std::cout << "# smoke " << name << '\n';
    measure(w, 1, 0.0, tally);
    std::ostringstream json;
    trace(w, seed, tally, &json);
    if (json.str().find("\"traceEvents\"") == std::string::npos) {
      tally.record(name + " trace json", "empty trace");
    }
  }
  summarize(tally);
  std::cout << (tally.failed == 0 ? "# smoke: PASS\n" : "# smoke: FAIL\n");
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  try {
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    if (flags.get_bool("smoke", false)) return smoke(seed);
    const std::string workload = flags.get_string("workload", "");
    const auto reps = static_cast<int>(flags.get_int("reps", 3));
    const double seconds = flags.get_double("seconds", 0.0);
    if (workload.empty() || reps < 1 || !(seconds >= 0.0)) {
      std::cerr << "usage: bench_e2e --workload=NAME [--seed=S] [--reps=N] "
                   "[--seconds=T] [--trace=FILE] | --smoke\nworkloads:";
      for (const std::string& name : bench::e2e::workload_names()) {
        std::cerr << ' ' << name;
      }
      std::cerr << '\n';
      return 2;
    }
    return run_workload(workload, seed, reps, seconds,
                        flags.get_string("trace", ""));
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n';
    return 1;
  }
}
