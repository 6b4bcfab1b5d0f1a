#include "analysis/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/parallel_runner.h"
#include "baselines/averaging_rounds.h"
#include "baselines/hssd.h"
#include "baselines/srikanth_toueg.h"
#include "core/fastpath.h"
#include "core/reintegration.h"
#include "core/startup.h"
#include "engine/pdes.h"
#include "net/partition.h"
#include "proc/adversaries.h"
#include "util/rng.h"

namespace wlsync::analysis {

namespace {

std::unique_ptr<sim::DelayModel> build_delay(DelayKind kind,
                                             const core::Params& p,
                                             util::Rng& rng) {
  switch (kind) {
    case DelayKind::kUniform:
      return sim::make_uniform_delay(p.delta, p.eps);
    case DelayKind::kFast:
      return sim::make_extreme_delay(p.delta, p.eps, /*fast=*/true);
    case DelayKind::kSlow:
      return sim::make_extreme_delay(p.delta, p.eps, /*fast=*/false);
    case DelayKind::kPerLink:
      return sim::make_per_link_delay(p.delta, p.eps, rng.fork(11));
    case DelayKind::kSplit:
      return sim::make_split_delay(p.delta, p.eps, p.n / 2);
    case DelayKind::kExpTrunc:
      return sim::make_trunc_exp_delay(p.delta, p.eps);
  }
  throw std::logic_error("unknown DelayKind");
}

std::unique_ptr<clk::DriftModel> build_drift(DriftKind kind,
                                             const core::Params& p,
                                             double period, std::int32_t id,
                                             util::Rng& rng) {
  switch (kind) {
    case DriftKind::kNone:
      return clk::make_constant(1.0);
    case DriftKind::kExtremal:
      return clk::make_extremal(p.rho, period, /*start_fast=*/(id % 2) == 0);
    case DriftKind::kPiecewise:
      return clk::make_piecewise_uniform(p.rho, period,
                                         rng.fork(100 + static_cast<std::uint64_t>(id)));
    case DriftKind::kRandomWalk:
      return clk::make_random_walk(p.rho, period, p.rho / 4.0,
                                   rng.fork(200 + static_cast<std::uint64_t>(id)));
  }
  throw std::logic_error("unknown DriftKind");
}

/// The Welch-Lynch configuration a spec resolves to — shared between
/// build_algorithm and the churn routing (ChurnProcess wraps the same
/// algorithm the static processes run).
core::WelchLynchConfig make_wl_config(const RunSpec& spec) {
  core::WelchLynchConfig config;
  config.params = spec.params;
  config.averaging = spec.averaging;
  config.k_exchanges = spec.k_exchanges;
  config.stagger = spec.stagger;
  config.amortize = spec.amortize;
  config.ingest = spec.ingest;
  return config;
}

proc::ProcessPtr build_algorithm(const RunSpec& spec) {
  switch (spec.algo) {
    case Algo::kWelchLynch:
      return std::make_unique<core::WelchLynchProcess>(make_wl_config(spec));
    case Algo::kLM: {
      const double delta_max =
          spec.lm_delta_max > 0.0
              ? spec.lm_delta_max
              : 4.0 * (spec.params.beta +
                       static_cast<double>(spec.params.n) * spec.params.eps);
      return std::make_unique<baselines::InteractiveConvergenceProcess>(
          spec.params, delta_max, spec.ingest);
    }
    case Algo::kST:
      return std::make_unique<baselines::SrikanthTouegProcess>(spec.params,
                                                               spec.ingest);
    case Algo::kMS: {
      const double tau = spec.ms_tau > 0.0
                             ? spec.ms_tau
                             : 4.0 * (spec.params.beta + 2.0 * spec.params.eps);
      return std::make_unique<baselines::MahaneySchneiderProcess>(
          spec.params, tau, spec.ingest);
    }
    case Algo::kPlainMean:
      return std::make_unique<baselines::PlainMeanProcess>(spec.params,
                                                           spec.ingest);
    case Algo::kHSSD:
      return std::make_unique<baselines::HssdProcess>(spec.params);
  }
  throw std::logic_error("unknown Algo");
}

/// Spec-level fast-path eligibility (core/fastpath.h documents the system-
/// level half, re-verified by RoundFastPath::ineligible_reason).  Returns
/// nullptr when eligible.
const char* fastpath_spec_block(const RunSpec& spec) {
  if (!spec.dynamics.empty()) {
    // The round loop batches whole exchanges against a FIXED neighbor
    // structure; a schedule that rewires the graph (or churns membership)
    // mid-run would silently execute on the stale one.  Refuse by name —
    // never run a dynamic scenario on the static fast path.
    return "dynamic-topology schedule present (net/dynamics.h)";
  }
  if (spec.algo != Algo::kWelchLynch) return "algo is not Welch-Lynch";
  if (spec.ingest != proc::IngestMode::kArena) return "legacy arrival ingestion";
  const bool faults = !spec.fault_mix.empty() ||
                      (spec.fault != FaultKind::kNone && spec.fault_count > 0);
  if (faults) {
    // Fault-isolating region mode (core/fastpath.h): needs an unstaggered
    // run on a sparse exchange graph — on the full mesh every honest
    // process neighbors the adversary, so no fast region exists.  (Whether
    // the adversaries' actual placement leaves a nonempty honest remainder
    // is a system-level question; ineligible_reason re-checks it.)
    if (spec.stagger > 0.0) return "staggered broadcasts with faults present";
    if (spec.topology.kind == net::TopologyKind::kFullMesh) {
      return "adversary neighborhood covers the exchange graph";
    }
  }
  if (spec.nic.has_value()) return "Section 9.3 NIC ingress model engaged";
  if (!spec.retain_history) {
    // Bounded-memory observation truncates clock segments behind the
    // drained frontier; the batched delivery kernel still reads segments
    // at delivery times that can precede that frontier.
    return "bounded-memory observation (retain_history = false)";
  }
  return nullptr;
}

/// Spec-level PDES eligibility; the engine-level half is
/// engine::PdesEngine::ineligible_reason (delay floors, observer, partition
/// shape).  Returns nullptr when eligible.
const char* pdes_spec_block(const RunSpec& spec) {
  if (!spec.dynamics.empty()) {
    // The shard cut is computed once from the start topology; a schedule
    // that rewires the graph would invalidate lane ownership and the
    // lookahead floor mid-epoch.  Refuse by name, like the fast path.
    return "dynamic-topology schedule present (net/dynamics.h)";
  }
  if (spec.observe) {
    // The streaming observer is a single-threaded accumulator wired to the
    // one global event order; lanes advance time independently.
    return "streaming observation (single-threaded API)";
  }
  return nullptr;
}

}  // namespace

Experiment::Experiment(RunSpec spec) : spec_(std::move(spec)) { build(); }
Experiment::~Experiment() = default;

const net::Topology& Experiment::topology() {
  if (!topo_built_) {
    topo_ = net::build_topology(spec_.topology, spec_.params.n);
    topo_built_ = true;
  }
  return topo_;
}

void Experiment::build() {
  const core::Params& p = spec_.params;
  if (spec_.mode != RunMode::kMaintenance) {
    throw std::invalid_argument(
        "Experiment: only RunMode::kMaintenance builds a maintenance "
        "system; dispatch kStartup / kReintegration through analysis::run");
  }
  const bool dynamic = !spec_.dynamics.empty();
  if (dynamic) {
    if (spec_.algo != Algo::kWelchLynch) {
      throw std::invalid_argument(
          "RunSpec: dynamics schedules require Algo::kWelchLynch (the only "
          "algorithm with dynamic neighbor-view resync)");
    }
    // Churn needs a dead window of 2P so stale WL timers expire before the
    // reintegration procedure wakes (same bound run_reintegration enforces).
    spec_.dynamics.validate(p.n, 2.0 * p.P);
  }
  util::Rng rng(spec_.seed);

  sim::SimConfig sim_config;
  sim_config.delta = p.delta;
  sim_config.eps = p.eps;
  sim_config.seed = rng.fork(1)();
  sim_config.nic = spec_.nic;
  sim_config.scheduler = spec_.scheduler;
  sim_config.batch_fanout = spec_.batch_fanout;
  if (spec_.max_events > 0) sim_config.max_events = spec_.max_events;
  if (spec_.topology.kind != net::TopologyKind::kFullMesh ||
      (dynamic && spec_.dynamics.topology_changing())) {
    // Full mesh stays on the implicit fast path (no adjacency storage) —
    // unless the schedule mutates the graph, which needs an explicit
    // adjacency to edit.  Construction runs once, through topology(); the
    // simulator gets its own copy (distance-cache state is not shared
    // with topo_).
    sim_config.topology = topology();
  }
  util::Rng delay_rng = rng.fork(2);
  sim_ = std::make_unique<sim::Simulator>(sim_config,
                                          build_delay(spec_.delay, p, delay_rng));
  sim_->add_trace_sink(&trace_);

  // Faulty roster: either the homogeneous (fault, fault_count) pair or the
  // heterogeneous fault_mix.  Faulty processes occupy the highest ids.
  std::vector<FaultKind> roster;
  if (!spec_.fault_mix.empty()) {
    for (const auto& entry : spec_.fault_mix) {
      for (std::int32_t i = 0; i < entry.count; ++i) roster.push_back(entry.kind);
    }
  } else if (spec_.fault != FaultKind::kNone) {
    roster.assign(static_cast<std::size_t>(spec_.fault_count), spec_.fault);
  }
  const auto fault_count = static_cast<std::int32_t>(roster.size());
  const std::int32_t honest_count = p.n - fault_count;
  if (honest_count < 1) throw std::invalid_argument("no honest processes");

  // Which positions the roster occupies.  kTrailing reproduces the
  // historical highest-ids layout exactly (it must: every pre-placement
  // regression pin depends on it); positional kinds map the roster onto the
  // exchange graph (proc/placement.h), seeded from the spec seed alone so
  // placement is as reproducible as the trial itself.
  std::vector<std::int32_t> fault_ordinal(static_cast<std::size_t>(p.n), -1);
  if (!spec_.placement_ids.empty()) {
    // Explicit positions override the placement policy entirely (the
    // adaptive adversary's re-placement path).
    if (static_cast<std::int32_t>(spec_.placement_ids.size()) != fault_count) {
      throw std::invalid_argument(
          "RunSpec: placement_ids size must equal the resolved fault count");
    }
    for (std::int32_t k = 0; k < fault_count; ++k) {
      const std::int32_t id = spec_.placement_ids[static_cast<std::size_t>(k)];
      if (id < 0 || id >= p.n) {
        throw std::invalid_argument("RunSpec: placement_ids id out of range");
      }
      if (fault_ordinal[static_cast<std::size_t>(id)] >= 0) {
        throw std::invalid_argument("RunSpec: placement_ids has duplicates");
      }
      fault_ordinal[static_cast<std::size_t>(id)] = k;
    }
  } else if (spec_.placement == proc::PlacementKind::kTrailing) {
    for (std::int32_t k = 0; k < fault_count; ++k) {
      fault_ordinal[static_cast<std::size_t>(honest_count + k)] = k;
    }
  } else {
    const std::vector<std::int32_t> placed =
        proc::place_faults(topology(), spec_.placement, fault_count, spec_.seed);
    for (std::int32_t k = 0; k < fault_count; ++k) {
      fault_ordinal[static_cast<std::size_t>(placed[static_cast<std::size_t>(k)])] = k;
    }
  }
  // Positional adversary mode engages for explicit ids exactly as for the
  // positional placement kinds (neighbor-scoped two-faced attacks).
  const bool positional = !spec_.placement_ids.empty() ||
                          spec_.placement != proc::PlacementKind::kTrailing;

  // Churn roster (net/dynamics.h leave/rejoin events): churned processes
  // must be honest algorithm instances — a Byzantine process has no state
  // worth crashing — and are routed through a ChurnProcess below.
  const auto churn = net::churn_intervals(spec_.dynamics);
  for (const auto& [pid, windows] : churn) {
    (void)windows;
    if (fault_ordinal[static_cast<std::size_t>(pid)] >= 0) {
      throw std::invalid_argument(
          "RunSpec: dynamics churn ids must be disjoint from the Byzantine "
          "roster");
    }
  }

  // Nonfaulty STARTs spread over [0, S] along the real-time axis (A4);
  // the extremes are pinned so the configured spread is exact.
  const double spread =
      spec_.initial_spread < 0.0 ? 0.9 * p.beta : spec_.initial_spread;
  util::Rng start_rng = rng.fork(3);
  std::vector<double> starts(static_cast<std::size_t>(honest_count));
  for (std::size_t i = 0; i < starts.size(); ++i) {
    starts[i] = start_rng.uniform(0.0, spread);
  }
  if (!starts.empty()) starts.front() = 0.0;
  if (starts.size() > 1) starts[1] = spread;

  util::Rng clock_rng = rng.fork(4);
  // Self-stabilization workload (Khanchandani–Lenzen overlay): honest
  // processes start from ARBITRARY logical-clock state — CORR offset
  // uniform in [0, spread) on top of the aligned value.  The fork is taken
  // only when engaged, so every spread = 0 run draws exactly the
  // historical stream (bit-identity preserved).
  std::optional<util::Rng> arb_rng;
  if (spec_.initial_clock_spread > 0.0) arb_rng.emplace(rng.fork(5));
  tmin0_ = 1e300;
  tmax0_ = -1e300;
  honest_.clear();
  std::int32_t honest_ordinal = 0;
  for (std::int32_t id = 0; id < p.n; ++id) {
    const std::int32_t ordinal = fault_ordinal[static_cast<std::size_t>(id)];
    auto clock = std::make_unique<clk::PhysicalClock>(
        build_drift(spec_.drift, p, spec_.drift_period, id, clock_rng),
        /*offset=*/clock_rng.uniform(0.0, 100.0), p.rho);

    if (ordinal < 0) {
      const double s = starts[static_cast<std::size_t>(honest_ordinal++)];
      // Choose CORR so the initial logical clock reads T0 exactly at the
      // START time: c0_p(T0) = s, i.e. the A4 wake-up condition.
      double corr0 = p.T0 - clock->now(s);
      if (arb_rng) {
        corr0 += arb_rng->uniform(0.0, spec_.initial_clock_spread);
      }
      const auto windows = churn.find(id);
      if (windows != churn.end()) {
        // Churned: an honest algorithm instance that crashes and rejoins
        // per the schedule.  Registered faulty (it is one of the f faults
        // while down, and the real-time routing needs AdversaryContext)
        // and excluded from honest_ — measurements quantify the processes
        // that never left.  Start draws are consumed identically either
        // way, so the un-churned remainder's physics only change through
        // the schedule itself.
        std::vector<core::ChurnProcess::Downtime> downs;
        downs.reserve(windows->second.size());
        for (const net::ChurnInterval& w : windows->second) {
          downs.push_back({w.leave, w.rejoin});
        }
        sim_->add_process(std::make_unique<core::ChurnProcess>(
                              make_wl_config(spec_), std::move(downs)),
                          std::move(clock), corr0, /*faulty=*/true,
                          /*start=*/s);
        continue;
      }
      honest_.push_back(id);
      tmin0_ = std::min(tmin0_, s);
      tmax0_ = std::max(tmax0_, s);
      sim_->add_process(build_algorithm(spec_), std::move(clock), corr0,
                        /*faulty=*/false, /*start=*/s);
      continue;
    }

    // Byzantine processes.
    switch (roster[static_cast<std::size_t>(ordinal)]) {
      case FaultKind::kSilent:
        sim_->add_process(std::make_unique<proc::SilentAdversary>(),
                          std::move(clock), 0.0, true, /*start=*/-1.0);
        break;
      case FaultKind::kSpam: {
        proc::SpamAdversary::Config config;
        config.period = p.P / 10.0;
        config.burst = 3;
        config.tag = core::kTimeTag;
        config.seed = rng.fork(500 + static_cast<std::uint64_t>(id))();
        sim_->add_process(std::make_unique<proc::SpamAdversary>(config),
                          std::move(clock), 0.0, true, /*start=*/0.0);
        break;
      }
      case FaultKind::kTwoFaced: {
        proc::TwoFacedAdversary::Config config;
        config.pivot = honest_count / 2;
        config.honest_end = honest_count;
        config.tag = core::kTimeTag;
        config.P = p.P;
        config.delta = p.delta;
        config.beta = p.beta;
        // Strike round 0 too: the A4 schedule (tmin0 = 0, label T0) is known
        // to an omniscient adversary.
        config.first_tmin = 0.0;
        config.first_label = p.T0;
        // Co-conspirators bracket different in-span positions so reduce()
        // cannot clip them all from one end.
        config.early_frac = 0.08 + 0.10 * static_cast<double>(ordinal);
        config.late_frac = 0.92 - 0.10 * static_cast<double>(ordinal);
        if (positional) {
          // Positional mode: lie only to the honest closed neighborhood,
          // one forged face per neighbor (proc/adversaries.h).  The id
          // ranges above assume the trailing layout and are ignored once
          // the target lists are set.
          std::vector<std::int32_t> victims;
          for (std::int32_t q : topology().neighbors(id)) {
            if (q != id && fault_ordinal[static_cast<std::size_t>(q)] < 0) {
              victims.push_back(q);
            }
          }
          if (victims.empty()) {
            // Every neighbor is a fellow fault: there is no one to lie to,
            // and empty target lists would silently re-enable the
            // full-mesh pivot attack.  A positional adversary with no
            // honest neighborhood is behaviourally silent.
            sim_->add_process(std::make_unique<proc::SilentAdversary>(),
                              std::move(clock), 0.0, true, /*start=*/-1.0);
            break;
          }
          const std::size_t half = victims.size() / 2;
          config.early_targets.assign(victims.begin(),
                                      victims.begin() + static_cast<std::ptrdiff_t>(half));
          config.late_targets.assign(victims.begin() + static_cast<std::ptrdiff_t>(half),
                                     victims.end());
          config.per_target_spread = true;
        }
        sim_->add_process(std::make_unique<proc::TwoFacedAdversary>(config),
                          std::move(clock), 0.0, true, /*start=*/0.0);
        break;
      }
      case FaultKind::kLiar: {
        // An honest algorithm instance whose START (and hence every round)
        // runs liar_offset real seconds late: its messages arrive at
        // plausible-looking but wrong times every round, the classic
        // "consistently wrong clock" failure.
        const double s = spec_.liar_offset;
        const double corr0 = p.T0 - clock->now(s);
        sim_->add_process(build_algorithm(spec_), std::move(clock), corr0,
                          /*faulty=*/true, /*start=*/s);
        break;
      }
      case FaultKind::kNone:
        break;
    }
  }
  if (dynamic) {
    // Install the schedule (tier-2 scenario events) and wake every churned
    // process at its rejoin instants — the second START routes it into the
    // Section 9.1 reintegration procedure (ChurnProcess).
    sim_->set_dynamics(spec_.dynamics);
    for (const auto& [pid, windows] : churn) {
      for (const net::ChurnInterval& w : windows) {
        if (w.rejoin < net::kNeverRejoins) sim_->schedule_start(pid, w.rejoin);
      }
    }
  }
  // Pre-size the CORR logs for the configured run length (one adjustment
  // per exchange, plus slack for the partial round the horizon affords):
  // steady-state recording then never reallocates, so the fast path's
  // round loop stays allocation-free (bench_micro gates on this).
  sim_->reserve_history(static_cast<std::size_t>(spec_.rounds + 2) *
                        static_cast<std::size_t>(spec_.k_exchanges));
}

double Experiment::horizon() const {
  const core::Params& p = spec_.params;
  const core::Derived d = core::derive(p);
  return tmax0_ +
         static_cast<double>(spec_.rounds + 1) * p.P * (1.0 + 2.0 * p.rho) +
         2.0 * d.window + 10.0 * p.delta;
}

ObserveSpec Experiment::make_observe_spec() {
  const core::Params& p = spec_.params;
  const core::Derived d = core::derive(p);
  ObserveSpec ospec;
  ospec.ids = honest_;
  ospec.params = p;
  ospec.tmin0 = tmin0_;
  ospec.tmax0 = tmax0_;
  ospec.horizon = horizon();
  // The steady-state anchor the post-hoc path lands on when the run
  // completes its configured rounds: the horizon affords one extra full
  // round past spec.rounds, so last_complete_round = rounds + 1 and the
  // post-hoc midpoint is (rounds + 1) / 2.
  ospec.anchor_round = (spec_.rounds + 1) / 2;
  ospec.max_rounds = spec_.rounds;
  ospec.skew_dt = spec_.observe_dt > 0.0 ? spec_.observe_dt : p.P / 25.0;
  ospec.validity_dt = p.P / 10.0;
  ospec.validity_t0 = tmax0_ + d.window;
  ospec.gradient = spec_.measure_gradient;
  if (spec_.measure_gradient) ospec.topology = &topology();
  ospec.truncate = !spec_.retain_history;
  ospec.skew_hist_max = 4.0 * d.gamma;
  return ospec;
}

RunResult Experiment::run() {
  const core::Params& p = spec_.params;
  const core::Derived d = core::derive(p);
  if (!spec_.retain_history && !spec_.observe) {
    throw std::invalid_argument(
        "RunSpec: retain_history = false requires observe = true (with "
        "neither the streaming accumulators nor the post-hoc history, "
        "nothing could measure the run)");
  }

  RunResult result;
  result.honest = honest_;
  result.gamma_bound = d.gamma;
  result.adj_bound = d.adj_bound;
  result.tmin0 = tmin0_;
  result.tmax0 = tmax0_;

  const double horizon = this->horizon();

  // Streaming mode: attach the in-run observer before any event fires.
  // The guard detaches on every exit path — the observer dies with this
  // frame, and a simulator that outlives it (tests drive simulator()
  // directly) must never hold the stale pointer.
  std::unique_ptr<StreamingObserver> observer;
  struct ObserverGuard {
    sim::Simulator* sim = nullptr;
    ~ObserverGuard() {
      if (sim != nullptr) sim->set_observer(nullptr);
    }
  } observer_guard;
  if (spec_.observe) {
    observer = std::make_unique<StreamingObserver>(*sim_, make_observe_spec());
    sim_->set_observer(observer.get());
    observer_guard.sim = sim_.get();
  }

  const auto engine_start = std::chrono::steady_clock::now();

  // Round-synchronous fast path: advance fault-free Welch-Lynch exchanges
  // past the event queue, then let run_until finish whatever the fast path
  // handed back (everything, when it never engaged).  Bit-identical either
  // way — see core/fastpath.h for the replay protocol.
  if (spec_.engine == EngineMode::kFastpath ||
      spec_.engine == EngineMode::kAuto) {
    const char* blocked = fastpath_spec_block(spec_);
    if (blocked == nullptr) {
      blocked = core::RoundFastPath::ineligible_reason(*sim_);
    }
    if (blocked == nullptr) {
      core::RoundFastPath fastpath(*sim_);
      fastpath.run(horizon);
      result.fastpath_engaged = fastpath.stats().engaged;
      result.fastpath_exchanges = fastpath.stats().exchanges;
      result.fastpath_rearms = fastpath.stats().rearms;
      result.fastpath_fast_count = fastpath.stats().fast_count;
      result.fastpath_region_events = fastpath.stats().region_events;
      if (!fastpath.stats().engaged) {
        // Ran but never passed entry validation — the handoff string says
        // why (e.g. "unexpected initial queue").
        result.fastpath_refusal = fastpath.stats().handoff;
      }
    } else if (spec_.engine == EngineMode::kFastpath) {
      throw std::invalid_argument(
          std::string("RunSpec: engine = kFastpath but the spec is "
                      "ineligible: ") +
          blocked);
    } else {
      result.fastpath_refusal = blocked;
    }
  }

  // Conservative PDES (engine/pdes.h): shard the topology, run the epoch
  // loop with one worker per shard, then let run_until below finish the
  // (empty past the horizon) remainder serially.  kAuto reaches here when
  // the fast path didn't engage; pdes_workers >= 2 pins the shard count,
  // <= 0 (the default) asks the auto-tuner, and exactly 1 opts kAuto out
  // (single-shard PDES is pure overhead).  Inside a ParallelRunner worker
  // the auto-tuner declines outright: the sweep already claims the cores,
  // and nested shards would oversubscribe them (the same guard measure.cpp
  // applies).  kPdes asserts eligibility, including auto-tune declining.
  // Per-lane RoundTraces catch each shard's annotations and fold back into
  // trace_ so every measurement below reads the same trace a serial run
  // would have built.
  const bool pdes_auto_tune = spec_.pdes_workers <= 0;
  if (spec_.engine == EngineMode::kPdes ||
      (spec_.engine == EngineMode::kAuto && !result.fastpath_engaged &&
       (spec_.pdes_workers >= 2 || pdes_auto_tune))) {
    const char* blocked = pdes_spec_block(spec_);
    std::string blocked_buf;
    std::int32_t workers = spec_.pdes_workers;
    if (blocked == nullptr && pdes_auto_tune &&
        ParallelRunner::in_worker()) {
      blocked = "auto-tune declined: inside a ParallelRunner worker";
    } else if (blocked == nullptr && pdes_auto_tune) {
      const engine::PdesAutoChoice choice =
          engine::choose_pdes_workers(topology(), spec_.seed);
      if (choice.workers >= 2) {
        workers = choice.workers;
      } else {
        blocked_buf = "auto-tune declined: " + choice.reason;
        blocked = blocked_buf.c_str();
      }
    }
    net::Partition part;
    if (blocked == nullptr) {
      part = net::partition_topology(topology(), workers, spec_.seed);
      if (workers >= 2 && part.k < 2) {
        // A collapsed partition silently serialized (and under-reported)
        // before: surface it like any other refusal.
        blocked = "partition collapsed to 1 shard";
      } else {
        blocked = engine::PdesEngine::ineligible_reason(*sim_, part);
      }
    }
    if (blocked == nullptr) {
      std::vector<RoundTrace> lane_traces(static_cast<std::size_t>(part.k));
      std::vector<sim::TraceSink*> lane_sinks;
      lane_sinks.reserve(lane_traces.size());
      for (RoundTrace& lane_trace : lane_traces) {
        lane_sinks.push_back(&lane_trace);
      }
      engine::PdesOptions options;
      options.adaptive = spec_.pdes_adaptive;
      engine::PdesEngine pdes(*sim_, part, lane_sinks, options);
      pdes.run_until(horizon);
      trace_.absorb_all(lane_traces);
      result.pdes_epochs = pdes.stats().epochs;
      result.pdes_stalls = pdes.stats().stalls;
      result.pdes_workers_used = pdes.stats().shards;
    } else if (spec_.engine == EngineMode::kPdes) {
      throw std::invalid_argument(
          std::string("RunSpec: engine = kPdes but the spec is "
                      "ineligible: ") +
          blocked);
    } else {
      result.pdes_refusal = blocked;
    }
  }

  sim_->run_until(horizon);
  result.engine_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    engine_start)
          .count();
  result.t_end = sim_->current_time();
  result.messages = sim_->messages_sent();
  result.dynamics_applied = sim_->dynamics_applied();
  result.nic_dropped = sim_->nic_dropped();
  result.nic = summarize_nic(*sim_);
  for (std::int32_t id = 0; id < sim_->process_count(); ++id) {
    if (const auto* wl =
            dynamic_cast<const core::WelchLynchProcess*>(&sim_->process(id))) {
      result.starved_updates += wl->starved_updates();
    }
  }

  StreamingSummary streamed;
  if (observer) streamed = observer->finalize(result.t_end);

  // Per-round begin spreads and skews at round begins.  Spreads come from
  // the (always retained) round trace; the skew at each round's last begin
  // comes from the streaming round-boundary accumulator in observe mode
  // and from the post-hoc scan otherwise — identical doubles either way.
  const std::int32_t last_round = trace_.last_complete_round(honest_);
  result.completed_rounds = last_round + 1;
  for (std::int32_t r = 0; r <= last_round; ++r) {
    const auto times = trace_.begin_times(r, honest_);
    if (times.empty()) break;
    result.begin_spread.push_back(trace_.begin_spread(r, honest_));
    if (observer) {
      const auto idx = static_cast<std::size_t>(r);
      if (idx >= streamed.skew_at_round.size() ||
          std::isnan(streamed.skew_at_round[idx])) {
        // The observer and the RoundTrace consume the same kRoundBegin
        // annotations; a round the trace completed but the observer never
        // saw means the engines desynchronized — fail loudly rather than
        // fabricate a measurement.
        throw std::logic_error(
            "Experiment: streaming observer missed a round the trace "
            "completed (round " + std::to_string(r) + ")");
      }
      result.skew_at_round.push_back(streamed.skew_at_round[idx]);
    } else {
      const double at = *std::max_element(times.begin(), times.end());
      result.skew_at_round.push_back(skew_at(*sim_, honest_, at));
    }
  }
  result.max_abs_adj = trace_.max_abs_adjustment(honest_, 0);

  // Stabilization time (the Khanchandani–Lenzen workload's headline
  // number, computed for every maintenance run): the first round whose
  // ENTIRE skew_at_round suffix stays within the threshold — a suffix
  // condition, not a first-crossing, so a transient dip below the bound
  // does not count as stabilized.  The clock starts at tmax0 (the last
  // honest START), matching the B-series convention.
  {
    const double thresh = spec_.stabilize_threshold > 0.0
                              ? spec_.stabilize_threshold
                              : 2.0 * d.gamma;
    std::int32_t stab = -1;
    for (auto r = static_cast<std::int32_t>(result.skew_at_round.size()) - 1;
         r >= 0; --r) {
      if (result.skew_at_round[static_cast<std::size_t>(r)] <= thresh) {
        stab = r;
      } else {
        break;
      }
    }
    if (stab >= 0) {
      result.stabilized_round = stab;
      const auto times = trace_.begin_times(stab, honest_);
      if (!times.empty()) {
        result.stabilization_time =
            *std::max_element(times.begin(), times.end()) - tmax0_;
      }
    }
  }

  if (observer) {
    // Streaming measurement: the observer drained the same sample grids
    // the post-hoc calls below walk, event-driven during the run.
    if (spec_.measure_gradient) {
      result.gradient = streamed.gradient;
      result.gamma_measured = result.gradient.far_skew();
    } else {
      result.gamma_measured = streamed.skew.max_skew;
    }
    result.final_skew = streamed.final_skew;
    result.validity = streamed.validity;
    result.observe = streamed.stats;
  } else {
    // Steady-state agreement: sample from the midpoint round onward.
    double t_steady = tmax0_ + d.window;
    if (last_round >= 0) {
      const auto mid_times = trace_.begin_times(last_round / 2, honest_);
      if (!mid_times.empty()) {
        t_steady = *std::max_element(mid_times.begin(), mid_times.end());
      }
    }
    if (spec_.measure_gradient) {
      // One grid walk serves both reductions: the gradient buckets every
      // honest pair over the same (t_steady, t_end, P/25) window
      // skew_series would sample, and its far frontier IS the global skew
      // — the max pairwise |L_i - L_j| is attained by the (max, min)
      // pair, so the values coincide exactly.  The summary drops the
      // per-sample matrix so RunResults stay cheap to copy across
      // ParallelRunner sweeps.
      result.gradient = summarize_gradient(gradient_series(
          *sim_, honest_, topology(), t_steady, result.t_end, p.P / 25.0));
      result.gamma_measured = result.gradient.far_skew();
    } else {
      result.gamma_measured =
          skew_series(*sim_, honest_, t_steady, result.t_end, p.P / 25.0)
              .max_skew;
    }
    result.final_skew = skew_at(*sim_, honest_, result.t_end);
    // Validity envelope (Theorem 19) over the settled portion of the run.
    result.validity = check_validity(*sim_, honest_, p, tmin0_, tmax0_,
                                     tmax0_ + d.window, result.t_end,
                                     p.P / 10.0);
  }
  result.diverged = !(result.gamma_measured <
                      std::max(100.0 * d.gamma, 1.0)) ||
                    result.completed_rounds < spec_.rounds / 2;
  return result;
}

// ------------------------------------------------------------- start-up ---

namespace {

StartupResult run_startup_impl(const StartupSpec& spec) {
  const core::Params& p = spec.params;
  util::Rng rng(spec.seed);

  sim::SimConfig sim_config;
  sim_config.delta = p.delta;
  sim_config.eps = p.eps;
  sim_config.seed = rng.fork(1)();
  util::Rng delay_rng = rng.fork(2);
  sim::Simulator sim(sim_config, build_delay(spec.delay, p, delay_rng));
  RoundTrace trace;
  sim.add_trace_sink(&trace);

  const std::int32_t fault_count =
      spec.fault == FaultKind::kNone ? 0 : spec.fault_count;
  const std::int32_t honest_count = p.n - fault_count;
  std::vector<std::int32_t> honest;

  util::Rng clock_rng = rng.fork(4);
  for (std::int32_t id = 0; id < p.n; ++id) {
    const bool faulty = id >= honest_count;
    auto clock = std::make_unique<clk::PhysicalClock>(
        build_drift(spec.drift, p, 2.0, id, clock_rng),
        clock_rng.uniform(0.0, 100.0), p.rho);
    if (!faulty) {
      core::StartupConfig config;
      config.params = p;
      config.handoff_rounds = spec.handoff ? spec.rounds : 0;
      // Clocks are NOT initially synchronized: CORR is arbitrary.
      const double corr0 =
          clock_rng.uniform(0.0, spec.initial_clock_spread) - clock->now(0.0);
      honest.push_back(id);
      sim.add_process(std::make_unique<core::StartupProcess>(config),
                      std::move(clock), corr0, false,
                      /*start=*/clock_rng.uniform(0.0, p.delta));
    } else if (spec.fault == FaultKind::kSilent) {
      sim.add_process(std::make_unique<proc::SilentAdversary>(),
                      std::move(clock), 0.0, true, -1.0);
    } else {
      proc::SpamAdversary::Config config;
      config.period = p.delta;
      config.burst = 2;
      config.tag = core::kTimeTag;
      config.seed = rng.fork(600 + static_cast<std::uint64_t>(id))();
      sim.add_process(std::make_unique<proc::SpamAdversary>(config),
                      std::move(clock), 0.0, true, 0.0);
    }
  }

  // Each start-up round takes at most ~2 delta + a few eps plus the READY
  // exchange; budget generously.
  const double round_budget = 4.0 * (2.0 * p.delta + 8.0 * p.eps) + 6.0 * p.delta;
  const double horizon =
      static_cast<double>(spec.rounds + 2) * round_budget +
      (spec.handoff ? 3.0 * p.P : 0.0) + 1.0;

  // Streaming mode: only the round-boundary stream is consumed (it feeds
  // b_series below).  The anchor round sits past anything the run can
  // complete, so the skew grid collapses to finalize's endpoint sample,
  // and the validity window opens past the horizon so it never samples.
  std::unique_ptr<StreamingObserver> observer;
  struct ObserverGuard {
    sim::Simulator* sim = nullptr;
    ~ObserverGuard() {
      if (sim != nullptr) sim->set_observer(nullptr);
    }
  } observer_guard;
  if (spec.observe) {
    ObserveSpec ospec;
    ospec.ids = honest;
    ospec.params = p;
    ospec.horizon = horizon;
    ospec.anchor_round = std::numeric_limits<std::int32_t>::max();
    ospec.max_rounds = spec.rounds;
    ospec.skew_dt = round_budget;
    ospec.validity_dt = round_budget;
    ospec.validity_t0 = horizon + 1.0;
    ospec.skew_hist_max = 1.0;
    observer = std::make_unique<StreamingObserver>(sim, std::move(ospec));
    sim.set_observer(observer.get());
    observer_guard.sim = &sim;
  }

  sim.run_until(horizon);

  StreamingSummary streamed;
  if (observer) streamed = observer->finalize(sim.current_time());

  StartupResult result;
  if (observer) result.observe = streamed.stats;
  result.round_slack = core::startup_round_slack(p.rho, p.delta, p.eps);
  result.limit = core::startup_limit(p.rho, p.delta, p.eps);

  // Per-round closing skews B(r), evaluated at each round's last honest
  // begin — from the streaming round-boundary accumulator in observe mode,
  // from the post-hoc scan otherwise.  Identical doubles either way (the
  // observer's eval_round_skew folds the same walkers in the same id order
  // at the same instant; pinned by tests/startup_test.cpp).
  const std::int32_t last = trace.last_complete_round(honest);
  for (std::int32_t r = 0; r <= last && r < spec.rounds; ++r) {
    const auto times = trace.begin_times(r, honest);
    if (times.empty()) break;
    if (observer) {
      const auto idx = static_cast<std::size_t>(r);
      if (idx >= streamed.skew_at_round.size() ||
          std::isnan(streamed.skew_at_round[idx])) {
        // Both consumers read the same kRoundBegin annotations; a round the
        // trace completed but the observer never saw means they
        // desynchronized — fail loudly rather than fabricate a measurement.
        throw std::logic_error(
            "run_startup: streaming observer missed a round the trace "
            "completed (round " + std::to_string(r) + ")");
      }
      result.b_series.push_back(streamed.skew_at_round[idx]);
    } else {
      const double at = *std::max_element(times.begin(), times.end());
      result.b_series.push_back(skew_at(sim, honest, at));
    }
  }
  result.final_b = result.b_series.empty() ? 1e300 : result.b_series.back();

  if (spec.handoff) {
    bool all = true;
    for (std::int32_t id : honest) {
      auto& process = dynamic_cast<core::StartupProcess&>(sim.process(id));
      all = all && process.handed_off();
    }
    result.handoff_done = all;
    if (all) {
      result.post_handoff_skew =
          skew_series(sim, honest, sim.current_time() - p.P, sim.current_time(),
                      p.P / 25.0)
              .max_skew;
    }
  }
  return result;
}

}  // namespace

// -------------------------------------------------------- reintegration ---

namespace {

/// Composite for the crash/repair lifecycle: honest Welch-Lynch until
/// crash_at, dead until woken by a second START, then the Section 9.1
/// reintegration procedure.
class CrashRejoinProcess final : public proc::Process {
 public:
  CrashRejoinProcess(core::WelchLynchConfig config, double crash_at)
      : crash_at_(crash_at), wl_(config), rejoin_(config) {}

  void on_start(proc::Context& ctx) override {
    const double now = proc::AdversaryContext::from(ctx).real_time();
    if (now < crash_at_) {
      wl_.on_start(ctx);
    } else if (!woken_) {
      woken_ = true;
      rejoin_.on_start(ctx);
    }
  }
  void on_timer(proc::Context& ctx, std::int32_t tag) override {
    if (route(ctx) == Route::kWl) {
      wl_.on_timer(ctx, tag);
    } else if (route(ctx) == Route::kRejoin) {
      rejoin_.on_timer(ctx, tag);
    }
  }
  void on_message(proc::Context& ctx, const sim::Message& m) override {
    if (route(ctx) == Route::kWl) {
      wl_.on_message(ctx, m);
    } else if (route(ctx) == Route::kRejoin) {
      rejoin_.on_message(ctx, m);
    }
  }

  [[nodiscard]] const core::ReintegrationProcess& rejoin() const noexcept {
    return rejoin_;
  }

 private:
  enum class Route : std::uint8_t { kWl, kDead, kRejoin };
  [[nodiscard]] Route route(proc::Context& ctx) const {
    const double now = proc::AdversaryContext::from(ctx).real_time();
    if (now < crash_at_) return Route::kWl;
    return woken_ ? Route::kRejoin : Route::kDead;
  }

  double crash_at_;
  bool woken_ = false;
  core::WelchLynchProcess wl_;
  core::ReintegrationProcess rejoin_;
};

ReintegrationResult run_reintegration_impl(const ReintegrationSpec& spec) {
  const core::Params& p = spec.params;
  const core::Derived d = core::derive(p);
  if (spec.wake_at < spec.crash_at + 2.0 * p.P) {
    throw std::invalid_argument(
        "run_reintegration: need wake_at >= crash_at + 2P so stale timers die");
  }
  util::Rng rng(spec.seed);

  sim::SimConfig sim_config;
  sim_config.delta = p.delta;
  sim_config.eps = p.eps;
  sim_config.seed = rng.fork(1)();
  util::Rng delay_rng = rng.fork(2);
  sim::Simulator sim(sim_config, build_delay(spec.delay, p, delay_rng));
  RoundTrace trace;
  sim.add_trace_sink(&trace);

  core::WelchLynchConfig wl_config;
  wl_config.params = p;

  // Process 0 is the crash/rejoin victim (registered faulty: from the
  // model's viewpoint it is one of the f faults until it rejoins).
  std::vector<std::int32_t> survivors;
  util::Rng clock_rng = rng.fork(4);
  util::Rng start_rng = rng.fork(3);
  double tmax0 = 0.0;
  for (std::int32_t id = 0; id < p.n; ++id) {
    auto clock = std::make_unique<clk::PhysicalClock>(
        build_drift(spec.drift, p, 2.0, id, clock_rng),
        clock_rng.uniform(0.0, 100.0), p.rho);
    const double s = id == 0 ? 0.0 : start_rng.uniform(0.0, 0.9 * p.beta);
    tmax0 = std::max(tmax0, s);
    const double corr0 = p.T0 - clock->now(s);
    if (id == 0) {
      sim.add_process(
          std::make_unique<CrashRejoinProcess>(wl_config, spec.crash_at),
          std::move(clock), corr0, /*faulty=*/true, /*start=*/s);
    } else {
      survivors.push_back(id);
      sim.add_process(std::make_unique<core::WelchLynchProcess>(wl_config),
                      std::move(clock), corr0, false, s);
    }
  }
  sim.schedule_start(0, spec.wake_at);

  const double horizon = tmax0 +
                         static_cast<double>(spec.rounds + 1) * p.P *
                             (1.0 + 2.0 * p.rho) +
                         2.0 * d.window + 1.0;

  // Streaming mode: the measurement window ([join + 2P, t_end]) is only
  // known once the victim rejoins, so step the run in P-sized chunks until
  // the join annotation lands in the trace, then attach an observer whose
  // skew window opens unconditionally at that instant (ObserveSpec::
  // skew_t0) and let the rest of the run stream through it.  Chunked
  // run_until is the same event sequence as one call, and every observer
  // query targets t >= join + 2P > attach time, so the mid-run attach is
  // exact (pinned bitwise by tests/reintegration_test.cpp).
  std::unique_ptr<StreamingObserver> observer;
  struct ObserverGuard {
    sim::Simulator* sim = nullptr;
    ~ObserverGuard() {
      if (sim != nullptr) sim->set_observer(nullptr);
    }
  } observer_guard;
  if (spec.observe) {
    double join_time = -1.0;
    double next = std::min(spec.wake_at, horizon);
    for (;;) {
      sim.run_until(next);
      for (const RoundEvent& join : trace.joins()) {
        if (join.pid == 0) {
          join_time = join.real_time;
          break;
        }
      }
      if (join_time >= 0.0 || next >= horizon) break;
      next = std::min(next + p.P, horizon);
    }
    if (join_time >= 0.0) {
      std::vector<std::int32_t> everyone = survivors;
      everyone.push_back(0);
      std::sort(everyone.begin(), everyone.end());
      ObserveSpec ospec;
      ospec.ids = std::move(everyone);
      ospec.params = p;
      ospec.horizon = horizon;
      ospec.skew_t0 = join_time + 2.0 * p.P;
      ospec.max_rounds = spec.rounds;
      ospec.skew_dt = p.P / 25.0;
      ospec.validity_dt = p.P / 10.0;
      ospec.validity_t0 = horizon + 1.0;  // never samples
      ospec.skew_hist_max = 4.0 * d.gamma;
      observer = std::make_unique<StreamingObserver>(sim, std::move(ospec));
      sim.set_observer(observer.get());
      observer_guard.sim = &sim;
    }
  }

  sim.run_until(horizon);

  ReintegrationResult result;
  result.beta = p.beta;
  result.gamma_bound = d.gamma;

  for (const RoundEvent& join : trace.joins()) {
    if (join.pid == 0) {
      result.rejoined = true;
      result.join_time = join.real_time;
      result.join_round = join.round;
      break;
    }
  }
  if (!result.rejoined) return result;

  // The joiner's first full round: every process (victim included) should
  // begin within beta of each other (the Section 9.1 claim).
  std::vector<std::int32_t> everyone = survivors;
  everyone.push_back(0);
  std::sort(everyone.begin(), everyone.end());
  result.spread_with_joiner =
      trace.begin_spread(result.join_round, everyone);

  // Steady skew including the joiner, from join + 2P to the end of the
  // run.  The streaming accumulators produce the identical doubles: the
  // drained grid is the same [t_check, t_end) walk plus the same endpoint
  // sample, folded over the same ids, and when the window degenerates to
  // the endpoint, final_skew IS skew_at(t_end).
  const double t_check = result.join_time + 2.0 * p.P;
  if (observer) {
    const StreamingSummary streamed = observer->finalize(sim.current_time());
    result.observe = streamed.stats;
    result.skew_after = t_check < sim.current_time() ? streamed.skew.max_skew
                                                     : streamed.final_skew;
  } else if (t_check < sim.current_time()) {
    result.skew_after = skew_series(sim, everyone, t_check, sim.current_time(),
                                    p.P / 25.0)
                            .max_skew;
  } else {
    result.skew_after = skew_at(sim, everyone, sim.current_time());
  }
  return result;
}

}  // namespace

// ---------------------------------------------------- unified entry point ---

RunResult run(const RunSpec& spec) {
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result;
  switch (spec.mode) {
    case RunMode::kMaintenance: {
      Experiment experiment(spec);
      result = experiment.run();
      break;
    }
    case RunMode::kStartup: {
      // The flat RunSpec fields map verbatim onto the historical
      // StartupSpec — including initial_clock_spread, whose RunSpec
      // default (0, aligned) differs from StartupSpec's (1.0); the
      // run_startup wrapper below copies the caller's value through
      // unchanged, so the round trip is bit-identical.
      StartupSpec s;
      s.params = spec.params;
      s.rounds = spec.rounds;
      s.handoff = spec.startup_handoff;
      s.initial_clock_spread = spec.initial_clock_spread;
      s.fault = spec.fault;
      s.fault_count = spec.fault_count;
      s.delay = spec.delay;
      s.drift = spec.drift;
      s.seed = spec.seed;
      s.observe = spec.observe;
      result.startup = run_startup_impl(s);
      break;
    }
    case RunMode::kReintegration: {
      ReintegrationSpec s;
      s.params = spec.params;
      s.crash_at = spec.crash_at;
      s.wake_at = spec.wake_at;
      s.rounds = spec.rounds;
      s.delay = spec.delay;
      s.drift = spec.drift;
      s.seed = spec.seed;
      s.observe = spec.observe;
      result.reintegration = run_reintegration_impl(s);
      break;
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

RunResult run_experiment(const RunSpec& spec) { return run(spec); }

StartupResult run_startup(const StartupSpec& spec) {
  RunSpec rs;
  rs.mode = RunMode::kStartup;
  rs.params = spec.params;
  rs.rounds = spec.rounds;
  rs.startup_handoff = spec.handoff;
  rs.initial_clock_spread = spec.initial_clock_spread;
  rs.fault = spec.fault;
  rs.fault_count = spec.fault_count;
  rs.delay = spec.delay;
  rs.drift = spec.drift;
  rs.seed = spec.seed;
  rs.observe = spec.observe;
  return *run(rs).startup;
}

ReintegrationResult run_reintegration(const ReintegrationSpec& spec) {
  RunSpec rs;
  rs.mode = RunMode::kReintegration;
  rs.params = spec.params;
  rs.crash_at = spec.crash_at;
  rs.wake_at = spec.wake_at;
  rs.rounds = spec.rounds;
  rs.delay = spec.delay;
  rs.drift = spec.drift;
  rs.seed = spec.seed;
  rs.observe = spec.observe;
  return *run(rs).reintegration;
}

}  // namespace wlsync::analysis
