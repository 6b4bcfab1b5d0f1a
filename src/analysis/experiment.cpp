#include "analysis/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "baselines/averaging_rounds.h"
#include "baselines/hssd.h"
#include "baselines/srikanth_toueg.h"
#include "core/fastpath.h"
#include "core/reintegration.h"
#include "core/startup.h"
#include "engine/pdes.h"
#include "proc/adversaries.h"
#include "util/parallel.h"
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
/// build_algorithm, the start-up handoff and the churn routing (ChurnProcess
/// wraps the same algorithm the static processes run).
core::WelchLynchConfig make_wl_config(const RunSpec& spec) {
  core::WelchLynchConfig config;
  config.params = spec.params;
  config.averaging = spec.averaging;
  config.k_exchanges = spec.k_exchanges;
  config.stagger = spec.stagger;
  config.amortize = spec.amortize;
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
          spec.params, delta_max);
    }
    case Algo::kST:
      return std::make_unique<baselines::SrikanthTouegProcess>(spec.params);
    case Algo::kMS: {
      const double tau = spec.ms_tau > 0.0
                             ? spec.ms_tau
                             : 4.0 * (spec.params.beta + 2.0 * spec.params.eps);
      return std::make_unique<baselines::MahaneySchneiderProcess>(
          spec.params, tau);
    }
    case Algo::kPlainMean:
      return std::make_unique<baselines::PlainMeanProcess>(spec.params);
    case Algo::kHSSD:
      return std::make_unique<baselines::HssdProcess>(spec.params);
    case Algo::kStartup: {
      core::StartupConfig config;
      config.maintenance = make_wl_config(spec);
      config.handoff_rounds = spec.startup_handoff ? spec.rounds : 0;
      return std::make_unique<core::StartupProcess>(std::move(config));
    }
  }
  throw std::logic_error("unknown Algo");
}

/// The run terms that scale with the algorithm's round length.  A Section
/// 9.2 start-up round is a READY exchange a few delta long, not a P-long
/// maintenance round: at the maintenance cadence spam would hit about one
/// start-up round in 30.
struct RoundScale {
  double span;  ///< real time the run simulates past tmax0
  double spam_period;
  std::int32_t spam_burst;
};

RoundScale round_scale(const RunSpec& spec) {
  const core::Params& p = spec.params;
  const auto rounds = static_cast<double>(spec.rounds);
  if (spec.algo == Algo::kStartup) {
    // Each start-up round takes at most ~2 delta + a few eps plus the READY
    // exchange; budget generously.
    const double round_budget =
        4.0 * (2.0 * p.delta + 8.0 * p.eps) + 6.0 * p.delta;
    return {(rounds + 2.0) * round_budget +
                (spec.startup_handoff ? 3.0 * p.P : 0.0) + 1.0,
            p.delta, 2};
  }
  // The configured rounds plus one extra round and measurement slack.
  return {(rounds + 1.0) * p.P * (1.0 + 2.0 * p.rho) +
              2.0 * core::derive(p).window + 10.0 * p.delta,
          p.P / 10.0, 3};
}

/// The simulator a run executes on: the spec's SimConfig (with an explicit
/// exchange graph when `topology` is non-null), its delay model and the
/// round-trace sink.  Draws rng.fork(1) then rng.fork(2).
std::unique_ptr<sim::Simulator> make_simulator(const RunSpec& spec,
                                               util::Rng& rng,
                                               RoundTrace& trace,
                                               const net::Topology* topology) {
  const core::Params& p = spec.params;
  sim::SimConfig config;
  config.delta = p.delta;
  config.eps = p.eps;
  config.seed = rng.fork(1)();
  config.nic = spec.nic;
  config.scheduler = spec.scheduler;
  if (spec.max_events > 0) config.max_events = spec.max_events;
  if (topology != nullptr) config.topology = *topology;
  util::Rng delay_rng = rng.fork(2);
  auto sim = std::make_unique<sim::Simulator>(
      config, build_delay(spec.delay, p, delay_rng));
  sim->add_trace_sink(&trace);
  return sim;
}

/// A StreamingObserver attached for one run and detached on every exit
/// path: the observer dies with the run's frame, and a simulator that
/// outlives it (tests drive Experiment::simulator() directly) must never
/// hold the stale pointer.
class ScopedObserver {
 public:
  ScopedObserver() = default;
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;
  ~ScopedObserver() {
    if (sim_ != nullptr) sim_->set_observer(nullptr);
  }

  void attach(sim::Simulator& sim, ObserveSpec spec) {
    observer_ = std::make_unique<StreamingObserver>(sim, std::move(spec));
    sim.set_observer(observer_.get());
    sim_ = &sim;
  }
  explicit operator bool() const noexcept { return observer_ != nullptr; }
  StreamingObserver* operator->() const noexcept { return observer_.get(); }

 private:
  sim::Simulator* sim_ = nullptr;
  std::unique_ptr<StreamingObserver> observer_;
};

/// Section 9.1 for every join a churn run recorded, over the never-left
/// processes plus the joiner: the begin spread of the joiner's first full
/// round, and the max skew from join + 2P until its next leave (or t_end).
/// A join whose first full round some id never began — it missed the
/// horizon — has no spread, so it gets no report.  Only churned pids
/// rejoin: a start-up handoff also records a join, and is not one.
std::vector<RejoinReport> measure_rejoins(
    const sim::Simulator& sim, const RoundTrace& trace,
    const std::vector<std::int32_t>& honest, const net::DynamicsSpec& dynamics,
    double P, double t_end) {
  const auto churn = net::churn_intervals(dynamics);
  std::vector<RejoinReport> reports;
  for (const RoundEvent& join : trace.joins()) {
    const auto windows = churn.find(join.pid);
    if (windows == churn.end()) continue;
    std::vector<std::int32_t> ids = honest;
    ids.insert(std::upper_bound(ids.begin(), ids.end(), join.pid), join.pid);
    const double spread = trace.begin_spread(join.round, ids);
    if (std::isnan(spread)) continue;
    double end = t_end;
    for (const net::ChurnInterval& w : windows->second) {
      if (w.leave > join.real_time) {
        end = std::min(w.leave, t_end);
        break;
      }
    }
    const double t_check = join.real_time + 2.0 * P;
    const double skew =
        t_check < end ? skew_series(sim, ids, t_check, end, P / 25.0).max_skew
                      : skew_at(sim, ids, end);
    reports.push_back({join.pid, join.real_time, join.round, spread, skew});
  }
  return reports;
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
  const bool startup = spec_.algo == Algo::kStartup;
  if (spec_.startup_handoff && !startup) {
    throw std::invalid_argument(
        "RunSpec: startup_handoff requires Algo::kStartup");
  }
  if (startup && spec_.topology.kind != net::TopologyKind::kFullMesh) {
    throw std::invalid_argument(
        "RunSpec: Algo::kStartup requires the full-mesh topology "
        "(StartupProcess waits for n - f READYs, which a sparse neighbourhood "
        "never delivers; a local quorum rule is not implemented)");
  }
  const bool dynamic = !spec_.dynamics.empty();
  if (dynamic) {
    if (spec_.algo != Algo::kWelchLynch) {
      throw std::invalid_argument(
          "RunSpec: dynamics schedules require Algo::kWelchLynch (the only "
          "algorithm with dynamic neighbor-view resync)");
    }
    // Churn needs a dead window of 2P so stale WL timers expire before the
    // reintegration procedure wakes.
    spec_.dynamics.validate(p.n, 2.0 * p.P);
  }
  util::Rng rng(spec_.seed);
  // Full mesh stays on the implicit fast path (no adjacency storage) —
  // unless the schedule mutates the graph, which needs an explicit
  // adjacency to edit.  Construction runs once, through topology(); the
  // simulator gets its own copy (distance-cache state is not shared with
  // topo_).
  const bool explicit_graph =
      spec_.topology.kind != net::TopologyKind::kFullMesh ||
      (dynamic && spec_.dynamics.topology_changing());
  sim_ = make_simulator(spec_, rng, trace_,
                        explicit_graph ? &topology() : nullptr);

  // Faulty roster: either the homogeneous (fault, fault_count) pair or the
  // heterogeneous fault_mix.  Faulty processes occupy the highest ids.
  // Every roster slot must name a real fault: a kNone slot would count
  // against n without registering a process, and a negative count would
  // quietly shrink the mix (or, for fault_count, overflow the roster).
  if (spec_.fault_count < 0) {
    throw std::invalid_argument("RunSpec: fault_count must be >= 0");
  }
  std::vector<FaultKind> roster;
  if (!spec_.fault_mix.empty()) {
    for (const auto& entry : spec_.fault_mix) {
      if (entry.kind == FaultKind::kNone) {
        throw std::invalid_argument(
            "RunSpec: fault_mix entry of kind kNone (every entry must name "
            "a fault kind)");
      }
      if (entry.count < 0) {
        throw std::invalid_argument("RunSpec: fault_mix count must be >= 0");
      }
      for (std::int32_t i = 0; i < entry.count; ++i) roster.push_back(entry.kind);
    }
  } else if (spec_.fault != FaultKind::kNone) {
    roster.assign(static_cast<std::size_t>(spec_.fault_count), spec_.fault);
  }
  if (startup && std::any_of(roster.begin(), roster.end(), [](FaultKind k) {
        return k == FaultKind::kTwoFaced || k == FaultKind::kLiar;
      })) {
    throw std::invalid_argument(
        "RunSpec: Algo::kStartup does not support two-faced or liar faults "
        "(their schedules assume A4's synchronized start)");
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
  // Arbitrary initial state (Section 9.2 start-up's premise, and the
  // Khanchandani–Lenzen self-stabilization workload): honest processes
  // start from ARBITRARY logical-clock state — CORR offset uniform in
  // [0, spread) on top of the aligned value.  The fork is taken
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
        const RoundScale scale = round_scale(spec_);
        proc::SpamAdversary::Config config;
        config.period = scale.spam_period;
        config.burst = scale.spam_burst;
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
      case FaultKind::kNone:  // rejected when the roster was built
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
  // round loop stays allocation-free (bench_micro gates on this).  A
  // bounded run truncates every log behind the observer's frontier once a
  // round, so it holds at most the rounds of its truncation window:
  // sizing it for the whole run would make its history grow with the run
  // length.  When the whole history is kept, size each clock's breakpoint
  // list too: every periodic drift model cuts drift_period-long segments,
  // and a clock is read up to a round past the horizon (the next round's
  // timer) plus extend_clock's overshoot, which 2P covers.  Bounded runs
  // keep growing those on demand.
  std::size_t breakpoints = 0;
  if (spec_.retain_history && spec_.drift != DriftKind::kNone &&
      spec_.drift_period > 0.0) {
    breakpoints =
        static_cast<std::size_t>(
            std::ceil((horizon() + 2.0 * p.P) / spec_.drift_period)) +
        2;
  }
  constexpr std::int32_t kTruncationWindowRounds = 2;
  const std::int32_t corr_rounds =
      spec_.retain_history ? spec_.rounds
                           : std::min(spec_.rounds, kTruncationWindowRounds);
  sim_->reserve_history(static_cast<std::size_t>(corr_rounds + 2) *
                            static_cast<std::size_t>(spec_.k_exchanges),
                        breakpoints);
}

double Experiment::horizon() const {
  return tmax0_ + round_scale(spec_).span;
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
  // completes at least its configured rounds: the maintenance horizon
  // affords one extra full round past spec.rounds, so last_complete_round
  // = rounds + 1, and the post-hoc midpoint is capped at (rounds + 1) / 2
  // for runs that complete more.
  ospec.anchor_round = (spec_.rounds + 1) / 2;
  ospec.max_rounds = spec_.rounds;
  ospec.skew_dt = p.P / 25.0;
  ospec.validity_dt = p.P / 10.0;
  ospec.validity_t0 = tmax0_ + d.window;
  ospec.gradient = spec_.measure_gradient;
  if (spec_.measure_gradient) ospec.topology = &topology();
  ospec.truncate = !spec_.retain_history;
  return ospec;
}

RunResult Experiment::run() {
  const core::Params& p = spec_.params;
  const core::Derived d = core::derive(p);
  if (!spec_.retain_history &&
      (spec_.startup_handoff ||
       std::any_of(spec_.dynamics.events.begin(), spec_.dynamics.events.end(),
                   [](const net::DynamicsEvent& e) {
                     return e.kind == net::DynamicsKind::kRejoin;
                   }))) {
    throw std::invalid_argument(
        "RunSpec: retain_history = false does not support a dynamics rejoin "
        "or a start-up handoff (RunResult::rejoins and "
        "StartupResult::post_handoff_skew read the retained history)");
  }

  RunResult result;
  result.honest = honest_;
  result.gamma_bound = d.gamma;
  result.adj_bound = d.adj_bound;
  result.tmin0 = tmin0_;
  result.tmax0 = tmax0_;

  const double horizon = this->horizon();

  // The one measurement rule: a run that drops its history streams its
  // measurement (the observer attaches before any event fires); a run
  // that keeps it measures post hoc below.
  ScopedObserver observer;
  if (!spec_.retain_history) observer.attach(*sim_, make_observe_spec());

  const auto engine_start = std::chrono::steady_clock::now();

  // The engine span: the round fast path (core/fastpath.h), then PDES
  // (engine/pdes.h) on whatever it handed back, then run_until for the
  // rest (everything, when neither ran).  All three are pinned
  // bit-identical, so the choice is a performance decision, and each
  // engine's ineligible_reason is the only statement of its rules.  kAuto
  // records a refusal in RunResult; a forced engine throws it.
  const auto refuse = [this](const std::string& reason, std::string& slot) {
    if (spec_.engine != EngineMode::kAuto) {
      throw std::invalid_argument(
          std::string("RunSpec: engine = ") +
          (spec_.engine == EngineMode::kFastpath ? "kFastpath" : "kPdes") +
          " but the spec is ineligible: " + reason);
    }
    slot = reason;
  };
  if (spec_.engine == EngineMode::kFastpath ||
      spec_.engine == EngineMode::kAuto) {
    if (const char* reason = core::RoundFastPath::ineligible_reason(*sim_)) {
      refuse(reason, result.fastpath_refusal);
    } else {
      core::RoundFastPath fastpath(*sim_);
      fastpath.run(horizon);
      const core::FastPathStats& stats = fastpath.stats();
      result.fastpath_engaged = stats.engaged;
      result.fastpath_exchanges = stats.exchanges;
      result.fastpath_rearms = stats.rearms;
      result.fastpath_fast_count = stats.fast_count;
      result.fastpath_region_events = stats.region_events;
      if (stats.engaged) result.fastpath_threads = stats.threads;
      // Ran but never passed entry validation: the handoff says why.
      if (!stats.engaged) result.fastpath_refusal = stats.handoff;
    }
  }

  // pdes_workers = 1 opts kAuto out of PDES (one shard is pure overhead).
  // Per-lane RoundTraces catch each shard's annotations and fold back into
  // trace_, so the measurements below read the trace a serial run builds.
  if (spec_.engine == EngineMode::kPdes ||
      (spec_.engine == EngineMode::kAuto && !result.fastpath_engaged &&
       spec_.pdes_workers != 1)) {
    engine::PdesPlan plan;
    if (const char* reason = engine::PdesEngine::ineligible_reason(*sim_)) {
      plan.refusal = reason;
    } else if (spec_.engine == EngineMode::kAuto && spec_.pdes_workers <= 0 &&
               util::in_worker()) {
      // The sweep already claims the cores; nested shards would
      // oversubscribe them (the same guard measure.cpp applies).  An
      // explicit kPdes still tunes, capped by the core count.
      plan.refusal = "auto-tune declined: inside a ParallelRunner worker";
    } else {
      plan = engine::plan_pdes(*sim_, topology(), spec_.pdes_workers,
                               spec_.seed, util::hardware_threads());
    }
    if (!plan.refusal.empty()) {
      refuse(plan.refusal, result.pdes_refusal);
    } else {
      std::vector<RoundTrace> lane_traces(
          static_cast<std::size_t>(plan.partition.k));
      std::vector<sim::TraceSink*> lane_sinks;
      lane_sinks.reserve(lane_traces.size());
      for (RoundTrace& lane_trace : lane_traces) {
        lane_sinks.push_back(&lane_trace);
      }
      engine::PdesEngine pdes(*sim_, plan.partition, lane_sinks);
      pdes.run_until(horizon);
      trace_.absorb_all(lane_traces);
      result.pdes_epochs = pdes.stats().epochs;
      result.pdes_stalls = pdes.stats().stalls;
      result.pdes_workers_used = pdes.stats().shards;
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
  // comes from the streaming round-boundary accumulator in a bounded run
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
    // Steady-state agreement: sample from the midpoint round onward.  The
    // midpoint is capped at the streaming anchor, (rounds + 1) / 2, so runs
    // that complete more rounds than the horizon budgets for (start-up
    // completes several per configured one) measure the same window
    // either way.
    double t_steady = tmax0_ + d.window;
    if (last_round >= 0) {
      const auto mid_times = trace_.begin_times(
          std::min(last_round, spec_.rounds + 1) / 2, honest_);
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
  if (!trace_.joins().empty()) {
    result.rejoins = measure_rejoins(*sim_, trace_, honest_, spec_.dynamics,
                                     p.P, result.t_end);
  }
  if (spec_.algo == Algo::kStartup) {
    StartupResult& startup = result.startup.emplace();
    if (spec_.startup_handoff) {
      startup.handoff_done =
          std::all_of(honest_.begin(), honest_.end(), [this](std::int32_t id) {
            return dynamic_cast<const core::StartupProcess&>(
                       sim_->process(id))
                .handed_off();
          });
      if (startup.handoff_done) {
        startup.post_handoff_skew =
            skew_series(*sim_, honest_, result.t_end - p.P, result.t_end,
                        p.P / 25.0)
                .max_skew;
      }
    }
  }
  result.diverged = !(result.gamma_measured <
                      std::max(100.0 * d.gamma, 1.0)) ||
                    result.completed_rounds < spec_.rounds / 2;
  result.queue_ops = sim_->queue_ops();
  result.peak_pending = sim_->peak_pending();
  result.fanout_direct = sim_->fanout_direct();
  result.history_bytes = sim_->history_bytes();
  return result;
}

RunResult run(const RunSpec& spec) {
  const auto wall_start = std::chrono::steady_clock::now();
  Experiment experiment(spec);
  RunResult result = experiment.run();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace wlsync::analysis
