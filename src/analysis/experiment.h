#pragma once
// Turn-key experiment harness.
//
// Builds a simulated system per assumptions A1-A4 — drifting clocks, delays
// in [delta-eps, delta+eps], STARTs within beta along the real-time axis —
// populates it with a synchronization algorithm and a fault mix, runs a
// number of rounds, and measures everything the paper's claims quantify:
// round-begin spreads (Theorem 4(c)), adjustment magnitudes (Theorem 4(a)),
// the agreement gamma (Theorem 16), the validity envelope (Theorem 19) and
// convergence series.  Tests, examples, and every bench binary drive their
// scenarios through this single entry point.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/gradient.h"
#include "analysis/measure.h"
#include "analysis/observe.h"
#include "analysis/round_trace.h"
#include "analysis/skew.h"
#include "core/params.h"
#include "core/welch_lynch.h"
#include "net/dynamics.h"
#include "net/topology.h"
#include "proc/placement.h"
#include "sim/simulator.h"

namespace wlsync::analysis {

enum class Algo : std::uint8_t {
  kWelchLynch = 0,   ///< Section 4.2 (variants via RunSpec knobs)
  kLM = 1,           ///< interactive convergence [LM]
  kST = 2,           ///< Srikanth-Toueg [ST]
  kMS = 3,           ///< Mahaney-Schneider [MS]
  kPlainMean = 4,    ///< unguarded mean (ablation)
  kHSSD = 5,         ///< Halpern-Simons-Strong-Dolev (signatures; only
                     ///< omission faults are meaningful — see hssd.h)
  /// Section 9.2 start-up (core/startup.h): rounds of clock values and
  /// READYs from arbitrary clock state, optionally handing off to
  /// Section 4.2 maintenance; fills RunResult::startup.
  kStartup = 6,
};

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kSilent = 1,    ///< never sends (crashed from the start)
  kSpam = 2,      ///< floods junk messages
  kTwoFaced = 3,  ///< the splitter (worst case)
  kLiar = 4,      ///< honest algorithm on a wildly offset clock
};

enum class DelayKind : std::uint8_t {
  kUniform = 0,
  kFast = 1,     ///< all messages at delta - eps
  kSlow = 2,     ///< all messages at delta + eps
  kPerLink = 3,  ///< fixed asymmetric per-link delays
  kSplit = 4,    ///< adversarial: fast to low ids, slow to high ids
  kExpTrunc = 5, ///< exponential slack over the fast floor, A3-truncated
};

enum class DriftKind : std::uint8_t {
  kNone = 0,        ///< perfect clocks (rate 1)
  kExtremal = 1,    ///< alternating extreme legal rates, odd/even opposed
  kPiecewise = 2,   ///< uniform random rate per period
  kRandomWalk = 3,  ///< slowly wandering rate
};

/// Which execution engine run() drives (core/fastpath.h).  A pure
/// performance knob: the fast path is pinned bit-identical to the event
/// engine at results_identical strictness (tests/fastpath_test.cpp), like
/// SchedulerKind.
enum class EngineMode : std::uint8_t {
  kEvent = 0,     ///< the event engine only (the measured reference)
  kFastpath = 1,  ///< require the fast path; throws if the spec is ineligible
  /// The fast path when core::RoundFastPath::ineligible_reason accepts
  /// the run.  Otherwise PDES when pdes_workers != 1 and
  /// engine::PdesEngine::ineligible_reason and engine::plan_pdes accept
  /// it.  Otherwise the event engine.  Those functions state the rules;
  /// RunResult::fastpath_refusal / pdes_refusal record each refusal.
  kAuto = 2,
  /// Require the conservative PDES engine (engine/pdes.h); throws if the
  /// spec is ineligible.  Bit-identical to kEvent like the other engines.
  kPdes = 3,
};

/// The scenario-facing slice of a RunSpec: WHO misbehaves, WHERE they sit,
/// WHAT graph the run executes on, and HOW that graph changes over time.
/// Extracted from the flat RunSpec monolith so scenario generators (the
/// adversary env, the churn sweeps) can compose these knobs as one value.
/// RunSpec inherits this struct, so every historical flat access
/// (`spec.fault`, `spec.topology`, ...) compiles unchanged and is the SAME
/// object the nested view exposes — inheritance is the forwarding layer,
/// with zero overhead and no field duplication.
struct ScenarioSpec {
  FaultKind fault = FaultKind::kNone;
  std::int32_t fault_count = 0;  ///< how many processes misbehave
  /// Heterogeneous failure mix: when non-empty this overrides fault /
  /// fault_count; entry k contributes `count` processes of kind `kind`.
  /// Real deployments rarely fail uniformly — the analysis must hold for
  /// any mixture totalling at most f.
  struct FaultSpec {
    FaultKind kind = FaultKind::kSilent;
    std::int32_t count = 0;
  };
  std::vector<FaultSpec> fault_mix;
  /// kLiar: how late (real seconds) the liar's schedule runs.  Kept off the
  /// round period so its broadcasts alias into mid-round times.
  double liar_offset = 7.5;
  /// Which topology positions the faulty roster occupies (proc/placement.h).
  /// kTrailing is the historical highest-ids layout and keeps every
  /// pre-placement spec byte-identical; any other kind places faults
  /// positionally AND switches TwoFacedAdversary to its neighbor-scoped
  /// mode (victims = the adversary's honest neighborhood, per-neighbor
  /// faces) instead of the full-mesh id-range attack.
  proc::PlacementKind placement = proc::PlacementKind::kTrailing;
  /// Explicit fault positions (sorted or not; ids into [0, n)).  When
  /// non-empty this overrides `placement` entirely — the roster is exactly
  /// these ids (size must equal the resolved fault count) and the
  /// adversaries run in neighbor-scoped mode.  This is how the adaptive
  /// adversary re-places faces between episodes without inventing a new
  /// PlacementKind per candidate set.
  std::vector<std::int32_t> placement_ids;

  /// Exchange graph (net layer).  kFullMesh is the paper's model and runs
  /// the implicit-mesh fast path; sparse kinds open the large-n workload
  /// family (bench_topology).
  net::TopologySpec topology;
  /// Time-varying topology / churn schedule (net/dynamics.h).  Empty = the
  /// historical static graph.  Non-empty requires Algo::kWelchLynch, makes
  /// the fast path and the PDES engine refuse the run by name (never a
  /// silent static-graph execution), and — for topology-changing events on
  /// kFullMesh — materializes the mesh explicitly so it can be mutated.
  /// Leave/rejoin churn routes through core/reintegration's ChurnProcess;
  /// churned ids must be disjoint from the Byzantine roster, and each
  /// completed rejoin lands in RunResult::rejoins.
  net::DynamicsSpec dynamics;
};

struct RunSpec : ScenarioSpec {
  core::Params params;
  Algo algo = Algo::kWelchLynch;
  core::Averaging averaging = core::Averaging::kMidpoint;
  std::int32_t k_exchanges = 1;
  double stagger = 0.0;
  double amortize = 0.0;

  /// The nested scenario view of this spec — the ScenarioSpec base
  /// subobject itself, not a copy (mutations through either view are the
  /// same bytes).
  [[nodiscard]] ScenarioSpec& scenario() noexcept { return *this; }
  [[nodiscard]] const ScenarioSpec& scenario() const noexcept { return *this; }

  /// Algo::kStartup's one algorithm knob: after `rounds` start-up rounds,
  /// hand off to the Section 4.2 maintenance algorithm, which the
  /// averaging / k_exchanges / stagger / amortize knobs configure.  build()
  /// rejects it under any other algo.
  bool startup_handoff = false;
  /// > 0 starts every honest process from arbitrary logical-clock state:
  /// CORR offset uniform in [0, spread) on top of the aligned value.  The
  /// Section 9.2 start-up runs use 1.0-5.0; under kWelchLynch it is the
  /// Khanchandani–Lenzen-style self-stabilization workload, measured by
  /// RunResult::stabilized_round / stabilization_time.  0 (default) is the
  /// historical aligned start.
  double initial_clock_spread = 0.0;
  /// Stabilization threshold for the arbitrary-initial-state workload:
  /// the run counts as stabilized from the first round whose entire skew
  /// suffix stays <= this.  0 = 2 * gamma_bound.
  double stabilize_threshold = 0.0;

  DelayKind delay = DelayKind::kUniform;
  DriftKind drift = DriftKind::kExtremal;
  double drift_period = 2.0;

  /// Real-time spread of the nonfaulty STARTs; < 0 means 0.9 * beta.
  double initial_spread = -1.0;
  std::int32_t rounds = 20;
  std::uint64_t seed = 1;
  std::optional<sim::NicConfig> nic;
  /// Engine scheduling policy — performance only; results are identical
  /// under every policy (see tests/engine_test.cpp).  The kAuto default is
  /// the d-ary heap; kCalendar is an explicit opt-in.
  engine::SchedulerKind scheduler = engine::SchedulerKind::kAuto;
  /// Round-synchronous fast path (core/fastpath.h) — performance only;
  /// executions are bit-identical either way.  kAuto engages it exactly on
  /// the eligible specs; set kEvent to force the reference engine (as the
  /// benches' --engine=event axis does) or kFastpath to assert eligibility.
  EngineMode engine = EngineMode::kAuto;
  /// Shard/worker count for the PDES engine (engine/pdes.h): the topology
  /// is cut into this many shards (net/partition.h), one thread each.
  /// <= 0 (the default) auto-tunes: engine::choose_pdes_workers scores
  /// candidate shard counts from partition cut statistics and live stall
  /// telemetry, and the run stays serial (pdes_refusal says why) when no
  /// candidate scores or the run is a ParallelRunner trial (the sweep
  /// already owns the cores).  engine = kPdes accepts any explicit value
  /// >= 1 (1 = single-shard, one epoch — useful for pinning the protocol
  /// without concurrency) and throws when auto-tune declines.  Performance
  /// only: executions are bit-identical at results_identical strictness
  /// for any worker count (tests/pdes_test.cpp).
  std::int32_t pdes_workers = 0;

  double lm_delta_max = 0.0;  ///< 0 = auto
  double ms_tau = 0.0;        ///< 0 = auto

  /// Measure skew-vs-distance (analysis/gradient.h) over the steady-state
  /// window and fill RunResult::gradient.  Works on any topology (on the
  /// full mesh every pair sits at distance 1).
  bool measure_gradient = false;

  /// Streaming in-run observation (analysis/observe.h): attach a
  /// StreamingObserver for the run and fill the measured RunResult fields
  /// (gamma_measured, validity, gradient, skew_at_round, final_skew) from
  /// its event-driven accumulators instead of the post-hoc grids.  Values
  /// are bit-identical to the post-hoc pipeline on the same windows
  /// (tests/observer_test.cpp); the steady-state window anchors at the
  /// last honest begin of round (rounds + 1) / 2 — the post-hoc anchor
  /// for runs that complete their rounds — so on healthy runs observe
  /// on/off is a measurement-engine A/B, not a physics change.  A
  /// degraded run that never completes the anchor round collapses the
  /// window to the endpoint sample (the post-hoc anchor is
  /// retrospective and cannot be sampled in one pass);
  /// ObserveStats::t_steady == t_end marks that case.  RunResult::observe
  /// carries the telemetry.
  bool observe = false;
  /// Bounded-memory mode (requires observe): truncate every clock's
  /// segment list and CORR log behind the observation frontier while the
  /// run progresses.  Measured results are bit-identical to the retained
  /// observe run (pinned by tests/observer_test.cpp); post-hoc probes on
  /// the simulator afterwards are no longer possible — so a dynamics
  /// rejoin and a start-up handoff, whose RunResult::rejoins and
  /// StartupResult::post_handoff_skew read that history, reject it.
  bool retain_history = true;
  /// Skew/gradient sample step for observe mode; 0 = P/25, the post-hoc
  /// grid.  Coarser steps make very long windows cheaper to observe.
  double observe_dt = 0.0;
  /// Runaway-execution guard override; 0 keeps SimConfig's default
  /// (50M events).  Large-n meshes need it: one n = 4096 full-mesh
  /// exchange is ~16.8M deliveries, so a handful of rounds legitimately
  /// exceeds the default budget (bench_micro --fastpath-json raises it).
  std::uint64_t max_events = 0;
};

// ------------------------------------------------------------------------
// Payloads of run().  Declared before RunResult, which embeds them
// (std::optional needs the complete type).

/// What an Algo::kStartup run measures beyond the shared fields.  Its
/// Lemma 20 series B^i is RunPhysics::skew_at_round: the skew at round i's
/// last honest begin.
struct StartupResult {
  /// Every honest process switched to maintenance (RunSpec::startup_handoff).
  bool handoff_done = false;
  /// Max skew over the last P of the run, under maintenance; 0 unless
  /// handoff_done.
  double post_handoff_skew = 0.0;

  bool operator==(const StartupResult&) const = default;
};

/// One completed rejoin of a churn schedule (Section 9.1), measured over
/// the never-left processes plus the joiner.
struct RejoinReport {
  std::int32_t pid = 0;
  double join_time = 0.0;
  std::int32_t join_round = 0;
  /// Begin spread of the joiner's first full round; Section 9.1 claims it
  /// is within beta.
  double spread_with_joiner = 0.0;
  /// Max skew from join + 2P until the joiner's next leave (or t_end);
  /// Section 9.1 claims it stays within gamma.
  double skew_after = 0.0;

  bool operator==(const RejoinReport&) const = default;
};

/// What a run measured: a deterministic function of the RunSpec, identical
/// bit for bit across engines, scheduler policies, worker counts and
/// observe modes.  results_identical compares exactly these members.
struct RunPhysics {
  std::vector<std::int32_t> honest;
  double gamma_bound = 0.0;
  double gamma_measured = 0.0;  ///< steady-state max skew among honest
  double adj_bound = 0.0;
  double max_abs_adj = 0.0;
  std::vector<double> begin_spread;   ///< per-round real-time begin spread
  std::vector<double> skew_at_round;  ///< skew at each round's last begin
  ValidityReport validity;
  /// Skew-vs-distance curves; empty unless RunSpec::measure_gradient.
  GradientSummary gradient;
  double final_skew = 0.0;
  bool diverged = false;
  std::uint64_t messages = 0;
  std::uint64_t nic_dropped = 0;
  /// UPDATEs skipped because NIC drops / serialization emptied a collection
  /// window (missed-round semantics; see WelchLynchProcess::window_starved).
  /// Summed over the Welch-Lynch processes.
  std::int64_t starved_updates = 0;
  /// Section 9.3 ingress accounting (all zeros when RunSpec::nic is unset).
  NicSummary nic;
  double tmin0 = 0.0;
  double tmax0 = 0.0;
  double t_end = 0.0;
  std::int32_t completed_rounds = 0;
  /// Self-stabilization measurement (RunSpec::initial_clock_spread > 0, but
  /// computed for every run): the first round index whose ENTIRE
  /// skew_at_round suffix stays within the stabilization threshold
  /// (RunSpec::stabilize_threshold; default 2 * gamma_bound), and the real
  /// time of that round's last honest begin minus tmax0.  -1 when the run
  /// never stabilizes (or completed no rounds).
  std::int32_t stabilized_round = -1;
  double stabilization_time = -1.0;
  /// Scenario events the simulator applied (sim::Simulator::
  /// dynamics_applied); 0 on static runs.  Pins that every engine saw the
  /// same schedule.
  std::int64_t dynamics_applied = 0;
  /// Every churn rejoin whose first full round began before the horizon,
  /// in join order; empty on runs without a dynamics rejoin.
  std::vector<RejoinReport> rejoins;
  /// Engaged exactly when RunSpec::algo is kStartup.
  std::optional<StartupResult> startup;

  bool operator==(const RunPhysics&) const = default;
};

/// How a run was computed and measured: timing, engine selection and the
/// observation footprint.  Runs of identical physics intentionally differ
/// here (retained vs bounded observe, event engine vs fast path vs PDES).
/// Members are ordered so the struct has no tail padding: a member added
/// straight to RunResult then always grows it (see the static_assert
/// below).
struct RunTelemetry {
  /// Wall-clock seconds this trial took (run() measures it; the
  /// ParallelRunner streams it to sweep CSVs).
  double wall_seconds = 0.0;
  /// Wall-clock seconds of the engine span alone: the fastpath / PDES /
  /// event-loop execution between setup (topology, simulator, partition)
  /// and measurement (trace scans, skew series).  This is the number
  /// engine-vs-engine comparisons should use — wall_seconds folds in
  /// per-spec costs every engine pays identically, which dilutes any
  /// speedup toward 1.
  double engine_seconds = 0.0;
  /// Streaming-observation telemetry (all defaults when RunSpec::observe is
  /// off).
  ObserveStats observe;
  /// Round-fast-path telemetry (core/fastpath.h).
  bool fastpath_engaged = false;
  /// Fast-set size (FastPathStats::fast_count); zero unless the fast path
  /// ran.
  std::int32_t fastpath_fast_count = 0;
  std::int64_t fastpath_exchanges = 0;
  /// Times the fast path re-armed after a clean handoff to the event
  /// engine mid-run (core/fastpath.h).
  std::int64_t fastpath_rearms = 0;
  /// Merged-loop engine events (FastPathStats::region_events); zero unless
  /// the fast path ran.
  std::int64_t fastpath_region_events = 0;
  /// Threads the fast path's per-exchange kernels ran on
  /// (FastPathStats::threads): 1 = serial; 0 unless the fast path engaged.
  std::int32_t fastpath_threads = 0;
  /// Shard/worker count the PDES engine actually ran with (the auto-tuner's
  /// pick when pdes_workers <= 0).  Zero when the engine didn't run.
  std::int32_t pdes_workers_used = 0;
  /// Why engine = kAuto declined (or disengaged from) the fast path / the
  /// PDES engine: the refusal of the engine's ineligible_reason or of
  /// engine::plan_pdes, or the entry handoff when the fast path ran but
  /// never engaged.  Empty when the engine engaged or was never a
  /// candidate (e.g. pdes_workers = 1).
  std::string fastpath_refusal;
  std::string pdes_refusal;
  /// PDES telemetry (engine/pdes.h): conservative windows executed and
  /// lane-epochs that dispatched nothing.  Zero when the engine didn't
  /// run.
  std::int64_t pdes_epochs = 0;
  std::int64_t pdes_stalls = 0;
};

/// One run's result.  Both halves are inherited, so every member keeps its
/// flat spelling (`r.messages`, `r.engine_seconds`).
struct RunResult : RunPhysics, RunTelemetry {};

// Every member lives in exactly one half; a member declared on RunResult
// itself would escape results_identical, so it fails to compile instead.
static_assert(sizeof(RunResult) == sizeof(RunPhysics) + sizeof(RunTelemetry));

/// Exact (no tolerance) equality of every physics member — the standard the
/// parallel runner, the engines and the observe modes are held to.
[[nodiscard]] inline bool results_identical(const RunResult& a,
                                            const RunResult& b) {
  return static_cast<const RunPhysics&>(a) == static_cast<const RunPhysics&>(b);
}

/// A constructed system ready to run; exposes the simulator for tests that
/// need finer control than run() provides.
class Experiment {
 public:
  explicit Experiment(RunSpec spec);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs the configured number of rounds and measures.
  [[nodiscard]] RunResult run();

  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
  /// The real-time horizon run() simulates to: tmax0 plus the configured
  /// rounds, one extra round and measurement slack, at the algorithm's
  /// round length (a start-up round is a few delta, not P).
  [[nodiscard]] double horizon() const;
  /// The ObserveSpec run() attaches when RunSpec::observe is set — exposed
  /// so external harnesses (bench_micro --smoke) gate the exact
  /// configuration production runs use, not a hand-rolled copy.
  [[nodiscard]] ObserveSpec make_observe_spec();
  /// The materialized exchange graph (built on demand; full mesh when the
  /// spec leaves the topology at its default).
  [[nodiscard]] const net::Topology& topology();
  [[nodiscard]] RoundTrace& trace() noexcept { return trace_; }
  [[nodiscard]] const std::vector<std::int32_t>& honest() const noexcept {
    return honest_;
  }
  [[nodiscard]] double tmin0() const noexcept { return tmin0_; }
  [[nodiscard]] double tmax0() const noexcept { return tmax0_; }

 private:
  void build();

  RunSpec spec_;
  std::unique_ptr<sim::Simulator> sim_;
  RoundTrace trace_;
  std::vector<std::int32_t> honest_;
  net::Topology topo_;  ///< valid iff topo_built_
  bool topo_built_ = false;
  double tmin0_ = 0.0;
  double tmax0_ = 0.0;
};

/// THE experiment entry point: builds an Experiment for `spec`, runs it and
/// measures wall_seconds.  Every algorithm, Section 9.2 start-up included,
/// shares the one build and measurement path; RunResult::rejoins reports a
/// dynamics rejoin and RunResult::startup an Algo::kStartup run.  A spec
/// the build cannot honour throws std::invalid_argument naming the knob;
/// a forced engine (kFastpath / kPdes) that refuses the spec throws its
/// ineligible_reason.
[[nodiscard]] RunResult run(const RunSpec& spec);

}  // namespace wlsync::analysis
