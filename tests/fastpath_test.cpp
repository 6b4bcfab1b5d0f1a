// Bit-identity pin for the round-synchronous fast path (ISSUE 6): every
// eligible spec run with EngineMode::kFastpath must produce
// results_identical output — bitwise-equal skews, CORR-derived series,
// message counts, annotations — to the pure event engine, across WL
// variants, topologies, delay models, and drift regimes on deterministic
// seeds.  This is the same standard the batched fan-out and arena-ingest
// refactors were held to: the engine may only move nanoseconds, never a
// double.  ISSUE 8 widened the eligible region: staggered broadcasts
// (Section 9.3) and fault-isolating regions (faults on a sparse topology,
// honest remainder batched, tainted region event-replayed) are pinned here
// across stagger values, topologies and adversary placements — including
// an adversary sitting ON a region boundary (a bridge endpoint).  The
// fallback half proves the dispatcher still refuses what it must: NIC,
// bounded history, non-WL algorithms, stagger+faults, and
// faults whose neighborhood covers the whole graph (any full mesh).

#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/parallel_runner.h"
#include "util/parallel.h"

namespace wlsync::analysis {
namespace {

RunResult run_engine(RunSpec spec, EngineMode engine) {
  spec.engine = engine;
  return run(spec);
}

/// The central pin: the fast path engages, advances exchanges past the
/// event queue, and the measured physics are bitwise those of the event
/// engine.  kAuto must select the fast path on its own for these specs.
void expect_engines_identical(const RunSpec& spec, const char* what) {
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  const RunResult fast = run_engine(spec, EngineMode::kFastpath);
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(event.fastpath_engaged) << what;
  EXPECT_TRUE(fast.fastpath_engaged) << what;
  EXPECT_GT(fast.fastpath_exchanges, 0) << what;
  EXPECT_TRUE(autod.fastpath_engaged) << what;
  EXPECT_EQ(autod.fastpath_exchanges, fast.fastpath_exchanges) << what;
  EXPECT_TRUE(results_identical(event, fast)) << what;
  EXPECT_TRUE(results_identical(event, autod)) << what;
}

/// The fallback pin: kAuto silently runs the event engine (telemetry says
/// the fast path never engaged), kFastpath refuses the spec loudly.
void expect_event_fallback(const RunSpec& spec, const char* what) {
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(autod.fastpath_engaged) << what;
  EXPECT_EQ(autod.fastpath_exchanges, 0) << what;
  EXPECT_TRUE(results_identical(event, autod)) << what;
  EXPECT_THROW((void)run_engine(spec, EngineMode::kFastpath),
               std::invalid_argument)
      << what;
}

RunSpec base_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec;
  spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 11;
  return spec;
}

// ------------------------------------------------------- identity pins ---

TEST(FastpathPin, WelchLynchFullMesh) {
  expect_engines_identical(base_spec(13, 4), "plain WL, full mesh");
}

TEST(FastpathPin, WelchLynchVariants) {
  RunSpec mean = base_spec(13, 4);
  mean.averaging = core::Averaging::kReducedMean;
  expect_engines_identical(mean, "reduced-mean averaging");

  RunSpec k2 = base_spec(10, 3);
  k2.k_exchanges = 2;
  expect_engines_identical(k2, "k = 2 exchanges");

  RunSpec amortized = base_spec(10, 3);
  amortized.amortize = 1.5;
  expect_engines_identical(amortized, "amortized corrections");
}

TEST(FastpathPin, SparseTopologies) {
  RunSpec cliques = base_spec(24, 7);
  cliques.topology.kind = net::TopologyKind::kRingOfCliques;
  cliques.topology.clique_size = 6;
  expect_engines_identical(cliques, "WL on ring of cliques");

  RunSpec kreg = base_spec(24, 7);
  kreg.topology.kind = net::TopologyKind::kKRegular;
  kreg.topology.degree = 8;
  expect_engines_identical(kreg, "WL on k-regular expander");
}

TEST(FastpathPin, DriftRegimes) {
  for (const DriftKind drift : {DriftKind::kNone, DriftKind::kExtremal,
                                DriftKind::kPiecewise, DriftKind::kRandomWalk}) {
    RunSpec spec = base_spec(13, 4);
    spec.drift = drift;
    expect_engines_identical(spec, "drift regime sweep");
  }
}

TEST(FastpathPin, DelayModels) {
  for (const DelayKind delay : {DelayKind::kUniform, DelayKind::kFast,
                                DelayKind::kSlow, DelayKind::kSplit,
                                DelayKind::kPerLink}) {
    RunSpec spec = base_spec(13, 4);
    spec.delay = delay;
    expect_engines_identical(spec, "delay model sweep");
  }
}

TEST(FastpathPin, MeasurementAndEngineKnobs) {
  // Streaming observation attends every round boundary the fast path
  // replays; the gradient walk reads the clock histories it preserved.
  RunSpec observed = base_spec(13, 4);
  observed.observe = true;
  expect_engines_identical(observed, "streaming observer attached");

  RunSpec gradient = base_spec(13, 4);
  gradient.measure_gradient = true;
  expect_engines_identical(gradient, "gradient measurement");

  // An engine knob that only matters when events flow: the fast path
  // hands the same queue back regardless.
  RunSpec calendar = base_spec(13, 4);
  calendar.scheduler = engine::SchedulerKind::kCalendar;
  expect_engines_identical(calendar, "calendar scheduler");
}

TEST(FastpathPin, DeterministicUnderParallelRunner) {
  RunSpec base = base_spec(16, 5);
  base.engine = EngineMode::kFastpath;
  const std::vector<RunSpec> specs = seed_sweep(base, 900, 6);
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = ParallelRunner(4).run_adaptive(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], sharded[i])) << "trial " << i;
    EXPECT_TRUE(serial[i].fastpath_engaged) << "trial " << i;
  }
}

TEST(FastpathPin, StaggeredBroadcasts) {
  // Section 9.3: process p broadcasts at base + p*sigma, receivers
  // normalize arrivals by sender id.  The steady-state boundary is 2n-1
  // events (pre-armed update timers for every p > 0) and the delivery
  // kernel subtracts off[s] = s*sigma with the engine's exact expression.
  for (const double sigma : {0.0005, 0.004}) {
    RunSpec spec = base_spec(10, 3);
    spec.stagger = sigma;
    expect_engines_identical(spec, "staggered full mesh");
  }

  RunSpec cliques = base_spec(24, 7);
  cliques.stagger = 0.002;
  cliques.topology.kind = net::TopologyKind::kRingOfCliques;
  cliques.topology.clique_size = 6;
  expect_engines_identical(cliques, "staggered ring of cliques");

  RunSpec kreg = base_spec(16, 5);
  kreg.stagger = 0.001;
  kreg.topology.kind = net::TopologyKind::kKRegular;
  kreg.topology.degree = 6;
  expect_engines_identical(kreg, "staggered k-regular expander");
}

/// Region pin: engages with a PROPER fast subset (0 < fast_count < n) and
/// a live merged loop (region_events > 0 — the adversary's honest
/// neighbors still broadcast through the engine), bitwise the event engine.
void expect_region_identical(const RunSpec& spec, const char* what) {
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  const RunResult fast = run_engine(spec, EngineMode::kFastpath);
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(event.fastpath_engaged) << what;
  EXPECT_TRUE(fast.fastpath_engaged) << what;
  EXPECT_GT(fast.fastpath_exchanges, 0) << what;
  EXPECT_GT(fast.fastpath_fast_count, 0) << what;
  EXPECT_LT(fast.fastpath_fast_count, spec.params.n) << what;
  EXPECT_GT(fast.fastpath_region_events, 0) << what;
  EXPECT_TRUE(autod.fastpath_engaged) << what;
  EXPECT_EQ(autod.fastpath_exchanges, fast.fastpath_exchanges) << what;
  EXPECT_TRUE(results_identical(event, fast)) << what;
  EXPECT_TRUE(results_identical(event, autod)) << what;
}

TEST(FastpathPin, FaultIsolatingRegions) {
  // Trailing silent faults on a ring of cliques: the tainted region is the
  // last clique plus the bridge neighbors; the rest batches.
  RunSpec silent = base_spec(24, 7);
  silent.topology.kind = net::TopologyKind::kRingOfCliques;
  silent.topology.clique_size = 6;
  silent.fault = FaultKind::kSilent;
  silent.fault_count = 2;
  expect_region_identical(silent, "silent faults, ring of cliques");

  // Two-faced adversaries at random positions of an expander, lying to
  // their honest neighborhoods (positional placement switches the
  // neighbor-scoped attack on).
  RunSpec twofaced = base_spec(24, 7);
  twofaced.topology.kind = net::TopologyKind::kKRegular;
  twofaced.topology.degree = 6;
  twofaced.fault = FaultKind::kTwoFaced;
  twofaced.fault_count = 2;
  twofaced.placement = proc::PlacementKind::kRandom;
  expect_region_identical(twofaced, "two-faced faults, random placement");

  // The adversary ON a region boundary: bridge placement puts it at an
  // inter-clique joint, so its closed neighborhood spans two cliques and
  // the cut between fast set and region crosses the bridge edge itself.
  RunSpec bridge = base_spec(24, 7);
  bridge.topology.kind = net::TopologyKind::kRingOfCliques;
  bridge.topology.clique_size = 6;
  bridge.fault = FaultKind::kTwoFaced;
  bridge.fault_count = 1;
  bridge.placement = proc::PlacementKind::kBridge;
  expect_region_identical(bridge, "two-faced fault on a bridge endpoint");

  // Trailing two-faced faults attack by id range, not by neighborhood:
  // each group face is one multicast whose recipients reach into the fast
  // set, so batched face deliveries cross the merged loop into the fast
  // arenas.  The constant-delay run lands a whole face at one instant.
  for (const DelayKind delay : {DelayKind::kUniform, DelayKind::kFast}) {
    RunSpec trailing = base_spec(24, 7);
    trailing.topology.kind = net::TopologyKind::kRingOfCliques;
    trailing.topology.clique_size = 6;
    trailing.fault = FaultKind::kTwoFaced;
    trailing.fault_count = 2;
    trailing.delay = delay;
    expect_region_identical(trailing, "two-faced faults, trailing id ranges");
  }

  // Spam floods junk mid-window from inside the region; every flood
  // message crosses the merged loop at its exact key.
  RunSpec spam = base_spec(24, 7);
  spam.topology.kind = net::TopologyKind::kRingOfCliques;
  spam.topology.clique_size = 6;
  spam.fault = FaultKind::kSpam;
  spam.fault_count = 1;
  spam.placement = proc::PlacementKind::kRandom;
  expect_region_identical(spam, "spam fault, random placement");

  // A liar is an honest WL instance on a shifted schedule: its region
  // neighbors keep hearing plausible-but-wrong broadcasts through the
  // engine while the far side batches.
  RunSpec liar = base_spec(24, 7);
  liar.topology.kind = net::TopologyKind::kKRegular;
  liar.topology.degree = 6;
  liar.fault = FaultKind::kLiar;
  liar.fault_count = 1;
  expect_region_identical(liar, "liar fault, k-regular");
}

TEST(FastpathRearm, ReengagesAfterTransientBail) {
  // A wide initial spread violates round-0 phase separation (last
  // broadcast + delta + eps >= first update), which is a TRANSIENT bail:
  // the event engine steps through the irregular round, the algorithm
  // converges, and the next clean n-broadcast-timer boundary re-arms the
  // fast path for the remaining rounds.  Still bitwise the event engine.
  // Wide enough that round 0's last broadcast lands after its first
  // update, narrow enough that one event-engine round still converges
  // (beyond beta the A4 precondition is gone and the algorithm is allowed
  // to diverge — that regime bails forever, correctly).
  RunSpec spec = base_spec(13, 4);
  spec.initial_spread = 0.005;
  spec.rounds = 8;
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  const RunResult fast = run_engine(spec, EngineMode::kFastpath);
  EXPECT_TRUE(fast.fastpath_engaged);
  EXPECT_GE(fast.fastpath_rearms, 1);
  EXPECT_GT(fast.fastpath_exchanges, 0);
  EXPECT_TRUE(results_identical(event, fast));

  // The default spread stays within phase separation from round 0 on: the
  // fast path never hands off mid-run, so nothing re-arms.
  const RunResult clean = run_engine(base_spec(13, 4), EngineMode::kFastpath);
  EXPECT_TRUE(clean.fastpath_engaged);
  EXPECT_EQ(clean.fastpath_rearms, 0);
}

// ----------------------------------------------------- fallback triggers ---

TEST(FastpathFallback, FaultsOnTheFullMeshForceTheEventEngine) {
  // On the full mesh every honest process neighbors the adversary: no fast
  // region exists and kAuto must record why.
  RunSpec faulty = base_spec(13, 4);
  faulty.fault = FaultKind::kTwoFaced;
  faulty.fault_count = 2;
  expect_event_fallback(faulty, "two-faced faults, full mesh");
  EXPECT_EQ(run_engine(faulty, EngineMode::kAuto).fastpath_refusal,
            "adversary neighborhood covers the exchange graph");

  RunSpec mixed = base_spec(16, 5);
  mixed.fault_mix = {{FaultKind::kSilent, 1}, {FaultKind::kSpam, 1}};
  expect_event_fallback(mixed, "heterogeneous fault mix, full mesh");
}

TEST(FastpathFallback, StaggerWithFaultsForcesTheEventEngine) {
  // Both widenings at once are out of scope: the staggered kernel assumes
  // a fault-free window and the region replay assumes sigma = 0.
  RunSpec spec = base_spec(24, 7);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  spec.stagger = 0.002;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  expect_event_fallback(spec, "staggered broadcasts with faults");
  EXPECT_EQ(run_engine(spec, EngineMode::kAuto).fastpath_refusal,
            "staggered broadcasts with faults present");
}

TEST(FastpathFallback, CoveringAdversaryForcesTheEventEngine) {
  // A sparse custom graph whose highest id (the trailing fault slot) is a
  // hub adjacent to everyone: the closed neighborhood covers the graph, so
  // the fast path refuses even though the topology is sparse and
  // unstaggered.
  RunSpec spec = base_spec(8, 2);
  spec.topology.kind = net::TopologyKind::kCustom;
  spec.topology.custom.assign(8, {});
  for (std::int32_t id = 0; id < 8; ++id) {
    spec.topology.custom[static_cast<std::size_t>(id)] = {
        (id + 7) % 8, id, (id + 1) % 8, 7};
  }
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 1;
  expect_event_fallback(spec, "hub adversary covers the graph");
  EXPECT_EQ(run_engine(spec, EngineMode::kAuto).fastpath_refusal,
            "adversary neighborhood covers the exchange graph");
}

TEST(FastpathFallback, NicForcesTheEventEngine) {
  RunSpec nic = base_spec(16, 5);
  nic.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/50e-6};
  expect_event_fallback(nic, "NIC ingress model");
}

TEST(FastpathFallback, BoundedHistoryForcesTheEventEngine) {
  // The batched delivery kernel reads clock segments for the whole
  // collection window; a truncating observer could discard them mid-round.
  RunSpec bounded = base_spec(13, 4);
  bounded.observe = true;
  bounded.retain_history = false;
  expect_event_fallback(bounded, "bounded-memory observation");
}

TEST(FastpathFallback, OtherAlgorithmsForceTheEventEngine) {
  for (const Algo algo : {Algo::kLM, Algo::kST, Algo::kMS, Algo::kPlainMean,
                          Algo::kHSSD}) {
    RunSpec spec = base_spec(13, 4);
    spec.algo = algo;
    const RunResult event = run_engine(spec, EngineMode::kEvent);
    const RunResult autod = run_engine(spec, EngineMode::kAuto);
    EXPECT_FALSE(autod.fastpath_engaged) << "algo " << int(algo);
    EXPECT_TRUE(results_identical(event, autod)) << "algo " << int(algo);
    EXPECT_THROW((void)run_engine(spec, EngineMode::kFastpath),
                 std::invalid_argument)
        << "algo " << int(algo);
  }
}

// --------------------------------------------------- sharded kernels ---
// Every pin above runs below core::kFastpathShardThreshold deliveries per
// exchange, so the fast path's per-exchange kernels run serially there.
// These specs cross it (n = 256, 300 and 512 on the mesh, n = 4096 on the
// deg-16 graph), so the delay rows, the arrival kernels and the primed
// reductions run on every hardware thread — and must still be bitwise the
// event engine.

RunSpec sharded_spec(std::int32_t n) {
  RunSpec spec = base_spec(n, (n - 1) / 3);
  spec.rounds = 4;
  return spec;
}

RunSpec sharded_kregular_spec() {
  RunSpec spec = sharded_spec(4096);
  spec.topology.kind = net::TopologyKind::kKRegular;
  spec.topology.degree = 16;
  return spec;
}

void expect_sharded_identical(const RunSpec& spec, const char* what) {
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  const RunResult fast = run_engine(spec, EngineMode::kFastpath);
  EXPECT_TRUE(fast.fastpath_engaged) << what;
  EXPECT_GT(fast.fastpath_exchanges, 0) << what;
  EXPECT_EQ(fast.fastpath_threads, util::hardware_threads()) << what;
  EXPECT_TRUE(results_identical(event, fast)) << what;
}

TEST(FastpathParallel, PlainMidpoint) {
  expect_sharded_identical(sharded_spec(256), "plain WL, n = 256");
  expect_sharded_identical(sharded_spec(512), "plain WL, n = 512");
  // Slices of unequal length and a partial 64-receiver block.
  expect_sharded_identical(sharded_spec(300), "plain WL, n = 300");
}

TEST(FastpathParallel, ReducedMean) {
  RunSpec spec = sharded_spec(256);
  spec.averaging = core::Averaging::kReducedMean;
  expect_sharded_identical(spec, "reduced-mean averaging, n = 256");
}

TEST(FastpathParallel, Staggered) {
  RunSpec spec = sharded_spec(256);
  spec.stagger = 1e-4;
  expect_sharded_identical(spec, "staggered full mesh, n = 256");
}

TEST(FastpathParallel, DriftBreakpointInsideTheWindow) {
  // Every clock's drift segments start at real time 0, so a period of
  // 10.012 s puts one breakpoint for all of them inside the second
  // exchange's collection window (deliveries land ~10.011-10.013 s):
  // both kernels take their per-point now() fallback there.
  RunSpec mesh = sharded_spec(256);
  mesh.drift = DriftKind::kPiecewise;
  mesh.drift_period = 10.012;
  expect_sharded_identical(mesh, "breakpoint in window, mesh");
  RunSpec sparse = sharded_kregular_spec();
  sparse.drift = DriftKind::kPiecewise;
  sparse.drift_period = 10.012;
  expect_sharded_identical(sparse, "breakpoint in window, deg-16 graph");
}

TEST(FastpathParallel, DelayModels) {
  for (const DelayKind delay : {DelayKind::kExpTrunc, DelayKind::kPerLink}) {
    RunSpec spec = sharded_spec(256);
    spec.delay = delay;
    expect_sharded_identical(spec, "delay model, n = 256");
  }
}

TEST(FastpathParallel, SparseGraphRunsTheGenericKernel) {
  expect_sharded_identical(sharded_kregular_spec(),
                           "fault-free deg-16 graph, n = 4096");
}

TEST(FastpathParallel, SweepWorkersStaySerial) {
  // Inside a ParallelRunner trial the kernels run serially (the sweep owns
  // the cores) and produce exactly what the sharded kernels produce.
  RunSpec spec = sharded_spec(256);
  spec.engine = EngineMode::kFastpath;
  const std::vector<RunSpec> specs = seed_sweep(spec, 31, 2);
  const std::vector<RunResult> swept = ParallelRunner(2).run_adaptive(specs);
  ASSERT_EQ(swept.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult direct = run(specs[i]);
    EXPECT_EQ(direct.fastpath_threads, util::hardware_threads()) << i;
    EXPECT_EQ(swept[i].fastpath_threads, 1) << i;
    EXPECT_TRUE(swept[i].fastpath_engaged) << i;
    EXPECT_TRUE(results_identical(direct, swept[i])) << i;
  }
}

}  // namespace
}  // namespace wlsync::analysis
