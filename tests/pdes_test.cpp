// Bit-identity pin for the conservative PDES engine (engine/pdes.h): every
// spec run with EngineMode::kPdes must produce results_identical output —
// bitwise-equal skews, CORR-derived series, message counts, per-round
// traces — to the pure serial event engine, for EVERY worker count.  The
// partition only decides which lane executes an event and which messages
// ride channels; per-sender RNG order, seq allocation, and delivery times
// are preserved exactly, so the sharded execution is a reordering of the
// serial one that no measured quantity can detect.  Swept here across
// topologies, delay models (each with a different lookahead floor), fault
// mixes with adversaries placed ON the cut joints, NIC ingress, and
// worker counts 1 / 2 / 8.  The second half pins the dispatcher: kAuto
// prefers the fast path, falls back to PDES with an explicit worker count
// (pdes_workers >= 2) or the auto-tuner's pick (pdes_workers <= 0, the
// default), and kPdes refuses ineligible specs loudly.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/parallel_runner.h"
#include "engine/pdes.h"
#include "util/parallel.h"

namespace wlsync::analysis {
namespace {

RunResult run_engine(RunSpec spec, EngineMode engine,
                     std::int32_t workers = 0) {
  spec.engine = engine;
  spec.pdes_workers = workers;
  return run(spec);
}

/// The central pin: for workers in {1, 2, 8} the PDES engine runs, makes
/// epoch progress, and the measured physics are bitwise those of the
/// serial event engine.
void expect_pdes_identical(const RunSpec& spec, const char* what) {
  const RunResult event = run_engine(spec, EngineMode::kEvent);
  EXPECT_EQ(event.pdes_epochs, 0) << what;
  for (const std::int32_t workers : {1, 2, 8}) {
    const RunResult pdes = run_engine(spec, EngineMode::kPdes, workers);
    EXPECT_GE(pdes.pdes_epochs, 1) << what << ", workers " << workers;
    EXPECT_TRUE(results_identical(event, pdes))
        << what << ", workers " << workers;
  }
}

RunSpec base_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec;
  spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 11;
  return spec;
}

RunSpec cliques_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec = base_spec(n, f);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  return spec;
}

/// Keeps the fast path out of kAuto's reach (region mode included) while
/// leaving the spec PDES-eligible: an unbounded NIC never drops, and the
/// sharded engine runs the ingress model like any other event.
constexpr const char* kNicRefusal = "Section 9.3 NIC ingress model engaged";
void block_fastpath(RunSpec& spec) {
  spec.nic = sim::NicConfig{/*capacity=*/0, /*service_time=*/50e-6};
}

RunSpec expander_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec = base_spec(n, f);
  spec.topology.kind = net::TopologyKind::kKRegular;
  spec.topology.degree = 8;
  return spec;
}

// ------------------------------------------------------- identity pins ---

TEST(PdesPin, Topologies) {
  expect_pdes_identical(base_spec(16, 5), "WL, full mesh");
  expect_pdes_identical(cliques_spec(24, 7), "WL on ring of cliques");
  expect_pdes_identical(expander_spec(24, 7), "WL on k-regular expander");
}

TEST(PdesPin, Startup) {
  // Section 9.2 start-up from arbitrary clock state: a different process
  // class with its own READY exchange, built like every other algorithm.
  RunSpec startup = base_spec(7, 2);
  startup.algo = Algo::kStartup;
  startup.initial_clock_spread = 1.0;
  expect_pdes_identical(startup, "start-up");
  startup.fault = FaultKind::kSilent;
  startup.fault_count = 2;
  expect_pdes_identical(startup, "start-up, 2 silent faults");
}

TEST(PdesPin, DelayModels) {
  // Each model contributes a different conservative lookahead floor
  // (delta - eps for the stochastic ones, the exact value for the extremal
  // ones, the per-recipient minimum for kSplit); the executions must be
  // bit-identical under all of them.
  for (const DelayKind delay : {DelayKind::kUniform, DelayKind::kFast,
                                DelayKind::kSlow, DelayKind::kSplit,
                                DelayKind::kPerLink, DelayKind::kExpTrunc}) {
    RunSpec spec = cliques_spec(24, 7);
    spec.delay = delay;
    expect_pdes_identical(spec, "delay model sweep");
  }
}

TEST(PdesPin, FaultMixes) {
  // Faulty senders ignore the topology (a two-faced adversary's streams
  // reach every victim), so the lookahead drops to the global delay floor
  // — still positive, still conservative.
  RunSpec faulty = cliques_spec(24, 7);
  faulty.fault = FaultKind::kTwoFaced;
  faulty.fault_count = 2;
  expect_pdes_identical(faulty, "two-faced faults");

  RunSpec mixed = expander_spec(24, 7);
  mixed.fault_mix = {{FaultKind::kSilent, 1},
                     {FaultKind::kSpam, 1},
                     {FaultKind::kLiar, 1}};
  expect_pdes_identical(mixed, "heterogeneous fault mix");
}

TEST(PdesPin, AdversaryOnTheCutJoints) {
  // Articulation/bridge placement puts the adversary exactly where the
  // partitioner cuts (the inter-clique joints), so its per-neighbor faces
  // cross shard boundaries every round — the worst case for channel
  // ordering.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.placement = proc::PlacementKind::kArticulation;
  expect_pdes_identical(spec, "adversary on the cut joints");
}

TEST(PdesPin, NicIngress) {
  // Store-and-forward NIC arrivals ride the channels as kNicArrive events;
  // per-port service queues are lane-local state and never cross a cut.
  RunSpec nic = cliques_spec(24, 7);
  nic.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/50e-6};
  expect_pdes_identical(nic, "NIC ingress model");

  RunSpec nic_faulty = nic;
  nic_faulty.fault = FaultKind::kSpam;
  nic_faulty.fault_count = 2;
  expect_pdes_identical(nic_faulty, "NIC ingress + spam overflow");
}

TEST(PdesPin, DriftAndVariants) {
  RunSpec drift = expander_spec(24, 7);
  drift.drift = DriftKind::kRandomWalk;
  expect_pdes_identical(drift, "random-walk drift");

  RunSpec amortized = cliques_spec(24, 7);
  amortized.amortize = 1.5;
  amortized.averaging = core::Averaging::kReducedMean;
  expect_pdes_identical(amortized, "amortized reduced-mean");
}

TEST(PdesPin, MeasurementKnobs) {
  // Gradient measurement reads retained clock histories after the run;
  // per-lane RoundTraces fold back into the experiment trace, so the
  // per-round spread/skew series match bitwise too.
  RunSpec gradient = expander_spec(24, 7);
  gradient.measure_gradient = true;
  expect_pdes_identical(gradient, "gradient measurement");
}

TEST(PdesPin, DeterministicUnderParallelRunner) {
  // PDES trials inside the trial-parallel runner: worker threads nest, and
  // every (spec, workers) cell stays bit-identical whatever the pool size.
  RunSpec base = cliques_spec(24, 7);
  base.engine = EngineMode::kPdes;
  base.pdes_workers = 4;
  const std::vector<RunSpec> specs = seed_sweep(base, 700, 4);
  const std::vector<RunResult> serial = ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = ParallelRunner(4).run_adaptive(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], sharded[i])) << "trial " << i;
    EXPECT_GE(serial[i].pdes_epochs, 1) << "trial " << i;
  }
}

// --------------------------------------------------- dispatch & telemetry ---

TEST(PdesDispatch, TelemetryCopiesTheSimulatorCounters) {
  // RunTelemetry's engine-pressure counters are the simulator's own, read
  // once after the engines finish: on a PDES run the lanes have already
  // folded their counters back into the serial lane.
  for (const std::int32_t workers : {0, 4}) {
    RunSpec spec = cliques_spec(24, 7);
    spec.engine = workers == 0 ? EngineMode::kEvent : EngineMode::kPdes;
    spec.pdes_workers = workers;
    Experiment experiment(spec);
    const RunResult result = experiment.run();
    const sim::Simulator& sim = experiment.simulator();
    EXPECT_EQ(result.pdes_workers_used, workers);
    EXPECT_GT(result.queue_ops, 0u) << "workers " << workers;
    EXPECT_GT(result.fanout_direct, 0u) << "workers " << workers;
    EXPECT_GT(result.history_bytes, 0u) << "workers " << workers;
    EXPECT_EQ(result.queue_ops, sim.queue_ops()) << "workers " << workers;
    EXPECT_EQ(result.peak_pending, sim.peak_pending()) << "workers " << workers;
    EXPECT_EQ(result.fanout_direct, sim.fanout_direct())
        << "workers " << workers;
    EXPECT_EQ(result.history_bytes, sim.history_bytes())
        << "workers " << workers;
  }
}

TEST(PdesDispatch, AutoPrefersTheFastPath) {
  // A fault-free full-mesh WL spec is fast-path eligible; kAuto must pick
  // the fast path even when the spec also opted into PDES.
  RunSpec spec = base_spec(13, 4);
  const RunResult autod = run_engine(spec, EngineMode::kAuto, /*workers=*/8);
  EXPECT_TRUE(autod.fastpath_engaged);
  EXPECT_EQ(autod.pdes_epochs, 0);
  EXPECT_TRUE(results_identical(run_engine(spec, EngineMode::kEvent), autod));
}

TEST(PdesDispatch, AutoPrefersRegionFastPathOverPdes) {
  // Faults on a sparse topology are fast-path eligible since ISSUE 8 (the
  // fault-isolating region mode); kAuto must pick the fast path ahead of
  // PDES even when the spec also opted into workers.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  const RunResult autod = run_engine(spec, EngineMode::kAuto, /*workers=*/4);
  EXPECT_TRUE(autod.fastpath_engaged);
  EXPECT_EQ(autod.pdes_epochs, 0);
  EXPECT_TRUE(results_identical(run_engine(spec, EngineMode::kEvent), autod));
}

TEST(PdesDispatch, AutoFallsBackToPdes) {
  // The NIC blocks the fast path; with pdes_workers >= 2 kAuto shards,
  // and the refusal reason is recorded instead of evaporating.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  block_fastpath(spec);
  const RunResult autod = run_engine(spec, EngineMode::kAuto, /*workers=*/4);
  EXPECT_FALSE(autod.fastpath_engaged);
  EXPECT_EQ(autod.fastpath_refusal, kNicRefusal);
  EXPECT_GE(autod.pdes_epochs, 1);
  EXPECT_TRUE(results_identical(run_engine(spec, EngineMode::kEvent), autod));
}

TEST(PdesDispatch, AutoTuneDeclinesAndSaysWhy) {
  // pdes_workers = 0 (the default) consults the auto-tuner when the fast
  // path cannot engage.  At n = 24 every candidate shard count leaves
  // lanes far below the 64-process floor, so the run stays serial — and
  // pdes_refusal records the auto-tune verdict instead of evaporating.
  RunSpec spec = cliques_spec(24, 7);
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  block_fastpath(spec);
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(autod.fastpath_engaged);
  EXPECT_EQ(autod.fastpath_refusal, kNicRefusal);
  EXPECT_EQ(autod.pdes_epochs, 0);
  EXPECT_EQ(autod.pdes_workers_used, 0);
  EXPECT_TRUE(autod.pdes_refusal.rfind("auto-tune declined:", 0) == 0)
      << autod.pdes_refusal;

  // pdes_workers = 1 opts kAuto out of the PDES path entirely: serial was
  // requested by name, so there is nothing to refuse.
  const RunResult serial = run_engine(spec, EngineMode::kAuto, /*workers=*/1);
  EXPECT_EQ(serial.pdes_epochs, 0);
  EXPECT_EQ(serial.pdes_refusal, "");
}

TEST(PdesDispatch, AutoTuneEngagesWhereLanesAreThickEnough) {
  // 512 processes in a ring of 6-cliques: candidate k = 8 keeps exactly 64
  // per lane and the cut is a few dozen bridge edges — the auto-tuner's
  // easiest yes, capped at this machine's core count.  Identical physics
  // to the serial reference, workers_used reported.
  RunSpec spec = cliques_spec(512, 64);
  block_fastpath(spec);
  const std::int32_t cores = util::hardware_threads();
  const std::int32_t expected = cores >= 8   ? 8
                                : cores >= 4 ? 4
                                : cores >= 2 ? 2
                                             : 0;
  const RunResult serial = run_engine(spec, EngineMode::kEvent);
  const RunResult autod = run_engine(spec, EngineMode::kAuto);
  EXPECT_FALSE(autod.fastpath_engaged);
  EXPECT_EQ(autod.pdes_workers_used, expected);
  if (expected > 0) {
    EXPECT_EQ(autod.pdes_refusal, "") << autod.pdes_refusal;
    EXPECT_GE(autod.pdes_epochs, 1);
  }
  EXPECT_TRUE(results_identical(serial, autod));
}

TEST(PdesDispatch, AutoTuneIsCappedAtTheCoreCount) {
  // The pick is a function of (topology, seed, cores) alone: on the same
  // 512-node cliques, one core declines and says so, four cores pick 4,
  // and sixteen pick 8 (k = 16 would leave 32-process lanes).  The
  // accepted partition comes back with the pick.  Only from n = 2048·cores
  // on two or more cores may lanes outnumber the cores (up to 4 per core).
  const net::Topology big = net::Topology::ring_of_cliques(4096, 64);
  EXPECT_EQ(engine::choose_pdes_workers(big, 11, 2).partition.k, 8);
  EXPECT_EQ(engine::choose_pdes_workers(big, 11, 4).partition.k, 4);
  EXPECT_EQ(engine::choose_pdes_workers(big, 11, 1).refusal,
            "auto-tune declined: cores=1 cannot host k=2 lanes");
  const net::Topology topo = net::Topology::ring_of_cliques(512, 6);
  const engine::PdesPlan one = engine::choose_pdes_workers(topo, 11, 1);
  EXPECT_EQ(one.refusal, "auto-tune declined: cores=1 cannot host k=2 lanes");
  for (const auto& [cores, pick] : {std::pair{4, 4}, std::pair{16, 8}}) {
    const engine::PdesPlan plan = engine::choose_pdes_workers(topo, 11, cores);
    EXPECT_EQ(plan.refusal, "") << cores << " cores";
    EXPECT_EQ(plan.partition.k, pick) << cores << " cores";
    EXPECT_EQ(plan.partition.n(), 512);
    EXPECT_EQ(engine::choose_pdes_workers(topo, 11, cores).partition.shard_of,
              plan.partition.shard_of);
  }
}

TEST(PdesDispatch, ForcedPdesRefusesIneligibleSpecs) {
  // Default worker count = auto-tune, which declines at n = 24 (lanes
  // thinner than the floor) — and kPdes turns that refusal into a throw.
  EXPECT_THROW((void)run_engine(cliques_spec(24, 7), EngineMode::kPdes),
               std::invalid_argument);

  // A bounded run streams through an observer, a single-threaded API
  // (one observer, one monotone drain cursor) — the sharded engine must
  // refuse it.
  RunSpec bounded = cliques_spec(24, 7);
  bounded.retain_history = false;
  EXPECT_THROW((void)run_engine(bounded, EngineMode::kPdes, /*workers=*/4),
               std::invalid_argument);
}

TEST(PdesTelemetry, EpochsTrackTheLookaheadWindow) {
  // Single shard: no cut edges, infinite lookahead, the whole horizon is
  // one conservative window.
  const RunResult one = run_engine(cliques_spec(24, 7), EngineMode::kPdes,
                                   /*workers=*/1);
  EXPECT_GE(one.pdes_epochs, 1);
  EXPECT_LE(one.pdes_epochs, 2);

  // Sharded: the epoch count scales with horizon / lookahead — many
  // windows, each strictly meaningful progress (stalls bounded by epochs).
  const RunResult eight = run_engine(cliques_spec(24, 7), EngineMode::kPdes,
                                     /*workers=*/8);
  EXPECT_GT(eight.pdes_epochs, one.pdes_epochs);
  EXPECT_GE(eight.pdes_stalls, 0);
  EXPECT_LE(eight.pdes_stalls, eight.pdes_epochs);
}

}  // namespace
}  // namespace wlsync::analysis
