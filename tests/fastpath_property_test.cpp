// Randomized property pin for the widened fast path (ISSUE 8): for ANY
// spec drawn from the supported axes — topology, delay model, drift
// regime, stagger, fault roster/placement, initial spread — kAuto must be
// results_identical to the pure event engine, whether it engaged the fast
// path, bailed mid-run and re-armed, fell back to a fault-isolating
// region, or refused outright.  The draw is seeded, so every trial is
// reproducible; coverage tallies assert the distribution actually
// exercises the interesting dispatch outcomes (plain engagement,
// staggered engagement, region engagement, mid-run re-arm, refusal)
// rather than sampling around them.  A second kAuto run of each trial
// pins determinism of the dispatch itself: identical engagement,
// exchange and re-arm counts, not just identical physics.  The exact-
// count pins at the bottom freeze the accounting for four canonical
// specs so a dispatcher change that silently shifts WHERE the fast path
// hands off — while staying bitwise-correct — still trips a test.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "analysis/parallel_runner.h"

namespace wlsync::analysis {
namespace {

RunResult run_engine(RunSpec spec, EngineMode engine) {
  spec.engine = engine;
  return run(spec);
}

/// Failure breadcrumb: enough of the drawn spec to reconstruct the trial.
std::string describe(const RunSpec& spec, int trial) {
  std::ostringstream out;
  out << "trial " << trial << ": n=" << spec.params.n
      << " topo=" << net::topology_name(spec.topology.kind)
      << " delay=" << static_cast<int>(spec.delay)
      << " drift=" << static_cast<int>(spec.drift)
      << " stagger=" << spec.stagger
      << " fault=" << static_cast<int>(spec.fault) << "x" << spec.fault_count
      << " placement=" << static_cast<int>(spec.placement)
      << " spread=" << spec.initial_spread << " seed=" << spec.seed;
  return out.str();
}

/// One spec drawn from the axes the dispatcher routes on.  Faults only
/// land on sparse unstaggered topologies (the eligible region); the full
/// mesh keeps a fault arm anyway so refusals stay in the sample.
RunSpec draw_spec(std::mt19937& rng) {
  auto pick = [&rng](std::int32_t lo, std::int32_t hi) {
    return std::uniform_int_distribution<std::int32_t>(lo, hi)(rng);
  };

  RunSpec spec;
  const std::int32_t n = std::array<std::int32_t, 4>{10, 13, 16, 24}[
      static_cast<std::size_t>(pick(0, 3))];
  spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = pick(5, 8);
  spec.seed = static_cast<std::uint64_t>(pick(1, 4000));

  switch (pick(0, 2)) {
    case 0:
      break;  // full mesh
    case 1:
      spec.topology.kind = net::TopologyKind::kKRegular;
      spec.topology.degree = 6;
      break;
    default:
      spec.topology.kind = net::TopologyKind::kRingOfCliques;
      spec.topology.clique_size = 6;
      break;
  }

  const DelayKind delays[] = {DelayKind::kUniform, DelayKind::kFast,
                              DelayKind::kSlow, DelayKind::kSplit,
                              DelayKind::kPerLink};
  spec.delay = delays[pick(0, 4)];
  const DriftKind drifts[] = {DriftKind::kNone, DriftKind::kExtremal,
                              DriftKind::kPiecewise, DriftKind::kRandomWalk};
  spec.drift = drifts[pick(0, 3)];

  // One widening per draw: stagger, faults, or neither (never both — the
  // dispatcher refuses that combination and the fallback arm covers it).
  const std::int32_t widening = pick(0, 3);
  if (widening == 1) {
    spec.stagger = std::array<double, 2>{0.0005, 0.002}[
        static_cast<std::size_t>(pick(0, 1))];
  } else if (widening == 2) {
    const FaultKind kinds[] = {FaultKind::kSilent, FaultKind::kTwoFaced,
                               FaultKind::kSpam, FaultKind::kLiar};
    spec.fault = kinds[pick(0, 3)];
    spec.fault_count = pick(1, 2);
    const proc::PlacementKind placements[] = {proc::PlacementKind::kTrailing,
                                              proc::PlacementKind::kRandom,
                                              proc::PlacementKind::kBridge};
    spec.placement =
        spec.topology.kind == net::TopologyKind::kRingOfCliques
            ? placements[pick(0, 2)]
            : placements[pick(0, 1)];
  }

  // A wide initial spread violates round-0 phase separation, forcing a
  // transient bail and (once the event engine converges the round) a
  // re-arm at the next clean boundary.
  if (pick(0, 3) == 0) spec.initial_spread = 0.005;
  return spec;
}

TEST(FastpathProperty, RandomizedSpecsMatchEventEngineBitwise) {
  std::mt19937 rng(20260808u);
  int engaged = 0;
  int engaged_staggered = 0;
  int engaged_region = 0;
  int rearmed = 0;
  int refused = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const RunSpec spec = draw_spec(rng);
    const std::string what = describe(spec, trial);

    const RunResult event = run_engine(spec, EngineMode::kEvent);
    const RunResult autod = run_engine(spec, EngineMode::kAuto);
    EXPECT_FALSE(event.fastpath_engaged) << what;
    EXPECT_TRUE(results_identical(event, autod)) << what;

    // Dispatch determinism: the same spec takes the same path with the
    // same accounting, not merely the same physics.
    const RunResult again = run_engine(spec, EngineMode::kAuto);
    EXPECT_EQ(autod.fastpath_engaged, again.fastpath_engaged) << what;
    EXPECT_EQ(autod.fastpath_exchanges, again.fastpath_exchanges) << what;
    EXPECT_EQ(autod.fastpath_rearms, again.fastpath_rearms) << what;
    EXPECT_EQ(autod.fastpath_fast_count, again.fastpath_fast_count) << what;
    EXPECT_EQ(autod.fastpath_region_events, again.fastpath_region_events)
        << what;
    EXPECT_EQ(autod.fastpath_refusal, again.fastpath_refusal) << what;
    EXPECT_TRUE(results_identical(autod, again)) << what;

    if (autod.fastpath_engaged) {
      ++engaged;
      if (spec.stagger > 0.0) ++engaged_staggered;
      if (autod.fastpath_region_events > 0) ++engaged_region;
      if (autod.fastpath_rearms > 0) ++rearmed;
      // Forcing the engaged path explicitly must not change anything.
      const RunResult forced = run_engine(spec, EngineMode::kFastpath);
      EXPECT_TRUE(results_identical(event, forced)) << what;
      EXPECT_EQ(forced.fastpath_exchanges, autod.fastpath_exchanges) << what;
    } else if (!autod.fastpath_refusal.empty()) {
      ++refused;
    }
  }
  // The sample must hit every dispatch outcome the widened fast path owns;
  // a draw change that starves one of these arms weakens the whole pin.
  EXPECT_GE(engaged, 10);
  EXPECT_GE(engaged_staggered, 2);
  EXPECT_GE(engaged_region, 2);
  EXPECT_GE(rearmed, 1);
  EXPECT_GE(refused, 2);
}

// ------------------------------------------------- exact accounting pins ---
//
// Four canonical specs with their dispatch accounting frozen: exchanges
// advanced past the queue, re-arms after transient bails, fast-set size
// and merged-loop events for a region run.  These numbers are functions
// of the dispatcher's hand-off policy alone — a change that moves them
// while staying bitwise-correct (e.g. bailing one round earlier) must be
// a conscious edit here, not an invisible drift.

RunSpec pinned_base(std::int32_t n, std::int32_t f) {
  RunSpec spec;
  spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 11;
  return spec;
}

TEST(FastpathProperty, ExactCountsPlainMesh) {
  // Clean full mesh: engages at the START stratum and never hands off —
  // every exchange boundary the horizon admits batches (the run's 6
  // measured rounds plus the horizon's trailing boundaries), zero re-arms.
  const RunResult r = run_engine(pinned_base(13, 4), EngineMode::kFastpath);
  EXPECT_TRUE(r.fastpath_engaged);
  EXPECT_EQ(r.fastpath_exchanges, 8);
  EXPECT_EQ(r.fastpath_rearms, 0);
  EXPECT_EQ(r.fastpath_fast_count, 13);
  EXPECT_EQ(r.fastpath_region_events, 0);
}

TEST(FastpathProperty, ExactCountsWideSpreadRearm) {
  // 5 ms initial spread: round 0 violates phase separation, the event
  // engine steps it, and the fast path re-arms exactly once for the rest.
  RunSpec spec = pinned_base(13, 4);
  spec.initial_spread = 0.005;
  spec.rounds = 8;
  const RunResult r = run_engine(spec, EngineMode::kFastpath);
  EXPECT_TRUE(r.fastpath_engaged);
  EXPECT_EQ(r.fastpath_rearms, 1);
  EXPECT_EQ(r.fastpath_exchanges, 9);
}

TEST(FastpathProperty, ExactCountsStaggered) {
  // Staggered mesh: the 2n-1 steady boundary batches the same exchange
  // count as the plain run — staggering moves instants, not hand-offs.
  RunSpec spec = pinned_base(10, 3);
  spec.stagger = 0.002;
  const RunResult r = run_engine(spec, EngineMode::kFastpath);
  EXPECT_TRUE(r.fastpath_engaged);
  EXPECT_EQ(r.fastpath_exchanges, 8);
  EXPECT_EQ(r.fastpath_rearms, 0);
}

TEST(FastpathProperty, ExactCountsRegion) {
  // Two trailing silent faults on a ring of cliques: the fast set is the
  // 17 honest processes outside the adversaries' closed neighborhood.
  // Region deliveries land in fast arenas as stale previous-window slots,
  // but the overlap guard's queue scan proves every such slot is
  // overwritten before any reduction reads it, so the run batches every
  // exchange with zero re-arms — the same shape as the plain mesh, plus
  // 326 region events replayed through the engine at their exact keys.
  // The frozen accounting a hand-off-policy or guard change would move.
  RunSpec spec = pinned_base(24, 7);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 2;
  const RunResult r = run_engine(spec, EngineMode::kFastpath);
  EXPECT_TRUE(r.fastpath_engaged);
  EXPECT_EQ(r.fastpath_exchanges, 8);
  EXPECT_EQ(r.fastpath_rearms, 0);
  EXPECT_EQ(r.fastpath_fast_count, 17);
  EXPECT_EQ(r.fastpath_region_events, 326);
}

}  // namespace
}  // namespace wlsync::analysis
