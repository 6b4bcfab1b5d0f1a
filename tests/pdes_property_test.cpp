// Randomized property pins for the PDES engine (engine/pdes.h), the
// adversarial counterpart to tests/pdes_test.cpp's curated matrix: a
// deterministic PRNG sweeps (topology kind x size, delay model, fault mix,
// partition seed, worker count) and every sampled configuration's
// sharded run must run at least one epoch and be results_identical
// (bitwise skews, series, counters, traces) to the serial event engine.
//
// The sweep is seeded constant so failures replay; bumping kConfigs is the
// cheap way to deepen the search locally.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "analysis/parallel_runner.h"
#include "engine/pdes.h"

namespace wlsync::analysis {
namespace {

constexpr int kConfigs = 14;

RunResult run_one(RunSpec spec, EngineMode engine, std::int32_t workers) {
  spec.engine = engine;
  spec.pdes_workers = workers;
  return run(spec);
}

TEST(PdesProperty, RandomizedIdentity) {
  std::mt19937_64 gen(0xF00DF00Du);
  const auto pick = [&gen](std::int32_t lo, std::int32_t hi) {
    return std::uniform_int_distribution<std::int32_t>(lo, hi)(gen);
  };

  for (int config = 0; config < kConfigs; ++config) {
    RunSpec spec;
    const std::int32_t n = 24 + 8 * pick(0, 7);  // 24..80
    const std::int32_t f = pick(0, (n - 1) / 3 < 7 ? (n - 1) / 3 : 7);
    spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
    spec.rounds = pick(3, 5);
    spec.seed = static_cast<std::uint64_t>(pick(1, 1 << 20));

    switch (pick(0, 2)) {
      case 0:
        spec.topology.kind = net::TopologyKind::kFullMesh;
        break;
      case 1:
        spec.topology.kind = net::TopologyKind::kRingOfCliques;
        spec.topology.clique_size = pick(4, 8);
        break;
      default:
        spec.topology.kind = net::TopologyKind::kKRegular;
        spec.topology.degree = 2 * pick(2, 6);  // 4..12
        break;
    }
    switch (pick(0, 3)) {
      case 0: spec.delay = DelayKind::kUniform; break;
      case 1: spec.delay = DelayKind::kSplit; break;
      case 2: spec.delay = DelayKind::kPerLink; break;
      default: spec.delay = DelayKind::kExpTrunc; break;
    }
    if (f > 0 && pick(0, 1) == 1) {
      spec.fault = pick(0, 1) == 0 ? FaultKind::kSilent : FaultKind::kTwoFaced;
      spec.fault_count = pick(1, f);
    }

    const std::int32_t workers = pick(2, 8);
    const std::string what =
        "config " + std::to_string(config) + ": n=" + std::to_string(n) +
        " f=" + std::to_string(f) + " topo=" +
        std::to_string(static_cast<int>(spec.topology.kind)) + " delay=" +
        std::to_string(static_cast<int>(spec.delay)) + " fault=" +
        std::to_string(static_cast<int>(spec.fault)) + "x" +
        std::to_string(spec.fault_count) + " workers=" +
        std::to_string(workers) + " seed=" + std::to_string(spec.seed);

    const RunResult serial = run_one(spec, EngineMode::kEvent, 0);
    const RunResult pdes = run_one(spec, EngineMode::kPdes, workers);

    EXPECT_TRUE(results_identical(serial, pdes)) << what;
    EXPECT_GE(pdes.pdes_epochs, 1) << what;
  }
}

TEST(PdesProperty, AdaptiveCollapsesTheInterRoundGap) {
  // The signature adaptive win: between exchange phases no boundary process
  // has anything pending, so one epoch swallows the whole gap where the
  // static window tiles it in lookahead-sized steps.  Pin a spec where the
  // effect is unambiguous (sparse cut, long quiet periods) and require a
  // strict epoch reduction against the static window's count for it,
  // measured while the static window still existed and frozen here.
  constexpr std::int64_t kStaticWindowEpochs = 16;
  RunSpec spec;
  spec.params = core::make_params(64, 5, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 5;
  spec.seed = 7;
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 8;

  const RunResult adaptive = run_one(spec, EngineMode::kPdes, 4);
  EXPECT_GE(adaptive.pdes_epochs, 1);
  EXPECT_LT(adaptive.pdes_epochs, kStaticWindowEpochs)
      << "adaptive=" << adaptive.pdes_epochs;
}

}  // namespace
}  // namespace wlsync::analysis
