// One table of engine refusals, pinned end to end through Experiment::run.
//
// The event engine, the round fast path (core/fastpath.h) and conservative
// PDES (engine/pdes.h) are pinned bit-identical, so engine choice is a pure
// performance decision.  Each row names one spec the fast path or PDES must
// refuse and asserts, verbatim:
//
//   * what engine = kAuto records in RunResult::fastpath_refusal and
//     RunResult::pdes_refusal (empty = that engine ran or was never
//     consulted), with the physics still results_identical to kEvent;
//   * the std::invalid_argument text of engine = kFastpath / kPdes when
//     that engine refuses the spec.
//
// The last row is a fault_mix whose only entry has count 0: no faulty
// process is registered, so the run is fault-free and kAuto must engage
// the fast path.
//
// kAuto drives PDES worker threads here, so CI also runs this binary under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "sim/trace.h"

namespace wlsync::analysis {
namespace {

/// A sink that asks for every per-message callback and ignores them.
class MessageSink final : public sim::TraceSink {};

struct Row {
  const char* name;
  RunSpec spec;
  /// Attach a MessageSink through Experiment::simulator() before run().
  bool message_sink = false;
  const char* fastpath_refusal = "";
  const char* pdes_refusal = "";
};

constexpr const char* kAutoTuneDeclined =
    "auto-tune declined: n=16 leaves lanes thinner than 64 processes at k=2";
constexpr const char* kObserverRefusal =
    "streaming observation (single-threaded API)";
constexpr const char* kDynamicsRefusal =
    "dynamic-topology schedule present (net/dynamics.h)";
constexpr const char* kMeshRefusal =
    "adversary neighborhood covers the exchange graph";
constexpr const char* kNicRefusal = "Section 9.3 NIC ingress model engaged";

RunSpec base_spec() {
  RunSpec spec;
  spec.params = core::make_params(16, 5, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 4;
  spec.seed = 7;
  return spec;
}

std::vector<Row> refusal_table() {
  std::vector<Row> rows;
  const auto add = [&rows](const char* name, auto&& edit,
                           const char* fastpath, const char* pdes,
                           bool message_sink = false) {
    RunSpec spec = base_spec();
    edit(spec);
    rows.push_back({name, std::move(spec), message_sink, fastpath, pdes});
  };
  add("LM fault-free", [](RunSpec& s) {
        s.algo = Algo::kLM;
        s.pdes_workers = 2;
      },
      "algo is not Welch-Lynch", "");
  add("faults on the mesh", [](RunSpec& s) {
        s.fault = FaultKind::kTwoFaced;
        s.fault_count = 5;
        s.pdes_workers = 2;
      },
      kMeshRefusal, "");
  add("stagger with faults on a k-regular graph", [](RunSpec& s) {
        s.topology.kind = net::TopologyKind::kKRegular;
        s.topology.degree = 4;
        s.stagger = 0.002;
        s.fault = FaultKind::kSilent;
        s.fault_count = 2;
        s.pdes_workers = 2;
      },
      "staggered broadcasts with faults present", "");
  add("NIC", [](RunSpec& s) {
        s.nic = sim::NicConfig{/*capacity=*/0, /*service_time=*/50e-6};
        s.pdes_workers = 2;
      },
      kNicRefusal, "");
  // A bounded run streams its measurement through an observer, which both
  // accelerated engines refuse by the one shared rule.
  add("retain_history = false", [](RunSpec& s) { s.retain_history = false; },
      kObserverRefusal, kObserverRefusal);
  add("dynamics", [](RunSpec& s) { s.dynamics.fail_link(15.0, 0, 1); },
      kDynamicsRefusal, kDynamicsRefusal);
  add("auto-tune declining at n = 16", [](RunSpec& s) {
        s.nic = sim::NicConfig{/*capacity=*/0, /*service_time=*/50e-6};
      },
      kNicRefusal, kAutoTuneDeclined);
  add("per-message trace sink", [](RunSpec&) {},
      "a trace sink consumes per-message events", kAutoTuneDeclined,
      /*message_sink=*/true);
  add("fault_mix with a zero count on the mesh", [](RunSpec& s) {
        s.fault_mix = {{FaultKind::kSilent, 0}};
      },
      "", "");
  return rows;
}

RunResult run_row(const Row& row, EngineMode engine) {
  RunSpec spec = row.spec;
  spec.engine = engine;
  Experiment experiment(spec);
  MessageSink sink;
  if (row.message_sink) experiment.simulator().add_trace_sink(&sink);
  return experiment.run();
}

std::string forced_refusal(EngineMode engine, const Row& row) {
  try {
    (void)run_row(row, engine);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EngineSelection, RefusalTable) {
  for (const Row& row : refusal_table()) {
    SCOPED_TRACE(row.name);
    const RunResult event = run_row(row, EngineMode::kEvent);
    const RunResult autod = run_row(row, EngineMode::kAuto);
    EXPECT_EQ(autod.fastpath_refusal, row.fastpath_refusal);
    EXPECT_EQ(autod.pdes_refusal, row.pdes_refusal);
    EXPECT_TRUE(results_identical(event, autod));

    const bool fastpath_refused = *row.fastpath_refusal != '\0';
    EXPECT_EQ(autod.fastpath_engaged, !fastpath_refused);
    if (fastpath_refused) {
      EXPECT_EQ(forced_refusal(EngineMode::kFastpath, row),
                std::string("RunSpec: engine = kFastpath but the spec is "
                            "ineligible: ") +
                    row.fastpath_refusal);
      // Refused by the fast path and not by PDES: PDES ran.
      EXPECT_EQ(autod.pdes_epochs > 0, *row.pdes_refusal == '\0');
    }
    if (*row.pdes_refusal != '\0') {
      EXPECT_EQ(forced_refusal(EngineMode::kPdes, row),
                std::string("RunSpec: engine = kPdes but the spec is "
                            "ineligible: ") +
                    row.pdes_refusal);
    }
  }
}

}  // namespace
}  // namespace wlsync::analysis
