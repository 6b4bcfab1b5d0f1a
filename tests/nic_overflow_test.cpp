// The scaled NIC/datagram-overflow model (Section 9.3 at n >= 16):
// deterministic drop traces on hand-built scenarios, the unbounded-queue
// bit-identity pin, drop-policy semantics, per-process accounting, and a
// mixed-faults run under overflow.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "analysis/parallel_runner.h"
#include "clock/drift.h"
#include "clock/physical_clock.h"
#include "proc/process.h"
#include "sim/simulator.h"

namespace wlsync::analysis {
namespace {

/// All broadcasts land on every receiver at one instant: zero start spread,
/// driftless clocks, constant (all-slow) delays.  Every NIC number below is
/// an exact consequence.
RunSpec clustered_spec(std::int32_t n, std::size_t capacity) {
  RunSpec spec;
  spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.delay = DelayKind::kSlow;
  spec.drift = DriftKind::kNone;
  spec.initial_spread = 0.0;
  spec.rounds = 3;
  spec.seed = 5;
  spec.nic = sim::NicConfig{capacity, /*service_time=*/50e-6};
  return spec;
}

TEST(NicOverflow, DeterministicDropTraceOnClusteredMesh) {
  // Round 1: all 16 processes broadcast at the same real instant; each
  // receiver's NIC sees a burst of exactly 16 datagrams and, at capacity 4,
  // drops exactly 12 of them — per process, not just in aggregate.
  const std::int32_t n = 16;
  Experiment experiment(clustered_spec(n, 4));
  sim::Simulator& sim = experiment.simulator();
  sim.run_until(0.1);  // well past the delta + eps delivery instant
  for (std::int32_t id = 0; id < n; ++id) {
    const sim::NicStats& stats = sim.nic_stats(id);
    EXPECT_EQ(stats.arrivals, 16u) << "process " << id;
    EXPECT_EQ(stats.dropped, 12u) << "process " << id;
    EXPECT_EQ(stats.max_burst, 16u) << "process " << id;
    EXPECT_EQ(stats.peak_queue, 4u) << "process " << id;
  }
  EXPECT_EQ(sim.nic_dropped(), 16u * 12u);
}

TEST(NicOverflow, SummaryAggregatesAndConservation) {
  const RunResult result = run(clustered_spec(16, 4));
  EXPECT_GT(result.nic.dropped, 0u);
  EXPECT_EQ(result.nic.dropped, result.nic_dropped);  // legacy counter agrees
  EXPECT_EQ(result.nic.max_burst, 16u);
  EXPECT_EQ(result.nic.peak_queue, 4u);
  // Conservation: every arrival is served, dropped, or still queued (the
  // residual is bounded by total queue capacity).
  ASSERT_GE(result.nic.arrivals, result.nic.served + result.nic.dropped);
  EXPECT_LE(result.nic.arrivals - result.nic.served - result.nic.dropped,
            16u * 4u);
  EXPECT_NEAR(result.nic.drop_rate(),
              static_cast<double>(result.nic.dropped) /
                  static_cast<double>(result.nic.arrivals),
              1e-15);
}

TEST(NicOverflow, UnboundedQueueNeverDrops) {
  const RunResult result = run(clustered_spec(16, 0));
  EXPECT_EQ(result.nic.dropped, 0u);
  EXPECT_EQ(result.nic.max_burst, 16u);   // bursts still observed
  EXPECT_GE(result.nic.peak_queue, 16u);  // the whole burst queues
  EXPECT_EQ(result.nic.arrivals, result.nic.served);
}

TEST(NicOverflow, UnboundedQueueBitIdenticalToHugeCapacity) {
  // capacity = 0 (unbounded) is semantically "a queue that never
  // overflows": pinned bitwise against a finite queue too large to drop.
  RunSpec unbounded = clustered_spec(16, 0);
  RunSpec huge = clustered_spec(16, 1u << 20);
  const RunResult a = run(unbounded);
  const RunResult b = run(huge);
  EXPECT_TRUE(results_identical(a, b));
}

// ------------------------------------------------------------------------
// Drop-policy semantics on a hand-built trace: four senders fire one
// datagram each at the same instant into a capacity-2 NIC.  kDropOldest
// (Section 9.3's "old ones are overwritten") delivers the LAST two;
// kDropNewest delivers the FIRST two.

class OneShotSender final : public proc::Process {
 public:
  explicit OneShotSender(std::int32_t to) : to_(to) {}
  void on_start(proc::Context& ctx) override { ctx.send(to_, 7, 0.0, 0); }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  std::int32_t to_;
};

class Recorder final : public proc::Process {
 public:
  void on_start(proc::Context&) override {}
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message& m) override {
    senders.push_back(m.from);
  }
  std::vector<std::int32_t> senders;
};

std::vector<std::int32_t> delivered_under(sim::NicDropPolicy policy) {
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.0;  // constant delay: all four datagrams land together
  config.nic = sim::NicConfig{/*capacity=*/2, /*service_time=*/1e-4, policy};
  sim::Simulator sim(config, nullptr);
  auto recorder = std::make_unique<Recorder>();
  Recorder* tape = recorder.get();
  sim.add_process(std::move(recorder),
                  std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0),
                                                       0.0, 1e-5),
                  0.0, false, /*start=*/0.0);
  for (std::int32_t s = 1; s <= 4; ++s) {
    sim.add_process(std::make_unique<OneShotSender>(0),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), 0.0, 1e-5),
                    0.0, false, /*start=*/0.0);
  }
  sim.run_until(1.0);
  EXPECT_EQ(sim.nic_stats(0).dropped, 2u);
  return tape->senders;
}

TEST(NicOverflow, DropOldestKeepsTheFreshestDatagrams) {
  EXPECT_EQ(delivered_under(sim::NicDropPolicy::kDropOldest),
            (std::vector<std::int32_t>{3, 4}));
}

TEST(NicOverflow, DropNewestKeepsTheEarliestDatagrams) {
  EXPECT_EQ(delivered_under(sim::NicDropPolicy::kDropNewest),
            (std::vector<std::int32_t>{1, 2}));
}

// ------------------------------------------------------------------------

// ------------------------------------------------------------------------
// Drop-policy bias: WHICH broadcasts survive a clustered burst is a
// deterministic function of the policy — kDropOldest keeps the burst's
// LAST `capacity` arrivals, kDropNewest its FIRST `capacity`.

/// Records, per receiver, the senders of delivered datagrams in order.
class DeliveryTape final : public sim::TraceSink {
 public:
  void on_receive(std::int32_t pid, const sim::Message& msg,
                  double /*time*/) override {
    if (msg.kind == sim::Kind::kApp) senders_[pid].push_back(msg.from);
  }
  [[nodiscard]] const std::vector<std::int32_t>& senders(std::int32_t pid) {
    return senders_[pid];
  }

 private:
  std::map<std::int32_t, std::vector<std::int32_t>> senders_;
};

std::vector<std::int32_t> first_burst_survivors(sim::NicDropPolicy policy,
                                                std::size_t capacity) {
  RunSpec spec = clustered_spec(16, capacity);
  spec.nic->drop = policy;
  Experiment experiment(spec);
  DeliveryTape tape;
  experiment.simulator().add_trace_sink(&tape);
  experiment.simulator().run_until(0.1);  // past the first clustered burst
  std::vector<std::int32_t> survivors = tape.senders(0);
  if (survivors.size() > capacity) survivors.resize(capacity);
  return survivors;
}

TEST(NicOverflow, DropPolicyDecidesWhichSendersSurviveTheBurst) {
  // The burst arrival order is deterministic (fixed seed, integer event
  // ordering), so each policy keeps an exact sender set: drop-oldest the
  // burst's suffix, drop-newest its prefix.  Capture the order from an
  // unbounded run (whole burst queues, served in arrival order) and pin
  // both policies against it — a sender's survival is purely its position
  // in the burst.
  Experiment reference(clustered_spec(16, 0));
  DeliveryTape tape;
  reference.simulator().add_trace_sink(&tape);
  reference.simulator().run_until(0.1);
  std::vector<std::int32_t> arrival_order = tape.senders(0);
  ASSERT_GE(arrival_order.size(), 16u);
  arrival_order.resize(16);  // the first clustered burst: all 16 broadcasts

  constexpr std::size_t kCapacity = 4;
  const std::vector<std::int32_t> oldest =
      first_burst_survivors(sim::NicDropPolicy::kDropOldest, kCapacity);
  const std::vector<std::int32_t> newest =
      first_burst_survivors(sim::NicDropPolicy::kDropNewest, kCapacity);
  EXPECT_EQ(oldest, std::vector<std::int32_t>(arrival_order.end() - kCapacity,
                                              arrival_order.end()));
  EXPECT_EQ(newest, std::vector<std::int32_t>(
                        arrival_order.begin(),
                        arrival_order.begin() + kCapacity));
  EXPECT_NE(oldest, newest);
}

TEST(NicOverflow, DropPolicyBiasUnderTwoFacedAttack) {
  // Two-faced adversaries + tight queues: which policy survives the attack
  // is a deterministic, measured property.  On the clustered mesh at
  // capacity 4 the adversary strike volume collides with the burst
  // backlog: Section 9.3's overwrite-oldest policy keeps the system
  // convergent while tail drop (kDropNewest) loses agreement outright —
  // the skew delta is ~15 s vs ~2 ms (README "Drop-policy bias").  This is
  // genuine drop-policy physics, not the starved-window artifact: the
  // windows never empty (starved_updates stays 0 under both policies), the
  // adversary faces and surviving honest data simply differ.
  RunSpec spec;
  spec.params = core::make_params(24, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.delay = DelayKind::kSlow;
  spec.rounds = 8;
  spec.seed = 12;
  spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/50e-6};

  spec.nic->drop = sim::NicDropPolicy::kDropOldest;
  const RunResult oldest = run(spec);
  EXPECT_TRUE(results_identical(oldest, run(spec)));
  spec.nic->drop = sim::NicDropPolicy::kDropNewest;
  const RunResult newest = run(spec);
  EXPECT_TRUE(results_identical(newest, run(spec)));

  EXPECT_GT(oldest.nic.dropped, 0u);
  EXPECT_GT(newest.nic.dropped, 0u);
  EXPECT_FALSE(results_identical(oldest, newest));
  EXPECT_EQ(oldest.starved_updates, 0);
  EXPECT_EQ(newest.starved_updates, 0);
  EXPECT_FALSE(oldest.diverged);
  EXPECT_TRUE(newest.diverged);
  EXPECT_GT(newest.gamma_measured, 100.0 * oldest.gamma_measured);
  RecordProperty("skew_delta_newest_minus_oldest",
                 std::to_string(newest.gamma_measured - oldest.gamma_measured));
}

TEST(NicOverflow, StarvedWindowsSkipUpdatesAcrossAlgosAndConfigs) {
  // The starvation guard, pinned across algorithms and NIC configurations:
  // when drops / serialization empty a collection window, the UPDATE is
  // skipped like a missed round — never reduced from sentinel ARR values.
  // Welch-Lynch (both averagings) records the skips in starved_updates;
  // the baselines clamp never-arrived entries internally.  Either way the
  // observable pin is the same: every CORR step stays at adjustment scale
  // (~delta + drift), nothing within orders of magnitude of the ~1e300
  // never-arrived sentinel, and reruns are bit-identical.
  struct AlgoCase {
    Algo algo;
    core::Averaging averaging;
  };
  const AlgoCase algos[] = {
      {Algo::kWelchLynch, core::Averaging::kMidpoint},
      {Algo::kWelchLynch, core::Averaging::kReducedMean},
      {Algo::kLM, core::Averaging::kMidpoint},
      {Algo::kMS, core::Averaging::kMidpoint},
      {Algo::kPlainMean, core::Averaging::kMidpoint},
  };
  const sim::NicConfig nics[] = {
      {/*capacity=*/2, /*service_time=*/50e-6},
      {/*capacity=*/2, /*service_time=*/50e-6, sim::NicDropPolicy::kDropNewest},
      {/*capacity=*/4, /*service_time=*/2e-3},
  };
  for (const AlgoCase& a : algos) {
    for (const sim::NicConfig& nic : nics) {
      RunSpec spec = clustered_spec(16, nic.capacity);
      spec.algo = a.algo;
      spec.averaging = a.averaging;
      spec.rounds = 5;
      spec.nic = nic;
      const RunResult result = run(spec);
      const std::string label = "algo " + std::to_string(int(a.algo)) +
                                " avg " + std::to_string(int(a.averaging)) +
                                " cap " + std::to_string(nic.capacity);
      EXPECT_GT(result.nic.dropped, 0u) << label;
      EXPECT_LT(result.max_abs_adj, 1.0) << label;
      EXPECT_LT(std::abs(result.final_skew), 1e3) << label;
      EXPECT_TRUE(results_identical(result, run(spec))) << label;
      if (a.algo == Algo::kWelchLynch) {
        // Capacity 2 against a 16-wide burst empties every window: the
        // guard must fire rather than let mid() see the sentinels.
        EXPECT_GT(result.starved_updates, 0) << label;
      } else {
        EXPECT_EQ(result.starved_updates, 0) << label;  // WL-only counter
      }
    }
  }
}

TEST(NicOverflow, DropPolicyInvariantUnderJointPlacementOnCliques) {
  // The counterpoint the pin above makes meaningful: with the same
  // two-faced adversaries placed ON the inter-clique joints of a sparse
  // graph, the two policies produce bit-identical physics.  The clustered
  // burst's surviving ARR *values* are the service-slot receipt times,
  // which do not depend on which senders occupy the slots, and the
  // per-victim attack faces land outside the burst backlog — so only the
  // sender labels differ, and Welch-Lynch never reads those.
  RunSpec spec;
  spec.params = core::make_params(24, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 8;
  spec.fault = FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.placement = proc::PlacementKind::kArticulation;
  spec.delay = DelayKind::kSlow;
  spec.rounds = 8;
  spec.seed = 21;
  spec.nic = sim::NicConfig{/*capacity=*/6, /*service_time=*/50e-6};

  spec.nic->drop = sim::NicDropPolicy::kDropOldest;
  const RunResult oldest = run(spec);
  spec.nic->drop = sim::NicDropPolicy::kDropNewest;
  const RunResult newest = run(spec);
  EXPECT_GT(oldest.nic.dropped, 0u);
  EXPECT_FALSE(oldest.diverged);
  EXPECT_TRUE(results_identical(oldest, newest));
}

TEST(NicOverflow, MixedFaultsUnderOverflowStaysMeasurable) {
  // Byzantine mixture + overflowing NICs on a sparse graph: the system may
  // degrade, but the run must complete and the accounting must cohere.
  RunSpec spec;
  spec.params = core::make_params(18, 5, 1e-5, 0.01, 1e-3, 10.0);
  spec.topology.kind = net::TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  spec.fault_mix = {{FaultKind::kSilent, 1},
                    {FaultKind::kSpam, 1},
                    {FaultKind::kTwoFaced, 1}};
  spec.delay = DelayKind::kSlow;
  spec.rounds = 6;
  spec.seed = 3;
  spec.nic = sim::NicConfig{/*capacity=*/5, /*service_time=*/5e-4};
  const RunResult result = run(spec);
  EXPECT_GE(result.completed_rounds, 1);
  EXPECT_GT(result.nic.dropped, 0u);
  EXPECT_GE(result.nic.arrivals, result.nic.served + result.nic.dropped);
  EXPECT_GT(result.nic.worst_dropped, 0u);
  EXPECT_LE(result.nic.worst_dropped, result.nic.dropped);
  // Determinism under overflow + faults: same spec, same trace.
  const RunResult again = run(spec);
  EXPECT_TRUE(results_identical(result, again));
}

TEST(NicOverflow, StreamedTrialsCarryWallTelemetry) {
  // Satellite: per-trial wall-time telemetry surfaces through run_adaptive.
  const std::vector<RunSpec> specs = seed_sweep(clustered_spec(8, 4), 1, 3);
  std::vector<double> streamed;
  const std::vector<RunResult> results = ParallelRunner(2).run_adaptive(
      specs, [&](std::size_t, const RunResult& r) {
        streamed.push_back(r.wall_seconds);
      });
  ASSERT_EQ(streamed.size(), 3u);
  for (const RunResult& r : results) EXPECT_GT(r.wall_seconds, 0.0);
  // Telemetry must not affect the physics comparison.
  RunResult a = results[0];
  RunResult b = results[0];
  b.wall_seconds = a.wall_seconds + 123.0;
  EXPECT_TRUE(results_identical(a, b));
}

}  // namespace
}  // namespace wlsync::analysis
