// Section 9.3: on a datagram network, simultaneous broadcasts overflow
// receive buffers ("when the system behaves well, it is punished");
// staggering the broadcast times restores reliability.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

RunSpec ethernet_spec(double stagger, std::uint64_t seed) {
  RunSpec spec;
  // 10 processes, so 10 near-simultaneous datagrams per receiver per round.
  spec.params = core::make_params(10, 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.stagger = stagger;
  // Small NIC: 4 slots, 1 ms service — a burst of 10 in ~2 eps overflows.
  spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/1e-3};
  spec.rounds = 12;
  spec.seed = seed;
  return spec;
}

TEST(Ethernet, SimultaneousBroadcastsDropDatagrams) {
  const RunResult result = run(ethernet_spec(0.0, 1));
  EXPECT_GT(result.nic_dropped, 0u);
}

TEST(Ethernet, StaggerEliminatesDrops) {
  // sigma = 5 ms spacing >> 1 ms service: queues never build.
  const RunResult result = run(ethernet_spec(0.005, 1));
  EXPECT_EQ(result.nic_dropped, 0u);
  EXPECT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
}

TEST(Ethernet, StaggeredSystemNoWorseThanLossyUnstaggered) {
  const RunResult unstaggered = run(ethernet_spec(0.0, 2));
  const RunResult staggered = run(ethernet_spec(0.005, 2));
  // The staggered run keeps every guarantee; the unstaggered run at minimum
  // loses messages, and its skew cannot be meaningfully better.
  EXPECT_EQ(staggered.nic_dropped, 0u);
  EXPECT_GT(unstaggered.nic_dropped, staggered.nic_dropped);
  EXPECT_LE(staggered.gamma_measured,
            std::max(unstaggered.gamma_measured, staggered.gamma_bound));
}

TEST(Ethernet, GenerousNicNeedsNoStagger) {
  RunSpec spec = ethernet_spec(0.0, 3);
  spec.nic = sim::NicConfig{/*capacity=*/64, /*service_time=*/20e-6};
  const RunResult result = run(spec);
  EXPECT_EQ(result.nic_dropped, 0u);
  EXPECT_FALSE(result.diverged);
}

}  // namespace
}  // namespace wlsync::analysis
