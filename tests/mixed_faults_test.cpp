// Heterogeneous failure mixes: the f-fault budget can be spent on any
// combination of behaviours (A2 places no constraint on *how* the faulty
// processes misbehave).  Theorem 4/16/19 must hold for every mixture.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

struct MixCase {
  std::uint64_t seed;
  std::vector<RunSpec::FaultSpec> mix;
};

class MixedFaults : public ::testing::TestWithParam<MixCase> {};

TEST_P(MixedFaults, AllGuaranteesHold) {
  const MixCase& c = GetParam();
  RunSpec spec;
  std::int32_t f = 0;
  for (const auto& entry : c.mix) f += entry.count;
  spec.params = core::make_params(3 * f + 1, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault_mix = c.mix;
  spec.rounds = 14;
  spec.seed = c.seed;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound * (1 + 1e-9));
  EXPECT_LE(result.max_abs_adj, result.adj_bound * (1 + 1e-9));
  for (double spread : result.begin_spread) {
    EXPECT_LE(spread, spec.params.beta * (1 + 1e-9));
  }
  EXPECT_TRUE(result.validity.holds);
}

std::vector<MixCase> mix_cases() {
  using FS = RunSpec::FaultSpec;
  std::vector<MixCase> cases;
  std::uint64_t seed = 100;
  // f = 2 mixes.
  cases.push_back({seed++, {FS{FaultKind::kSilent, 1}, FS{FaultKind::kTwoFaced, 1}}});
  cases.push_back({seed++, {FS{FaultKind::kSpam, 1}, FS{FaultKind::kTwoFaced, 1}}});
  cases.push_back({seed++, {FS{FaultKind::kLiar, 1}, FS{FaultKind::kSilent, 1}}});
  // f = 3 mixes.
  cases.push_back({seed++,
                   {FS{FaultKind::kSilent, 1}, FS{FaultKind::kSpam, 1},
                    FS{FaultKind::kTwoFaced, 1}}});
  cases.push_back({seed++,
                   {FS{FaultKind::kLiar, 1}, FS{FaultKind::kTwoFaced, 2}}});
  // f = 4, everything at once.
  cases.push_back({seed++,
                   {FS{FaultKind::kSilent, 1}, FS{FaultKind::kSpam, 1},
                    FS{FaultKind::kTwoFaced, 1}, FS{FaultKind::kLiar, 1}}});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Mixes, MixedFaults, ::testing::ValuesIn(mix_cases()));

TEST(MixedFaults, MixOverridesHomogeneousFields) {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = FaultKind::kTwoFaced;  // would be 2 splitters...
  spec.fault_count = 2;
  spec.fault_mix = {RunSpec::FaultSpec{FaultKind::kSilent, 1}};  // ...but mix wins
  spec.rounds = 8;
  spec.seed = 1;
  const RunResult result = run(spec);
  // Only one faulty process: 6 honest remain.
  EXPECT_EQ(result.honest.size(), 6u);
  EXPECT_FALSE(result.diverged);
}

// ------------------------------------------------------- sparse graphs ---
//
// The original suite runs every mix on the full mesh only; these cases put
// mixed faults on the PR 2 sparse exchange graphs, where the honest
// processes clamp their clipping budget to the *local* view
// (f_local = (deg - 1) / 3, welch_lynch.cpp) instead of the global f.  The
// paper's gamma bound assumes the mesh, so the assertions here are the
// sparse-regime contract: every round completes, clocks stay together, and
// nothing diverges.

struct SparseMixCase {
  const char* name;
  std::uint64_t seed;
  net::TopologySpec topology;
  proc::PlacementKind placement;
  std::vector<RunSpec::FaultSpec> mix;
};

class SparseMixedFaults : public ::testing::TestWithParam<SparseMixCase> {};

TEST_P(SparseMixedFaults, StaysTogetherUnderLocalQuorumClamp) {
  const SparseMixCase& c = GetParam();
  RunSpec spec;
  std::int32_t f = 0;
  for (const auto& entry : c.mix) f += entry.count;
  // n = 32 keeps the global A2 ratio comfortable; the binding constraint is
  // the local one — clique size 8 / degree 8 puts deg at 8..9 incl. self,
  // so f_local = (8 - 1) / 3 = 2 and the mixes below stay within it.
  spec.params = core::make_params(32, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.topology = c.topology;
  spec.placement = c.placement;
  spec.fault_mix = c.mix;
  spec.rounds = 10;
  spec.seed = c.seed;
  spec.measure_gradient = true;
  const RunResult result = run(spec);
  ASSERT_FALSE(result.diverged) << c.name;
  EXPECT_GE(result.completed_rounds, spec.rounds) << c.name;
  // Loose sparse-regime envelope: an order of magnitude over the mesh
  // bound, far below divergence.  (Measured values sit well inside it.)
  EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound) << c.name;
  ASSERT_TRUE(result.gradient.measured()) << c.name;
  EXPECT_GT(result.gradient.diameter, 1) << c.name;
}

std::vector<SparseMixCase> sparse_mix_cases() {
  using FS = RunSpec::FaultSpec;
  net::TopologySpec cliques;
  cliques.kind = net::TopologyKind::kRingOfCliques;
  cliques.clique_size = 8;
  net::TopologySpec expander;
  expander.kind = net::TopologyKind::kKRegular;
  expander.degree = 8;
  return {
      {"cliques_trailing_mixed", 600, cliques, proc::PlacementKind::kTrailing,
       {FS{FaultKind::kSilent, 1}, FS{FaultKind::kTwoFaced, 1}}},
      {"cliques_joint_twofaced", 601, cliques, proc::PlacementKind::kArticulation,
       {FS{FaultKind::kTwoFaced, 2}}},
      {"cliques_random_mixed", 602, cliques, proc::PlacementKind::kRandom,
       {FS{FaultKind::kSpam, 1}, FS{FaultKind::kTwoFaced, 1}}},
      {"expander_maxdeg_mixed", 603, expander, proc::PlacementKind::kMaxDegree,
       {FS{FaultKind::kSilent, 1}, FS{FaultKind::kSpam, 1},
        FS{FaultKind::kTwoFaced, 1}}},
      {"expander_antipodal_liar", 604, expander, proc::PlacementKind::kAntipodal,
       {FS{FaultKind::kLiar, 1}, FS{FaultKind::kTwoFaced, 1}}},
  };
}

INSTANTIATE_TEST_SUITE_P(SparseMixes, SparseMixedFaults,
                         ::testing::ValuesIn(sparse_mix_cases()),
                         [](const auto& info) { return std::string(info.param.name); });

/// The std::invalid_argument message Experiment's constructor throws, or
/// "" when it builds.
std::string build_error(const RunSpec& spec) {
  try {
    (void)Experiment{spec};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(MixedFaults, RejectsAllFaulty) {
  RunSpec spec;
  spec.params = core::make_params(4, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault_mix = {RunSpec::FaultSpec{FaultKind::kSilent, 4}};
  EXPECT_THROW((void)Experiment{spec}, std::invalid_argument);

  // Invalid rosters are refused by name, on the mesh and on a k-regular
  // graph alike (a kNone slot used to shrink the process set silently).
  for (const net::TopologyKind kind :
       {net::TopologyKind::kFullMesh, net::TopologyKind::kKRegular}) {
    RunSpec base;
    base.params = core::make_params(16, 5, 1e-5, 0.01, 1e-3, 10.0);
    base.topology.kind = kind;
    base.topology.degree = 6;

    RunSpec none_entry = base;
    none_entry.fault_mix = {{FaultKind::kNone, 2}};
    EXPECT_EQ(build_error(none_entry).rfind("RunSpec: fault_mix entry of kind kNone", 0), 0u)
        << build_error(none_entry);

    RunSpec negative_entry = base;
    negative_entry.fault_mix = {{FaultKind::kSilent, -3}};
    EXPECT_EQ(build_error(negative_entry), "RunSpec: fault_mix count must be >= 0");

    RunSpec negative_count = base;
    negative_count.fault = FaultKind::kSilent;
    negative_count.fault_count = -1;
    EXPECT_EQ(build_error(negative_count), "RunSpec: fault_count must be >= 0");

    EXPECT_EQ(build_error(base), "");
  }
}

}  // namespace
}  // namespace wlsync::analysis
