// End-to-end smoke: a fault-free Welch-Lynch system stays within gamma.

#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace wlsync {
namespace {

TEST(Smoke, FaultFreeSystemStaysSynchronized) {
  analysis::RunSpec spec;
  spec.params = core::make_params(/*n=*/4, /*f=*/1, /*rho=*/1e-5,
                                  /*delta=*/0.01, /*eps=*/1e-3, /*P=*/10.0);
  spec.rounds = 10;
  spec.seed = 42;
  const analysis::RunResult result = analysis::run(spec);
  EXPECT_FALSE(result.diverged);
  EXPECT_LE(result.gamma_measured, result.gamma_bound);
  EXPECT_LE(result.max_abs_adj, result.adj_bound + 1e-12);
  EXPECT_TRUE(result.validity.holds);
}

}  // namespace
}  // namespace wlsync
