// Memory at scale: one n = 16384, degree-16 expander run keeps per-process
// neighbor state O(degree).  Each process' arrival slots and neighbor list
// are ~17 entries; an n-entry sender -> slot table per process would be
// n^2 int32 = 1 GiB here.  The bound is ~2x the measured peak resident set
// (57 MB on x86-64 Linux, 2026-10; 1076 MB with n-entry slot tables), so
// a per-process O(n) structure, or a comparable regression, trips it.  Its
// own binary, so no other test inflates the peak it reads.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "analysis/experiment.h"
#include "core/params.h"
#include "net/topology.h"

namespace wlsync {
namespace {

constexpr double kPeakRssLimitMb = 128.0;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TEST(MemoryScale, ExpanderAtN16384KeepsNeighborStateOfDegreeSize) {
  constexpr std::int32_t kN = 16384;
  analysis::RunSpec spec;
  spec.params = core::make_params(kN, (kN - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 2;
  spec.seed = 1;
  spec.topology.kind = net::TopologyKind::kKRegular;
  spec.topology.degree = 16;
  spec.topology.seed = 1;
  spec.pdes_workers = 1;
  const analysis::RunResult result = analysis::run(spec);
  EXPECT_GE(result.completed_rounds, 1);
  EXPECT_FALSE(result.diverged);
  const double peak = peak_rss_mb();
  RecordProperty("peak_rss_mb", std::to_string(peak));
  std::printf("peak RSS %.1f MB (limit %.0f MB)\n", peak, kPeakRssLimitMb);
  EXPECT_LT(peak, kPeakRssLimitMb);
}

}  // namespace
}  // namespace wlsync
