// Memory at scale on the full mesh: one n = 4096 run on the round fast path
// holds the n^2 arrival slots the algorithm needs (n arenas of n doubles,
// 128 MiB) and little else.  The fast path draws every delay straight into
// those arenas; staging the n^2 delivery times in a matrix first would add
// another 128 MiB.  Peak resident set measured on x86-64 Linux (2026-10):
// 142 MB with the fused kernel, 269 MB with the delivery matrix, so the
// 200 MB bound trips if the matrix, or a structure of its size, comes
// back.  Its own binary: ru_maxrss is process-wide, and the expander run
// in memory_scale_test has a tighter bound of its own.  Skipped in
// sanitizer builds, whose shadow memory and allocator quarantine count in
// ru_maxrss (203 MB under ASan); fastpath_test runs the kernel there.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "analysis/experiment.h"
#include "core/params.h"

namespace wlsync {
namespace {

constexpr double kPeakRssLimitMb = 200.0;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TEST(MemoryScale, FullMeshAtN4096StagesNoDeliveryMatrix) {
  if (kSanitized) GTEST_SKIP() << "peak RSS includes sanitizer shadow memory";
  constexpr std::int32_t kN = 4096;
  analysis::RunSpec spec;
  spec.params = core::make_params(kN, (kN - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 2;
  spec.seed = 1;
  spec.engine = analysis::EngineMode::kFastpath;
  // n^2 = 16.8M deliveries per round: well past the default runaway guard.
  spec.max_events = 1'000'000'000;
  const analysis::RunResult result = analysis::run(spec);
  EXPECT_TRUE(result.fastpath_engaged);
  EXPECT_GE(result.completed_rounds, 1);
  EXPECT_FALSE(result.diverged);
  const double peak = peak_rss_mb();
  RecordProperty("peak_rss_mb", std::to_string(peak));
  std::printf("peak RSS %.1f MB (limit %.0f MB)\n", peak, kPeakRssLimitMb);
  EXPECT_LT(peak, kPeakRssLimitMb);
}

}  // namespace
}  // namespace wlsync
