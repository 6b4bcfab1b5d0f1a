#pragma once
// Parallel multi-trial experiment runner.
//
// Large n/f/seed sweeps dominate the wall time of every study in this
// repository, and the trials are embarrassingly parallel: each Experiment
// owns its Simulator, its RNG streams (derived from RunSpec::seed alone),
// and its trace sinks, and touches no shared mutable state.  run_adaptive
// — the one sweep entry point — shards a vector of independent RunSpecs
// across a thread pool and merges results deterministically: result[i]
// always corresponds to specs[i], and is bit-for-bit the RunResult a serial
// analysis::run(specs[i]) produces, whatever the thread count or
// interleaving (pinned by tests/parallel_runner_test.cpp).
//
// Scheduling is util::parallel_for over the trials ranked by
// estimate_cost and dealt round-robin into the pool's equal-count chunks,
// so each worker starts on one of the costliest trials and the pool's own
// stealing balances the tail.  An optional callback surfaces each result
// the moment it completes, for CSV writers and progress meters over long
// grids.  Every trial runs under util::WorkerScope, the inline one-thread
// case included, so the auto-parallel paths inside a trial (measurement,
// the fast path's kernels, kAuto's PDES auto-tune) stay serial and the
// engine a trial runs never depends on the thread count.

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/experiment.h"

namespace wlsync::analysis {

class ParallelRunner {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit ParallelRunner(int threads = 0);

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Runs analysis::run once per spec; result[i] corresponds to specs[i]
  /// and is bit-identical to a serial run, whatever the thread count
  /// (pinned by tests/parallel_runner_test.cpp).  Trials run on
  /// util::parallel_for, the costliest (estimate_cost) dealt first.
  /// on_result(i, result), when set, is invoked as each trial finishes —
  /// completion order, not spec order; calls are serialized, so the
  /// callback may write to shared sinks (CSV, progress bars) without its
  /// own locking.  The first exception any trial throws is rethrown.
  std::vector<RunResult> run_adaptive(
      const std::vector<RunSpec>& specs,
      const std::function<void(std::size_t, const RunResult&)>& on_result = {})
      const;

  /// Static relative cost prior for one trial (message volume over the
  /// run, plus the pair-scan term when the gradient is measured).  Units
  /// are arbitrary; run_adaptive only uses the order.
  [[nodiscard]] static double estimate_cost(const RunSpec& spec);

 private:
  int threads_;
};

/// The common sweep axis: `count` copies of `base` with seeds
/// first_seed, first_seed + 1, ...  Per-trial RNG streams are derived from
/// the seed inside Experiment, so distinct seeds give independent trials.
[[nodiscard]] std::vector<RunSpec> seed_sweep(const RunSpec& base,
                                              std::uint64_t first_seed,
                                              std::int32_t count);

}  // namespace wlsync::analysis
