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
// Scheduling is work-stealing over contiguous chunks that equalize
// *estimated* trial cost, so a grid mixing n = 4 with n = 512 keeps every
// core busy to the end; steal decisions are guided by the per-trial
// wall_seconds telemetry of already-completed trials, and an optional
// callback surfaces each result the moment it completes, for CSV writers
// and progress meters over long grids.  Its workers run under
// util::WorkerScope, so the auto-parallel paths inside a trial (measurement,
// the fast path's kernels, the PDES auto-tuner) stay serial; callers that
// shard something other than trials use util::parallel_for.

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
  /// (pinned by tests/parallel_runner_test.cpp).  The initial contiguous
  /// chunks equalize *estimated* cost (estimate_cost) rather than trial
  /// count, and a worker that drains its chunk steals from the chunk with
  /// the most estimated work remaining — with estimates refined online
  /// from the per-trial wall_seconds telemetry of completed trials (the
  /// measured mean wall per distinct n replaces the static prior as cells
  /// finish).  on_result(i, result), when set, is invoked as each trial
  /// finishes — completion order, not spec order; calls are serialized, so
  /// the callback may write to shared sinks (CSV, progress bars) without
  /// its own locking.
  std::vector<RunResult> run_adaptive(
      const std::vector<RunSpec>& specs,
      const std::function<void(std::size_t, const RunResult&)>& on_result = {})
      const;

  /// Static relative cost prior for one trial (message volume over the
  /// run, plus the pair-scan term when the gradient is measured).  Units
  /// are arbitrary; run_adaptive only uses ratios.
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
