#pragma once
// Parallel multi-trial experiment runner.
//
// Large n/f/seed sweeps dominate the wall time of every study in this
// repository, and the trials are embarrassingly parallel: each Experiment
// owns its Simulator, its RNG streams (derived from RunSpec::seed alone),
// and its trace sinks, and touches no shared mutable state.  ParallelRunner
// shards a vector of independent RunSpecs across a thread pool and merges
// results deterministically: result[i] always corresponds to specs[i], and
// is bit-for-bit the RunResult a serial run_experiment(specs[i]) produces,
// whatever the thread count or interleaving (pinned by
// tests/parallel_runner_test.cpp).
//
// Scheduling is work-stealing over contiguous chunks: each worker owns an
// equal slice of the index space (locality for cache- and NUMA-friendly
// sweeps) and drains it through a per-chunk atomic cursor; workers that
// finish early steal from the slices with work remaining, so heterogeneous
// trial costs — a grid mixing n = 4 with n = 512 — keep every core busy to
// the end instead of waiting on whichever worker drew the expensive tail.
// run_streaming additionally surfaces each trial's result the moment it
// completes, for CSV writers and progress meters over long grids.
// run_adaptive goes one step further on skewed grids: chunks equalize
// *estimated* cost instead of trial count, and steal decisions are guided
// by the per-trial wall_seconds telemetry of already-completed trials.

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

  /// Invokes fn(0) ... fn(count - 1), each exactly once, sharded across the
  /// pool (work-stealing chunks — see the header comment).  fn must be safe
  /// to call concurrently for distinct indices.  The first exception thrown
  /// by any task is rethrown to the caller after all workers have drained.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn) const;

  /// True on a thread currently executing run_indexed work.  Auto-parallel
  /// helpers (analysis/measure.cpp, the PDES auto-tuner in Experiment::run)
  /// consult this to stay serial inside an outer sweep instead of
  /// oversubscribing the machine with nested pools.
  [[nodiscard]] static bool in_worker() noexcept;

  /// Runs one Experiment per spec; result[i] corresponds to specs[i].
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<RunSpec>& specs) const;

  /// Like run(), but additionally invokes on_result(i, result) as each
  /// trial finishes — completion order, not spec order; calls are
  /// serialized, so the callback may write to shared sinks (CSV, progress
  /// bars) without its own locking.  The returned vector is still in spec
  /// order and bit-identical to run()'s.
  std::vector<RunResult> run_streaming(
      const std::vector<RunSpec>& specs,
      const std::function<void(std::size_t, const RunResult&)>& on_result)
      const;

  /// Self-balancing variant of run_streaming for skewed grids (n mixing 4
  /// and 512): the initial contiguous chunks equalize *estimated* cost
  /// (estimate_cost) rather than trial count, and a worker that drains its
  /// chunk steals from the chunk with the most estimated work remaining —
  /// with estimates refined online from the per-trial wall_seconds
  /// telemetry of completed trials (the measured mean wall per distinct n
  /// replaces the static prior as cells finish).  Purely a scheduling
  /// change: result[i] still corresponds to specs[i] and is bit-identical
  /// to run()'s, whatever the thread count (pinned by
  /// tests/parallel_runner_test.cpp).  on_result may be empty.
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

/// One-shot convenience: sweep `specs` across `threads` workers.
[[nodiscard]] std::vector<RunResult> run_experiments(
    const std::vector<RunSpec>& specs, int threads = 0);

/// Exact (bitwise, no tolerance) equality of every measured field — the
/// standard the parallel runner and the scheduler policies are held to.
[[nodiscard]] bool results_identical(const RunResult& a, const RunResult& b);

}  // namespace wlsync::analysis
