#pragma once
// Fork-join over indices: the library's one thread pool.
//
// parallel_for(count, threads, fn) invokes fn(0) ... fn(count - 1), each
// exactly once, on up to `threads` freshly spawned workers and returns when
// all of them have finished.  Worker w of W drains the w-th of W contiguous
// chunks of the index range (equal counts, the first count % W one index
// longer) front to back through an atomic cursor, then steals from the
// fronts of the other chunks in ring order, so skewed per-index costs
// still keep every worker busy to the end.  With one worker (or one index)
// it runs inline on the calling thread, with no thread, lock or allocation.
//
// in_worker() is true on a pool thread.  Code that shards on its own (the
// measurement sample grid, the gradient pair scan, the round fast path's
// per-exchange kernels, kAuto's PDES auto-tune) checks it and stays serial
// inside an outer pool rather than oversubscribing the cores that pool
// already claims.  ParallelRunner::run_adaptive is parallel_for over trials
// under a WorkerScope, so its inline one-thread case is marked as well.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace wlsync::util {

/// std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] int hardware_threads() noexcept;

/// True on a thread running parallel_for work or inside a WorkerScope.
[[nodiscard]] bool in_worker() noexcept;

/// Marks the current thread as a pool worker for the scope's lifetime and
/// restores the previous state on exit.  Pool threads use it; so can a
/// caller that wants the auto-parallel paths serial on its own thread.
class WorkerScope {
 public:
  WorkerScope() noexcept;
  ~WorkerScope();
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  bool saved_;
};

namespace detail {
/// Runs call(fn, i) for every i in [0, count) on `workers` >= 2 threads.
void run_pool(std::size_t count, std::size_t workers,
              void (*call)(void*, std::size_t), void* fn);
}  // namespace detail

/// Invokes fn(i) for i in [0, count), each exactly once, on up to `threads`
/// threads (0 picks hardware_threads()).  fn must be safe to call
/// concurrently for distinct indices.  The first exception thrown by any
/// call is rethrown to the caller after every worker has drained.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  const int want = threads > 0 ? threads : hardware_threads();
  const std::size_t workers =
      std::min(count, static_cast<std::size_t>(want));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  detail::run_pool(
      count, workers,
      [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace wlsync::util
