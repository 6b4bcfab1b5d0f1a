#include "util/parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wlsync::util {

namespace {
thread_local bool t_in_worker = false;
}  // namespace

int hardware_threads() noexcept {
  const auto n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

bool in_worker() noexcept { return t_in_worker; }

WorkerScope::WorkerScope() noexcept : saved_(t_in_worker) {
  t_in_worker = true;
}

WorkerScope::~WorkerScope() { t_in_worker = saved_; }

namespace detail {

void run_pool(std::size_t count, std::size_t workers,
              void (*call)(void*, std::size_t), void* fn) {
  // Contiguous chunk per worker, drained front-to-back through an atomic
  // cursor; exhausted workers steal from the other chunks in ring order.
  // The cursor may overshoot `end` by one per visiting worker — bounded,
  // and claims beyond the chunk simply fall through to the next victim.
  struct Chunk {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  std::vector<Chunk> chunks(workers);
  const std::size_t base = count / workers;
  const std::size_t extra = count % workers;
  std::size_t begin = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    chunks[w].next.store(begin, std::memory_order_relaxed);
    begin += base + (w < extra ? 1 : 0);
    chunks[w].end = begin;
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto drain = [&](Chunk& chunk) {
    for (;;) {
      const std::size_t i = chunk.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunk.end) return;
      try {
        call(fn, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const auto worker = [&](std::size_t w) {
    const WorkerScope scope;
    drain(chunks[w]);
    for (std::size_t lap = 1; lap < workers; ++lap) {
      drain(chunks[(w + lap) % workers]);  // steal from the others
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  for (std::thread& thread : pool) thread.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail
}  // namespace wlsync::util
