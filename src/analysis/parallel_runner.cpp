#include "analysis/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/parallel.h"

namespace wlsync::analysis {

ParallelRunner::ParallelRunner(int threads)
    : threads_(threads > 0 ? threads : util::hardware_threads()) {}

double ParallelRunner::estimate_cost(const RunSpec& spec) {
  const double n = static_cast<double>(spec.params.n);
  double per_round;  // messages per round under the exchange graph
  switch (spec.topology.kind) {
    case net::TopologyKind::kKRegular:
      per_round = n * static_cast<double>(spec.topology.degree + 1);
      break;
    case net::TopologyKind::kRingOfCliques:
      per_round = n * static_cast<double>(spec.topology.clique_size + 2);
      break;
    default:  // full mesh / custom adjacency
      per_round = n * n;
      break;
  }
  double cost = per_round * static_cast<double>(std::max(spec.rounds, 1));
  if (spec.measure_gradient) {
    // The measurement pair scan is O(n^2) per sample, 25 samples/round
    // over roughly half the run.
    cost += n * n * 12.5 * static_cast<double>(std::max(spec.rounds, 1));
  }
  return cost + 1.0;
}

std::vector<RunResult> ParallelRunner::run_adaptive(
    const std::vector<RunSpec>& specs,
    const std::function<void(std::size_t, const RunResult&)>& on_result)
    const {
  const std::size_t count = specs.size();
  std::vector<RunResult> results(count);
  if (count == 0) return results;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = analysis::run(specs[i]);
      if (on_result) on_result(i, results[i]);
    }
    return results;
  }

  // Static priors and the online cost model.  Trials are keyed by their
  // dominant cost axis (n): once a cell has completed trials, its measured
  // mean wall time replaces the prior for every remaining trial of that n.
  std::vector<double> prior(count);
  double prior_total = 0.0;
  std::vector<std::size_t> cell_of(count);
  std::vector<std::int32_t> cell_n;
  for (std::size_t i = 0; i < count; ++i) {
    prior[i] = estimate_cost(specs[i]);
    prior_total += prior[i];
    const std::int32_t n = specs[i].params.n;
    std::size_t c = 0;
    while (c < cell_n.size() && cell_n[c] != n) ++c;
    if (c == cell_n.size()) cell_n.push_back(n);
    cell_of[i] = c;
  }
  struct CostCell {
    std::atomic<double> wall{0.0};
    std::atomic<std::uint64_t> done{0};
  };
  std::vector<CostCell> cells(cell_n.size());
  std::atomic<double> wall_sum{0.0};
  std::atomic<double> prior_done_sum{0.0};

  // Contiguous chunks holding ~equal prior mass (not equal counts): a
  // worker whose slice is all n = 512 gets fewer trials up front.
  struct Chunk {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  std::vector<Chunk> chunks(workers);
  {
    std::size_t begin = 0;
    double acc = 0.0;
    for (std::size_t w = 0; w < workers; ++w) {
      const double target =
          prior_total * static_cast<double>(w + 1) / static_cast<double>(workers);
      std::size_t end = begin;
      // Leave enough indices for the remaining chunks to be nonempty.
      const std::size_t reserve_tail = workers - 1 - w;
      while (end < count - reserve_tail && (acc < target || end <= begin)) {
        acc += prior[end];
        ++end;
      }
      if (w + 1 == workers) end = count;
      chunks[w].next.store(begin, std::memory_order_relaxed);
      chunks[w].end = end;
      begin = end;
    }
  }

  // est(i): measured mean wall for the trial's n-cell when available, else
  // the prior rescaled into wall seconds by the global measured ratio.
  const auto estimate = [&](std::size_t i) {
    const CostCell& cell = cells[cell_of[i]];
    const std::uint64_t done = cell.done.load(std::memory_order_relaxed);
    if (done > 0) {
      return cell.wall.load(std::memory_order_relaxed) /
             static_cast<double>(done);
    }
    const double scaled = prior_done_sum.load(std::memory_order_relaxed);
    const double scale =
        scaled > 0.0 ? wall_sum.load(std::memory_order_relaxed) / scaled : 1.0;
    return prior[i] * scale;
  };
  const auto remaining_estimate = [&](const Chunk& chunk) {
    double sum = 0.0;
    for (std::size_t i = chunk.next.load(std::memory_order_relaxed);
         i < chunk.end; ++i) {
      sum += estimate(i);
    }
    return sum;
  };

  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex stream_mutex;
  const auto run_one = [&](std::size_t i) {
    try {
      results[i] = analysis::run(specs[i]);
      CostCell& cell = cells[cell_of[i]];
      cell.wall.fetch_add(results[i].wall_seconds, std::memory_order_relaxed);
      cell.done.fetch_add(1, std::memory_order_relaxed);
      wall_sum.fetch_add(results[i].wall_seconds, std::memory_order_relaxed);
      prior_done_sum.fetch_add(prior[i], std::memory_order_relaxed);
      if (on_result) {
        const std::lock_guard<std::mutex> lock(stream_mutex);
        on_result(i, results[i]);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  const auto worker = [&](std::size_t w) {
    const util::WorkerScope scope;
    for (;;) {
      const std::size_t i =
          chunks[w].next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks[w].end) break;
      run_one(i);
    }
    // Steal from the chunk with the most estimated work left, one trial at
    // a time (estimates move as telemetry lands, so re-pick per steal).
    for (;;) {
      std::size_t victim = workers;
      double best = 0.0;
      for (std::size_t v = 0; v < workers; ++v) {
        if (v == w) continue;
        if (chunks[v].next.load(std::memory_order_relaxed) >= chunks[v].end) {
          continue;
        }
        const double rem = remaining_estimate(chunks[v]);
        if (victim == workers || rem > best) {
          victim = v;
          best = rem;
        }
      }
      if (victim == workers) return;
      const std::size_t i =
          chunks[victim].next.fetch_add(1, std::memory_order_relaxed);
      if (i < chunks[victim].end) run_one(i);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<RunSpec> seed_sweep(const RunSpec& base, std::uint64_t first_seed,
                                std::int32_t count) {
  std::vector<RunSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    specs.push_back(base);
    specs.back().seed = first_seed + static_cast<std::uint64_t>(i);
  }
  return specs;
}

}  // namespace wlsync::analysis
