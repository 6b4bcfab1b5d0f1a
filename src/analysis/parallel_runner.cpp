#include "analysis/parallel_runner.h"

#include <algorithm>
#include <mutex>
#include <numeric>

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
  // Rank the trials by cost (stable, so equal costs keep spec order), then
  // deal the ranking round-robin into parallel_for's equal-count chunks:
  // every worker starts on one of the `workers` costliest trials and runs
  // its share costliest first, and a thief takes a chunk's costliest left.
  std::vector<std::size_t> ranked(specs.size());
  std::iota(ranked.begin(), ranked.end(), std::size_t{0});
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimate_cost(specs[a]) > estimate_cost(specs[b]);
                   });
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(specs.size(), static_cast<std::size_t>(threads_)));
  std::vector<std::size_t> order;
  order.reserve(specs.size());
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t r = w; r < ranked.size(); r += workers) {
      order.push_back(ranked[r]);
    }
  }

  // Every trial runs as a pool worker, inline ones too, so the engine a
  // trial picks never depends on the thread count.
  const util::WorkerScope scope;
  std::vector<RunResult> results(specs.size());
  std::mutex stream_mutex;
  util::parallel_for(order.size(), threads_, [&](std::size_t k) {
    const std::size_t i = order[k];
    results[i] = analysis::run(specs[i]);
    if (on_result) {
      const std::lock_guard<std::mutex> lock(stream_mutex);
      on_result(i, results[i]);
    }
  });
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
