#include "analysis/gradient.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/measure.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace wlsync::analysis {

GradientAxis build_gradient_axis(const net::Topology& topo,
                                 const std::vector<std::int32_t>& ids) {
  GradientAxis axis;
  axis.diameter = topo.diameter();  // warms every BFS row of the cache
  if (axis.diameter < 0) {
    // Skew across disconnected components is unbounded and the distance
    // buckets below are sized by the diameter; reject rather than measure
    // nonsense (the experiment harness validates connectivity up front).
    throw std::invalid_argument("gradient_series: topology is disconnected");
  }
  // Bucket axis: the distances that occur between measured pairs.  The
  // serial O(m^2) integer pass also yields the per-bucket pair counts.
  const std::size_t m = ids.size();
  const std::size_t max_d =
      axis.diameter > 0 ? static_cast<std::size_t>(axis.diameter) : 0;
  std::vector<std::int64_t> count_by_raw(max_d + 1, 0);
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(ids[i]);
    for (std::size_t j = i + 1; j < m; ++j) {
      const std::int32_t d = row[static_cast<std::size_t>(ids[j])];
      if (d >= 1) count_by_raw[static_cast<std::size_t>(d)] += 1;
    }
  }
  axis.bucket_of.assign(max_d + 1, -1);
  for (std::size_t d = 1; d <= max_d; ++d) {
    if (count_by_raw[d] > 0) {
      axis.bucket_of[d] = static_cast<std::int32_t>(axis.distances.size());
      axis.distances.push_back(static_cast<std::int32_t>(d));
      axis.pair_count.push_back(count_by_raw[d]);
    }
  }
  return axis;
}

void finish_gradient_window_summaries(GradientSeries& series, std::size_t cols,
                                      std::size_t stride) {
  const std::size_t buckets = series.distances.size();
  if (cols == 0) cols = series.times.size();
  if (stride == 0) stride = cols;
  series.max_skew.resize(buckets);
  series.mean_skew.resize(buckets);
  series.p99_skew.resize(buckets);
  series.frontier.resize(buckets);
  double running = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double* row = series.skew_by_sample.data() + b * stride;
    double hi = 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < cols; ++k) {
      hi = std::max(hi, row[k]);
      sum += row[k];
    }
    series.max_skew[b] = hi;
    series.mean_skew[b] = sum / static_cast<double>(cols);
    series.p99_skew[b] = util::quantile({row, cols}, 0.99);
    running = std::max(running, hi);
    series.frontier[b] = running;
  }
}

GradientSeries gradient_series(const sim::Simulator& sim,
                               const std::vector<std::int32_t>& ids,
                               const net::Topology& topo, double t0, double t1,
                               double dt, int threads) {
  GradientSeries series;
  GradientAxis axis = build_gradient_axis(topo, ids);
  series.diameter = axis.diameter;
  series.distances = std::move(axis.distances);
  series.pair_count = std::move(axis.pair_count);
  const std::vector<std::int32_t>& bucket_of = axis.bucket_of;
  const LocalTimeGrid grid = sample_local_times(
      sim, ids, sample_times_with_endpoint(t0, t1, dt), threads);
  series.times = grid.times;

  const std::size_t m = ids.size();
  const std::size_t buckets = series.distances.size();
  const std::size_t cols = grid.cols;
  series.skew_by_sample.assign(buckets * cols, 0.0);
  if (buckets == 0 || cols == 0) return series;

  // Pair scan, sharded: shard s owns the strided rows i = s, s + shards,
  // ... (the pair count per row shrinks with i, so striding balances the
  // load).  Each shard folds |L_i - L_j| into a private bucket x sample
  // matrix with max; the serial max-merge afterwards makes the result
  // independent of shard count and interleaving — max is order-insensitive,
  // so this is bit-identical to the naive per-sample reference scan.
  const auto scan_rows = [&](double* matrix, std::size_t first,
                             std::size_t stride) {
    for (std::size_t i = first; i + 1 < m; i += stride) {
      const std::vector<std::int32_t>& dist = topo.distances_from(ids[i]);
      const double* row_i = grid.values.data() + i * cols;
      for (std::size_t j = i + 1; j < m; ++j) {
        const std::int32_t d = dist[static_cast<std::size_t>(ids[j])];
        if (d < 1) continue;
        const std::int32_t b = bucket_of[static_cast<std::size_t>(d)];
        double* bucket_row = matrix + static_cast<std::size_t>(b) * cols;
        const double* row_j = grid.values.data() + j * cols;
        for (std::size_t k = 0; k < cols; ++k) {
          const double skew = std::abs(row_i[k] - row_j[k]);
          if (skew > bucket_row[k]) bucket_row[k] = skew;
        }
      }
    }
  };

  bool parallel = threads > 1;
  if (threads == 0) {
    parallel = m >= 4 && (m * (m - 1) / 2) * cols >= kMeasureShardThreshold &&
               util::hardware_threads() > 1 && !util::in_worker();
  }
  if (parallel) {
    const int workers = threads > 0 ? threads : util::hardware_threads();
    const std::size_t shards =
        std::min<std::size_t>(static_cast<std::size_t>(workers), m);
    std::vector<double> partial(shards * buckets * cols, 0.0);
    util::parallel_for(shards, workers, [&](std::size_t s) {
      scan_rows(partial.data() + s * buckets * cols, s, shards);
    });
    for (std::size_t s = 0; s < shards; ++s) {
      const double* matrix = partial.data() + s * buckets * cols;
      for (std::size_t c = 0; c < buckets * cols; ++c) {
        if (matrix[c] > series.skew_by_sample[c]) {
          series.skew_by_sample[c] = matrix[c];
        }
      }
    }
  } else {
    scan_rows(series.skew_by_sample.data(), 0, 1);
  }

  finish_gradient_window_summaries(series);
  return series;
}

std::vector<double> gradient_at(const sim::Simulator& sim,
                                const std::vector<std::int32_t>& ids,
                                const net::Topology& topo,
                                const std::vector<std::int32_t>& distances,
                                double t) {
  std::vector<std::int32_t> bucket_of;
  for (std::size_t b = 0; b < distances.size(); ++b) {
    const auto d = static_cast<std::size_t>(distances[b]);
    if (bucket_of.size() <= d) bucket_of.resize(d + 1, -1);
    bucket_of[d] = static_cast<std::int32_t>(b);
  }
  std::vector<double> locals(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    locals[i] = sim.local_time(ids[i], t);
  }
  std::vector<double> buckets(distances.size(), 0.0);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const std::int32_t d = row[static_cast<std::size_t>(ids[j])];
      if (d < 1 || static_cast<std::size_t>(d) >= bucket_of.size()) continue;
      const std::int32_t b = bucket_of[static_cast<std::size_t>(d)];
      if (b < 0) continue;
      buckets[static_cast<std::size_t>(b)] =
          std::max(buckets[static_cast<std::size_t>(b)],
                   std::abs(locals[i] - locals[j]));
    }
  }
  return buckets;
}

double gradient_slope(const GradientSeries& series) {
  if (series.distances.size() < 2) return 0.0;
  std::vector<double> xs(series.distances.size());
  for (std::size_t b = 0; b < xs.size(); ++b) {
    xs[b] = static_cast<double>(series.distances[b]);
  }
  return util::fit_line(xs, series.max_skew).slope;
}

GradientSummary summarize_gradient(const GradientSeries& series) {
  GradientSummary summary;
  summary.distances = series.distances;
  summary.max_skew = series.max_skew;
  summary.mean_skew = series.mean_skew;
  summary.p99_skew = series.p99_skew;
  summary.frontier = series.frontier;
  summary.pair_count = series.pair_count;
  summary.slope = gradient_slope(series);
  summary.diameter = series.diameter;
  return summary;
}

}  // namespace wlsync::analysis
