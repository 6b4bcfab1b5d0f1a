#include "analysis/gradient.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "analysis/measure.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace wlsync::analysis {

GradientAxis build_gradient_axis(const net::Topology& topo,
                                 const std::vector<std::int32_t>& ids) {
  GradientAxis axis;
  axis.diameter = topo.diameter();  // warms every distance row
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
    const std::span<const std::int32_t> row = topo.distances_from(ids[i]);
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
  const LocalTimeGrid grid = sample_local_times(
      sim, ids, sample_times_with_endpoint(t0, t1, dt), threads);
  series.times = grid.times;

  const std::size_t m = ids.size();
  const std::size_t buckets = series.distances.size();
  const std::size_t cols = grid.cols;
  series.skew_by_sample.assign(buckets * cols, 0.0);
  if (buckets == 0 || cols == 0) return series;

  bool parallel = threads > 1;
  if (threads == 0) {
    parallel = m >= 4 && (m * (m - 1) / 2) * cols >= kMeasureShardThreshold &&
               util::hardware_threads() > 1 && !util::in_worker();
  }
  if (parallel) {
    // Shard s owns the strided rows i = s, s + shards, ... (the pair count
    // per row shrinks with i, so striding balances the load) and folds
    // them into a private bucket x sample matrix; the serial max-merge
    // afterwards makes the result independent of shard count and
    // interleaving — max is order-insensitive, so it is bit-identical to
    // the serial pass.
    const int workers = threads > 0 ? threads : util::hardware_threads();
    const std::size_t shards =
        std::min<std::size_t>(static_cast<std::size_t>(workers), m);
    std::vector<double> partial(shards * buckets * cols, 0.0);
    util::parallel_for(shards, workers, [&](std::size_t s) {
      fold_pair_buckets(topo, ids, axis.bucket_of, grid.values.data(), cols,
                        cols, partial.data() + s * buckets * cols, cols, s,
                        shards);
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
    fold_pair_buckets(topo, ids, axis.bucket_of, grid.values.data(), cols,
                      cols, series.skew_by_sample.data(), cols);
  }

  finish_gradient_window_summaries(series);
  return series;
}

void fold_pair_buckets(const net::Topology& topo,
                       const std::vector<std::int32_t>& ids,
                       const std::vector<std::int32_t>& bucket_of,
                       const double* locals, std::size_t id_stride,
                       std::size_t cols, double* buckets,
                       std::size_t bucket_stride, std::size_t first_row,
                       std::size_t row_stride) {
  const std::size_t m = ids.size();
  for (std::size_t i = first_row; i + 1 < m; i += row_stride) {
    const std::span<const std::int32_t> dist = topo.distances_from(ids[i]);
    const double* row_i = locals + i * id_stride;
    for (std::size_t j = i + 1; j < m; ++j) {
      const std::int32_t d = dist[static_cast<std::size_t>(ids[j])];
      if (d < 1) continue;
      const auto b =
          static_cast<std::size_t>(bucket_of[static_cast<std::size_t>(d)]);
      double* cell = buckets + b * bucket_stride;
      const double* row_j = locals + j * id_stride;
      for (std::size_t k = 0; k < cols; ++k) {
        const double skew = std::abs(row_i[k] - row_j[k]);
        if (skew > cell[k]) cell[k] = skew;
      }
    }
  }
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
