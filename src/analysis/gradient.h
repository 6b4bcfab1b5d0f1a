#pragma once
// Gradient-skew analysis: skew as a function of graph distance.
//
// The paper bounds the *global* skew max |L_i - L_j| on a full mesh, where
// every pair is one hop apart.  On the sparse exchange graphs of the net
// layer the interesting quantity is the *gradient* (Bund/Lenzen/Rosenbaum,
// "Fault Tolerant Gradient Clock Synchronization"): how the worst skew
// between two processes grows with their hop distance d(i, j).  This module
// buckets every honest pair by distance and reports, per distance, the
// skew's max / mean / p99 over a sample window, plus a least-squares slope
// summary — the measurable form of a gradient bound.
//
// gradient_series rides the sharded measurement pipeline of
// analysis/measure.h: local times come from one cursor walk per clock, and
// the pair fold shards over node pairs across threads.  Every reduction is
// a max (order-insensitive over doubles), so any thread count produces
// bit-identical buckets — tests/gradient_test.cpp pins the sharded path
// against a naive per-sample reference scan at 1e-12.  fold_pair_buckets
// is the one home of the pair fold: gradient_series folds strided rows of
// the whole grid through it and the streaming observer (analysis/observe.h)
// one drained sample.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "sim/simulator.h"

namespace wlsync::analysis {

/// Skew-vs-distance curves over a sample window.  Distances are the hop
/// distances that actually occur between the measured ids (ascending;
/// distance 0 — a pair with itself — is excluded).
struct GradientSeries {
  std::vector<double> times;            ///< ascending sample instants
  std::vector<std::int32_t> distances;  ///< bucket axis (ascending, >= 1)
  /// Row-major distances.size() x times.size(): max |L_i - L_j| over the
  /// pairs at that distance, per sample instant.
  std::vector<double> skew_by_sample;
  /// Number of measured-id pairs in each distance bucket.
  std::vector<std::int64_t> pair_count;

  // Per-distance summaries over the sample window:
  std::vector<double> max_skew;   ///< max over samples
  std::vector<double> mean_skew;  ///< mean of the per-sample bucket max
  std::vector<double> p99_skew;   ///< 0.99-quantile of the per-sample max
  /// Monotone frontier: max_skew folded over all distances <= d.  The raw
  /// per-distance max is *typically* non-decreasing in d (more room to
  /// drift apart); the frontier is non-decreasing by construction and is
  /// the clean "skew within distance d" curve.
  std::vector<double> frontier;

  std::int32_t diameter = 0;  ///< of the whole topology (all nodes)

  [[nodiscard]] double at(std::size_t distance_index, std::size_t sample) const {
    return skew_by_sample[distance_index * times.size() + sample];
  }
};

/// The distance-bucket axis shared by the post-hoc scan (gradient_series)
/// and the streaming observer (analysis/observe.h): the hop distances that
/// occur between measured pairs, the pair count per bucket, and the
/// distance -> bucket lookup table.
struct GradientAxis {
  std::vector<std::int32_t> distances;   ///< ascending, >= 1
  std::vector<std::int64_t> pair_count;  ///< measured-id pairs per bucket
  std::vector<std::int32_t> bucket_of;   ///< distance -> bucket index, -1 = none
  std::int32_t diameter = 0;             ///< of the whole topology
};

/// Builds the bucket axis with one O(m^2) integer pass; warms the
/// topology's distance rows (so the pair fold may run on many threads).
/// Throws std::invalid_argument on a disconnected topology (cross-component
/// skew has no distance bucket).
[[nodiscard]] GradientAxis build_gradient_axis(
    const net::Topology& topo, const std::vector<std::int32_t>& ids);

/// Folds max |L_i - L_j| of every measured pair into its distance bucket,
/// for `cols` adjacent sample instants.  Measured id ids[r]'s local times
/// sit at locals[r * id_stride + k], k < cols; bucket b's cells at
/// buckets[b * bucket_stride + k] (max-folded, so they accumulate across
/// calls).  `bucket_of` is build_gradient_axis(topo, ids).bucket_of.
/// Only the pairs (i, j > i) with i = first_row, first_row + row_stride,
/// ... are folded, so row shards cover every pair exactly once.
void fold_pair_buckets(const net::Topology& topo,
                       const std::vector<std::int32_t>& ids,
                       const std::vector<std::int32_t>& bucket_of,
                       const double* locals, std::size_t id_stride,
                       std::size_t cols, double* buckets,
                       std::size_t bucket_stride, std::size_t first_row = 0,
                       std::size_t row_stride = 1);

/// Fills the per-distance window summaries (max / mean / p99 / frontier)
/// from an already-populated skew_by_sample matrix.  Shared by the
/// post-hoc and streaming paths so both produce the identical doubles.
/// `cols` is the number of valid samples per bucket row and `stride` the
/// allocated row length (>= cols); 0 means times.size() — the tight
/// post-hoc layout.  The streaming observer passes its capacity-strided
/// accumulation matrix directly, with no repacking.
void finish_gradient_window_summaries(GradientSeries& series,
                                      std::size_t cols = 0,
                                      std::size_t stride = 0);

/// Buckets every pair of `ids` by hop distance in `topo` and evaluates the
/// per-bucket max skew at every instant of the grid {t0, t0+dt, ..., t1}
/// (the same endpoint-closed grid as skew_series).  threads = 0 auto-shards
/// the pair scan for large workloads and stays serial inside an outer
/// ParallelRunner sweep; any thread count yields bit-identical values.
/// Warms the topology's distance rows (so the Topology may be shared
/// read-only afterwards).  Throws std::invalid_argument on a disconnected
/// topology (cross-component skew has no distance to bucket by).
[[nodiscard]] GradientSeries gradient_series(const sim::Simulator& sim,
                                             const std::vector<std::int32_t>& ids,
                                             const net::Topology& topo,
                                             double t0, double t1, double dt,
                                             int threads = 0);

/// Least-squares slope of per-distance max skew against distance — the
/// one-number gradient summary (0 for a flat curve, e.g. identical clocks).
/// Buckets with no pairs are skipped; fewer than two buckets give 0.
[[nodiscard]] double gradient_slope(const GradientSeries& series);

/// The sweep-facing condensation of a GradientSeries: per-distance curves
/// without the per-sample matrix, sized for a RunResult that is copied
/// across ParallelRunner result vectors.
struct GradientSummary {
  std::vector<std::int32_t> distances;
  std::vector<double> max_skew;
  std::vector<double> mean_skew;
  std::vector<double> p99_skew;
  std::vector<double> frontier;
  std::vector<std::int64_t> pair_count;
  double slope = 0.0;
  std::int32_t diameter = 0;

  [[nodiscard]] bool measured() const noexcept { return !distances.empty(); }
  /// Frontier value at the largest distance (the global skew), 0 if empty.
  [[nodiscard]] double far_skew() const noexcept {
    return frontier.empty() ? 0.0 : frontier.back();
  }

  bool operator==(const GradientSummary&) const = default;
};

[[nodiscard]] GradientSummary summarize_gradient(const GradientSeries& series);

}  // namespace wlsync::analysis
