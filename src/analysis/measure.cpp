#include "analysis/measure.h"

#include "util/parallel.h"

namespace wlsync::analysis {

std::vector<double> sample_times_with_endpoint(double t0, double t1,
                                               double dt) {
  std::vector<double> times;
  for (double t = t0; t < t1; t += dt) times.push_back(t);
  times.push_back(t1);
  return times;
}

std::vector<double> sample_times_closed(double t0, double t1, double dt) {
  std::vector<double> times;
  for (double t = t0; t <= t1; t += dt) times.push_back(t);
  return times;
}

LocalTimeGrid sample_local_times(const sim::Simulator& sim,
                                 const std::vector<std::int32_t>& ids,
                                 std::vector<double> times, int threads) {
  LocalTimeGrid grid;
  grid.times = std::move(times);
  grid.rows = ids.size();
  grid.cols = grid.times.size();
  grid.values.resize(grid.rows * grid.cols);

  const auto sample_row = [&](std::size_t r) {
    const std::int32_t id = ids[r];
    clk::PhysicalClock::Walker clock(sim.clock(id));
    sim::CorrLog::Walker corr(sim.corr_log(id));
    double* row = grid.values.data() + r * grid.cols;
    for (std::size_t k = 0; k < grid.cols; ++k) {
      // The same expression as Simulator::local_time, cursor-evaluated.
      row[k] = clock.now(grid.times[k]) + corr.displayed_at(grid.times[k]);
    }
  };

  bool parallel = threads > 1;
  if (threads == 0) {
    // Auto mode: shard big grids — but never from inside an outer pool
    // (a ParallelRunner sweep), where the cores are already claimed by
    // trials and a nested pool per measurement window would oversubscribe
    // them.
    parallel = grid.rows >= 2 && grid.rows * grid.cols >= kMeasureShardThreshold &&
               util::hardware_threads() > 1 && !util::in_worker();
  }
  if (parallel) {
    // Rows write disjoint slices and walk disjoint clocks, so any worker
    // count and interleaving computes the identical grid.
    util::parallel_for(grid.rows, threads, sample_row);
  } else {
    for (std::size_t r = 0; r < grid.rows; ++r) sample_row(r);
  }
  return grid;
}

NicSummary summarize_nic(const sim::Simulator& sim) {
  NicSummary summary;
  if (!sim.nic_enabled()) return summary;
  for (std::int32_t id = 0; id < sim.process_count(); ++id) {
    const sim::NicStats& stats = sim.nic_stats(id);
    summary.arrivals += stats.arrivals;
    summary.served += stats.served;
    summary.dropped += stats.dropped;
    summary.service_events += stats.service_events;
    summary.worst_dropped = std::max(summary.worst_dropped, stats.dropped);
    summary.peak_queue = std::max(summary.peak_queue, stats.peak_queue);
    summary.max_burst = std::max(summary.max_burst, stats.max_burst);
  }
  return summary;
}

}  // namespace wlsync::analysis
