#pragma once
// The sharded measurement pipeline.
//
// The post-hoc probes (skew_series, check_validity) used to call
// Simulator::local_time once per (process, sample) pair — n segment/CORR
// lookups per sample, rescanned per sample, a cost that rivals the engine
// itself on large-n windows (ROADMAP).  This pipeline inverts the loop:
// every clock's segment list and CORR log is walked exactly ONCE per
// window, evaluating the whole (ascending) sample batch against cursors
// (clk::PhysicalClock::Walker / sim::CorrLog::Walker), and the per-clock
// rows shard across threads for large grids.  Values are bit-identical to
// the per-sample scan — the regression suite in tests/topology_test.cpp
// holds it to that, and skew_at() remains the reference scan.

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace wlsync::analysis {

/// Auto-parallel break-even shared by the sharded probes (sample_local_times
/// here, the pair scan in analysis/gradient.cpp): below this many scalar
/// evaluations a serial pass wins, and trials running under an outer
/// ParallelRunner sweep should not spawn inner pools for small windows.
inline constexpr std::size_t kMeasureShardThreshold = std::size_t{1} << 16;

/// The historical sample grids, reproduced accumulation-exactly (t += dt
/// floating-point walk) so rewired callers measure at the very same
/// instants as before.

/// {t0, t0+dt, ...} while t < t1, then exactly t1 — skew_series' grid.
[[nodiscard]] std::vector<double> sample_times_with_endpoint(double t0,
                                                             double t1,
                                                             double dt);

/// {t0, t0+dt, ...} while t <= t1 — check_validity's grid.
[[nodiscard]] std::vector<double> sample_times_closed(double t0, double t1,
                                                      double dt);

/// Local times L_p(t) over a sample grid: row r holds ids[r]'s local time
/// at every grid instant.
struct LocalTimeGrid {
  std::vector<double> times;   ///< ascending sample instants (cols entries)
  std::vector<double> values;  ///< row-major rows x cols
  std::size_t rows = 0;
  std::size_t cols = 0;

  [[nodiscard]] double at(std::size_t row, std::size_t col) const {
    return values[row * cols + col];
  }
};

/// Walks each id's clock + CORR history once over `times` (which must be
/// non-decreasing).  threads = 0 auto-shards rows across the hardware for
/// large grids and stays serial for small ones; any thread count produces
/// identical values (each row is an independent single-writer pass).
[[nodiscard]] LocalTimeGrid sample_local_times(const sim::Simulator& sim,
                                               const std::vector<std::int32_t>& ids,
                                               std::vector<double> times,
                                               int threads = 0);

/// Aggregated Section 9.3 ingress accounting for a finished run: the
/// per-process sim::NicStats summed, plus the worst single process on each
/// axis.  All zeros when the NIC model is off; every field is a
/// deterministic function of the run (physics, see RunPhysics).
struct NicSummary {
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t service_events = 0;     ///< service-loop arms (re-arm count)
  std::uint64_t worst_dropped = 0;      ///< max dropped at one process
  std::size_t peak_queue = 0;           ///< deepest ingress queue anywhere
  std::size_t max_burst = 0;            ///< largest same-instant burst

  /// Fraction of arrivals lost to overflow.
  [[nodiscard]] double drop_rate() const noexcept {
    return arrivals == 0
               ? 0.0
               : static_cast<double>(dropped) / static_cast<double>(arrivals);
  }

  bool operator==(const NicSummary&) const = default;
};

[[nodiscard]] NicSummary summarize_nic(const sim::Simulator& sim);

}  // namespace wlsync::analysis
