#pragma once
// Passive collector of round structure from annotations.
//
// Algorithms annotate round begins (logical clock reached T^i), updates
// (ADJ applied) and joins; this sink indexes them so the analysis can
// compute the quantities the paper's theorems are stated over: the
// real-time spread of round begins (Theorem 4(c)'s beta), the adjustment
// magnitudes (Theorem 4(a)), and the per-round convergence series B^i.

#include <cstdint>
#include <vector>

#include "sim/trace.h"

namespace wlsync::analysis {

struct RoundEvent {
  std::int32_t pid = 0;
  std::int32_t round = 0;
  double real_time = 0.0;
  double value = 0.0;   ///< label for begins; ADJ for updates
  double value2 = 0.0;  ///< AV for updates
};

class RoundTrace final : public sim::TraceSink {
 public:
  /// Annotations only — this sink never reads per-message callbacks, so
  /// the round fast path may batch deliveries past it (sim/trace.h).
  [[nodiscard]] bool wants_message_events() const override { return false; }

  void on_annotation(std::int32_t pid, double time,
                     const proc::Annotation& annotation) override;

  [[nodiscard]] const std::vector<RoundEvent>& begins() const noexcept {
    return begins_;
  }
  [[nodiscard]] const std::vector<RoundEvent>& updates() const noexcept {
    return updates_;
  }
  [[nodiscard]] const std::vector<RoundEvent>& joins() const noexcept {
    return joins_;
  }

  /// Real times at which each of `ids` began round `round`; empty entry
  /// list means some id has no begin record for that round.
  [[nodiscard]] std::vector<double> begin_times(
      std::int32_t round, const std::vector<std::int32_t>& ids) const;

  /// max - min of begin_times, or NaN if any id is missing.  This is the
  /// measured |t_p^i - t_q^i| <= beta quantity of Theorem 4(c).
  [[nodiscard]] double begin_spread(std::int32_t round,
                                    const std::vector<std::int32_t>& ids) const;

  /// Largest round for which *all* of `ids` have a begin record.
  [[nodiscard]] std::int32_t last_complete_round(
      const std::vector<std::int32_t>& ids) const;

  /// Max |ADJ| over updates by `ids` with round >= from_round.
  [[nodiscard]] double max_abs_adjustment(const std::vector<std::int32_t>& ids,
                                          std::int32_t from_round) const;

  /// Merges another trace's events into this one, keeping every event
  /// vector sorted by (real_time, pid).  Both traces must individually be
  /// time-sorted — true of any trace filled by a live run.  This is how
  /// the PDES engine's per-lane traces (each sees only its shard, in lane
  /// order) fold back into the run's single trace.
  void absorb(const RoundTrace& other);

  /// absorb() for a whole lane set at once: one k-way merge into a single
  /// preallocated buffer instead of k incremental inplace_merge passes
  /// (each of which re-acquires a temporary buffer).  Equivalent to
  /// absorbing each trace in order; the PDES engine folds its per-lane
  /// traces through this.
  void absorb_all(const std::vector<RoundTrace>& others);

 private:
  /// Records `pid`'s begin of `round` at `time` (last write wins).  A
  /// negative pid names no process and is not indexed.
  void index_begin(std::int32_t round, std::int32_t pid, double time);
  /// The recorded begin time, or NaN when there is none.
  [[nodiscard]] double indexed_begin(std::int32_t round,
                                     std::int32_t pid) const noexcept;

  std::vector<RoundEvent> begins_;
  std::vector<RoundEvent> updates_;
  std::vector<RoundEvent> joins_;
  /// Begin times as a flat (round, pid) table: row r - first_round_ holds
  /// round r, `stride_` pids wide, NaN where no begin was recorded.  Rounds
  /// and pids are small dense counters, so the table stays compact; a new
  /// round appends one row to a vector that keeps its capacity, so steady
  /// state allocates only when the table doubles.
  std::vector<double> begin_table_;
  std::int32_t first_round_ = 0;
  std::int32_t rounds_ = 0;
  std::int32_t stride_ = 0;
};

}  // namespace wlsync::analysis
