#pragma once
// Passive collector of round structure from annotations.
//
// Algorithms annotate round begins (logical clock reached T^i), updates
// (ADJ applied) and joins; this sink indexes them so the analysis can
// compute the quantities the paper's theorems are stated over: the
// real-time spread of round begins (Theorem 4(c)'s beta), the adjustment
// magnitudes (Theorem 4(a)), and the per-round convergence series B^i.

#include <cstdint>
#include <unordered_map>
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
  /// (each of which re-acquires a temporary buffer), and one reserved
  /// re-index.  Equivalent to absorbing each trace in order; the PDES
  /// engine folds its per-lane traces through this.
  void absorb_all(const std::vector<RoundTrace>& others);

 private:
  /// (round, pid) packed into one key: rounds and pids are non-negative
  /// 31-bit values, so the pair fits a single 64-bit word and the index
  /// is a hash map over it rather than an ordered map over pairs.  It still
  /// allocates: std::unordered_map takes one node per insert, i.e. one per
  /// process per round inside the measured engine span (bench_micro
  /// --smoke's allocs_per_round_two_faced_n80 counts them).
  [[nodiscard]] static std::uint64_t begin_key(std::int32_t round,
                                               std::int32_t pid) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(round))
            << 32) |
           static_cast<std::uint32_t>(pid);
  }

  std::vector<RoundEvent> begins_;
  std::vector<RoundEvent> updates_;
  std::vector<RoundEvent> joins_;
  std::unordered_map<std::uint64_t, double> begin_index_;
};

}  // namespace wlsync::analysis
