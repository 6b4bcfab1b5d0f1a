#pragma once
// The read-only physical clock Ph_p of Section 2.1.
//
// A clock is a monotonically increasing function from real times to clock
// times (Section 2.1); we realize it as a piecewise-linear function whose
// segment rates come from a DriftModel and therefore stay rho-bounded.
// Because segments are linear, the inverse c(T) = C^{-1}(T) is exact, which
// the message system needs: setting a timer for clock time T schedules a
// TIMER message at real time Ph^{-1}(T) (Section 2.2).
//
// Segments are generated lazily as queries move forward in time, so a clock
// supports unbounded executions with O(log n) queries.

#include <cstdint>
#include <memory>
#include <vector>

#include "clock/drift.h"

namespace wlsync::clk {

class PhysicalClock {
 private:
  struct Breakpoint {
    double real;   ///< real time at segment start
    double clock;  ///< clock reading at segment start
    double rate;   ///< slope over this segment
  };

 public:
  /// A clock reading `offset` at real time 0, advancing per `drift`.
  /// `rho` is the asserted bound; every segment rate is validated against it.
  PhysicalClock(std::unique_ptr<DriftModel> drift, double offset, double rho);

  /// C(t): clock time at real time t.  t may be any value >= the earliest
  /// generated time (segments extend backward linearly from t = 0 at the
  /// first segment's rate).
  [[nodiscard]] double now(double real_time) const;

  /// c(T) = C^{-1}(T): the real time at which the clock reads T.
  [[nodiscard]] double to_real(double clock_time) const;

  /// One affine piece of the clock: C(t) = clock + (t - real) * rate on the
  /// segment's span.  Exposed for the round fast path's batched delivery
  /// kernel (proc/reduce_kernels.h), whose per-arrival expression matches
  /// now() term for term.
  struct AffineSpan {
    double real = 0.0;   ///< segment start (real time)
    double clock = 0.0;  ///< clock reading at segment start
    double rate = 0.0;   ///< slope
  };

  /// The single affine segment covering [t0, t1], if one exists (t0 <= t1;
  /// extends the clock lazily as needed).  Returns false when a drift
  /// breakpoint falls inside the window — callers then evaluate per point
  /// through now(), which is exact on any window.
  [[nodiscard]] bool affine_span(double t0, double t1, AffineSpan& out) const;

  /// The asserted drift bound rho.
  [[nodiscard]] double rho() const noexcept { return rho_; }

  /// Clock value at real time 0 (stored at construction; survives
  /// truncate_before, which may discard the t = 0 breakpoint).
  [[nodiscard]] double offset() const noexcept { return offset0_; }

  /// Bounded-memory mode (analysis/observe.h): discards every breakpoint
  /// strictly before the segment containing real time t.  Queries (now,
  /// to_real, Walker::now) at times >= t are unaffected bit-for-bit;
  /// queries before t become invalid (they extrapolate backward from the
  /// first retained segment).  The streaming observer only truncates
  /// behind its fully-drained sample frontier.  Returns the number of
  /// breakpoints removed; front-erase, no allocation, capacity retained.
  std::size_t truncate_before(double real_time);

  /// Sizes the segment list for a run whose breakpoint count is known up
  /// front: the first growth past the construction-time breakpoints takes
  /// room for `count` breakpoints at once instead of doubling, so
  /// extension then never reallocates.  Nothing is allocated until the
  /// clock grows.
  void reserve_on_growth(std::size_t count) noexcept { expected_breaks_ = count; }

  /// Breakpoints discarded by truncate_before so far.
  [[nodiscard]] std::size_t trimmed() const noexcept { return trimmed_; }

  /// Breakpoints currently held (after any truncation).
  [[nodiscard]] std::size_t retained_breakpoints() const noexcept {
    return breaks_.size();
  }

  /// Approximate heap footprint of the retained segment list
  /// (capacity-based, like CorrLog::approx_bytes).
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return breaks_.capacity() * sizeof(Breakpoint);
  }

  /// Single-pass sampling cursor for the batched measurement pipeline:
  /// repeated now(t) calls with non-decreasing t walk the segment list once
  /// (amortized O(1) per sample) through a private index, never the clock's
  /// shared hint caches — so Walkers over *distinct* clocks are safe to
  /// drive from different threads.  Queries past the generated horizon
  /// still extend the walked clock lazily; shard by clock, never share one
  /// clock across threads.  Produces bit-identical values to now().  The
  /// cursor is an absolute segment ordinal, so the Walker survives
  /// truncate_before on its clock (like sim::CorrLog::Walker).
  class Walker {
   public:
    explicit Walker(const PhysicalClock& clock) : clock_(clock) {}

    [[nodiscard]] double now(double real_time) {
      clock_.extend_real(real_time);
      const std::vector<Breakpoint>& breaks = clock_.breaks_;
      std::size_t i = seg_ >= clock_.trimmed_ ? seg_ - clock_.trimmed_ : 0;
      while (i + 1 < breaks.size() && breaks[i + 1].real <= real_time) {
        ++i;
      }
      seg_ = clock_.trimmed_ + i;
      const Breakpoint& seg = breaks[i];
      return seg.clock + (real_time - seg.real) * seg.rate;
    }

   private:
    const PhysicalClock& clock_;
    std::size_t seg_ = 0;  ///< absolute ordinal (trimmed_ + vector index)
  };

 private:
  void extend_real(double real_time) const;
  void extend_clock(double clock_time) const;
  [[nodiscard]] std::size_t locate_real(double real_time) const;
  [[nodiscard]] std::size_t locate_clock(double clock_time) const;

  std::unique_ptr<DriftModel> drift_;
  double rho_;
  double offset0_ = 0.0;     ///< clock reading at real time 0
  std::size_t trimmed_ = 0;  ///< breakpoints dropped from the front so far
  std::size_t expected_breaks_ = 0;  ///< reserve_on_growth's; 0 = double
  // Lazily extended; mutable because extension does not change the abstract
  // (infinite) function the clock denotes.
  mutable std::vector<Breakpoint> breaks_;
  mutable std::uint64_t next_segment_ = 0;
  // Last-hit segment per axis: queries are temporally local, so most hit
  // the same or the next segment and skip the binary search entirely.
  mutable std::size_t hint_real_ = 0;
  mutable std::size_t hint_clock_ = 0;
};

}  // namespace wlsync::clk
