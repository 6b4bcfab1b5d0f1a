#include "clock/physical_clock.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace wlsync::clk {

namespace {
constexpr double kRateTolerance = 1e-12;
}

PhysicalClock::PhysicalClock(std::unique_ptr<DriftModel> drift, double offset,
                             double rho)
    : drift_(std::move(drift)), rho_(rho), offset0_(offset) {
  if (!drift_) throw std::invalid_argument("PhysicalClock: null drift model");
  const DriftSegment seg = drift_->segment(next_segment_++);
  if (seg.rate < 1.0 / (1.0 + rho_) - kRateTolerance ||
      seg.rate > 1.0 + rho_ + kRateTolerance) {
    throw std::invalid_argument("PhysicalClock: drift rate violates rho bound");
  }
  breaks_.push_back({0.0, offset, seg.rate});
  breaks_.push_back({seg.duration, offset + seg.duration * seg.rate, seg.rate});
}

void PhysicalClock::extend_real(double real_time) const {
  while (breaks_.back().real < real_time) {
    const DriftSegment seg = drift_->segment(next_segment_++);
    if (seg.duration <= 0.0) throw std::logic_error("drift segment duration <= 0");
    if (seg.rate < 1.0 / (1.0 + rho_) - kRateTolerance ||
        seg.rate > 1.0 + rho_ + kRateTolerance) {
      throw std::logic_error("drift rate violates rho bound");
    }
    if (breaks_.size() == breaks_.capacity() &&
        breaks_.size() < expected_breaks_) {
      breaks_.reserve(expected_breaks_);
    }
    Breakpoint& last = breaks_.back();
    last.rate = seg.rate;
    breaks_.push_back(
        {last.real + seg.duration, last.clock + seg.duration * seg.rate, seg.rate});
  }
}

void PhysicalClock::extend_clock(double clock_time) const {
  // Clock values are strictly increasing along breakpoints (rates > 0), so
  // extending real time far enough also covers any clock time.
  while (breaks_.back().clock < clock_time) {
    const double deficit = clock_time - breaks_.back().clock;
    // Advance real time generously; rate >= 1/(1+rho) so this terminates.
    extend_real(breaks_.back().real + deficit * (1.0 + rho_) + 1.0);
  }
}

std::size_t PhysicalClock::locate_real(double real_time) const {
  // Index of the last breakpoint with break.real <= real_time (0 if none).
  // Callers have already extended coverage past real_time.
  const std::size_t last = breaks_.size() - 1;
  std::size_t i = hint_real_ <= last ? hint_real_ : last;
  if (breaks_[i].real <= real_time) {
    if (i == last || real_time < breaks_[i + 1].real) return hint_real_ = i;
    ++i;  // the common forward step to the adjacent segment
    if (i == last || real_time < breaks_[i + 1].real) return hint_real_ = i;
  }
  const auto it = std::upper_bound(
      breaks_.begin(), breaks_.end(), real_time,
      [](double t, const Breakpoint& b) { return t < b.real; });
  i = it == breaks_.begin()
          ? 0
          : static_cast<std::size_t>(it - breaks_.begin()) - 1;
  return hint_real_ = i;
}

std::size_t PhysicalClock::locate_clock(double clock_time) const {
  const std::size_t last = breaks_.size() - 1;
  std::size_t i = hint_clock_ <= last ? hint_clock_ : last;
  if (breaks_[i].clock <= clock_time) {
    if (i == last || clock_time < breaks_[i + 1].clock) return hint_clock_ = i;
    ++i;
    if (i == last || clock_time < breaks_[i + 1].clock) return hint_clock_ = i;
  }
  const auto it = std::upper_bound(
      breaks_.begin(), breaks_.end(), clock_time,
      [](double c, const Breakpoint& b) { return c < b.clock; });
  i = it == breaks_.begin()
          ? 0
          : static_cast<std::size_t>(it - breaks_.begin()) - 1;
  return hint_clock_ = i;
}

std::size_t PhysicalClock::truncate_before(double real_time) {
  // Keep the segment containing real_time (the last breakpoint with
  // break.real <= real_time) and everything after it; the clock stays a
  // valid piecewise-linear function on [real_time, +inf).  The final
  // breakpoint is never removed — extension works off breaks_.back().
  std::size_t keep = breaks_.size() - 1;
  while (keep > 0 && breaks_[keep].real > real_time) --keep;
  if (keep == 0) return 0;
  breaks_.erase(breaks_.begin(),
                breaks_.begin() + static_cast<std::ptrdiff_t>(keep));
  trimmed_ += keep;
  // Hint caches index the vector directly: rebase, clamping positions that
  // pointed into the discarded prefix onto the first retained segment.
  hint_real_ = hint_real_ > keep ? hint_real_ - keep : 0;
  hint_clock_ = hint_clock_ > keep ? hint_clock_ - keep : 0;
  return keep;
}

double PhysicalClock::now(double real_time) const {
  extend_real(real_time);
  const Breakpoint& seg = breaks_[locate_real(real_time)];
  return seg.clock + (real_time - seg.real) * seg.rate;
}

bool PhysicalClock::affine_span(double t0, double t1, AffineSpan& out) const {
  extend_real(t1);
  const std::size_t i = locate_real(t0);
  // The segment covers [breaks_[i].real, breaks_[i+1].real); the last
  // breakpoint extends to +inf until lazily grown (extend_real above
  // guarantees coverage of t1, so i+1 existing with real <= t1 means a
  // rate change inside the window).
  if (i + 1 < breaks_.size() && breaks_[i + 1].real <= t1) return false;
  out.real = breaks_[i].real;
  out.clock = breaks_[i].clock;
  out.rate = breaks_[i].rate;
  return true;
}

double PhysicalClock::to_real(double clock_time) const {
  extend_clock(clock_time);
  const Breakpoint& seg = breaks_[locate_clock(clock_time)];
  return seg.real + (clock_time - seg.clock) / seg.rate;
}

}  // namespace wlsync::clk
