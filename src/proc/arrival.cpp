#include "proc/arrival.h"

#include <algorithm>
#include <stdexcept>

#include "proc/reduce_kernels.h"

namespace wlsync::proc {

void NeighborIndex::bind(std::span<const std::int32_t> neighbors,
                         std::int32_t n) {
  if (n < 1) throw std::invalid_argument("NeighborIndex: need n >= 1");
  slot_of_.assign(static_cast<std::size_t>(n), -1);
  identity_ = neighbors.size() == static_cast<std::size_t>(n);
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const std::int32_t id = neighbors[slot];
    if (id < 0 || id >= n) {
      throw std::invalid_argument("NeighborIndex: neighbor id out of range");
    }
    identity_ = identity_ && static_cast<std::size_t>(id) == slot;
    slot_of_[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(slot);
  }
  size_ = neighbors.size();
  bound_ = true;
}

void ArrivalArena::bind(std::span<const std::int32_t> neighbors,
                        std::int32_t n, double initial) {
  index_.bind(neighbors, n);
  values_.assign(neighbors.size(), initial);
  scratch_.reserve(neighbors.size());
  select_tmp_.reserve(neighbors.size());
  bound_ = true;
  memo_valid_ = false;
  ++rebinds_;
}

void ArrivalArena::fill(double value) {
  memo_valid_ = false;
  std::fill(values_.begin(), values_.end(), value);
}

void ArrivalArena::load_scratch() {
  // assign() into retained capacity: no allocation once scratch_ has grown
  // to the (fixed) neighborhood size.
  scratch_.assign(values_.begin(), values_.end());
}

void ArrivalArena::precompute(Reduction kind, std::size_t f) {
  if (values_.size() < 2 * f + 1) return;
  memo_value_ = compute(kind, f);
  memo_kind_ = kind;
  memo_f_ = f;
  memo_valid_ = true;
}

double ArrivalArena::midpoint_reduced(std::size_t f) {
  return reduced(Reduction::kMidpoint, f);
}

double ArrivalArena::mean_reduced(std::size_t f) {
  return reduced(Reduction::kMean, f);
}

double ArrivalArena::reduced(Reduction kind, std::size_t f) {
  const bool hit = memo_valid_ && memo_kind_ == kind && memo_f_ == f;
  memo_valid_ = false;  // one-shot, whether it matched or not
  const double value = hit ? memo_value_ : compute(kind, f);
  ++reductions_;
  return value;
}

double ArrivalArena::compute(Reduction kind, std::size_t f) {
  return kind == Reduction::kMidpoint ? compute_midpoint(f) : compute_mean(f);
}

double ArrivalArena::compute_midpoint(std::size_t f) {
  const std::size_t m = values_.size();
  if (m < 2 * f + 1) {
    throw std::invalid_argument("ArrivalArena: reduce needs |U| >= 2f+1");
  }
  load_scratch();
  // reduce() keeps the sorted slice [f, m-f); its min is the f-th order
  // statistic and its max the (m-1-f)-th.  Small neighborhoods sort with
  // the branchless network and read both ranks directly; larger ones run
  // the vectorized dual-rank select — either route yields the identical
  // order-statistic doubles (ties included) in O(m)-ish work with no
  // allocation past the first round.
  double lo;
  double hi;
  if (m <= kernels::kMaxNetworkSize) {
    kernels::small_sort_network(scratch_.data(), m);
    lo = scratch_[f];
    hi = scratch_[m - 1 - f];
  } else {
    const auto [sel_lo, sel_hi] = kernels::dual_rank_select(
        scratch_.data(), m, f, m - 1 - f, select_tmp_);
    lo = sel_lo;
    hi = sel_hi;
  }
  // Same operands as ms::mid(): 0.5 * (max + min).
  return 0.5 * (hi + lo);
}

double ArrivalArena::compute_mean(std::size_t f) {
  const std::size_t m = values_.size();
  if (m < 2 * f + 1) {
    throw std::invalid_argument("ArrivalArena: reduce needs |U| >= 2f+1");
  }
  load_scratch();
  if (m <= kernels::kMaxNetworkSize) {
    kernels::small_sort_network(scratch_.data(), m);
  } else {
    std::sort(scratch_.begin(), scratch_.end());
  }
  // ms::mean over the reduce() slice accumulates ascending; do the same so
  // the floating-point sum is bit-identical.
  double sum = 0.0;
  for (std::size_t i = f; i < m - f; ++i) sum += scratch_[i];
  return sum / static_cast<double>(m - 2 * f);
}

}  // namespace wlsync::proc
