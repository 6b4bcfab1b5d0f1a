#include "proc/arrival.h"

#include <algorithm>
#include <stdexcept>

#include "proc/reduce_kernels.h"

namespace wlsync::proc {

namespace {

/// One reduction workspace per executing thread: a serial run, each PDES
/// lane and each fast-path kernel worker reduce on their own copy, so no
/// two threads ever share one.
struct ReduceScratch {
  std::vector<double> values;         ///< the multiset a reduction clobbers
  std::vector<std::uint64_t> select;  ///< kernels::dual_rank_select's keys
};
thread_local ReduceScratch t_scratch;

/// The thread's scratch holding a copy of `values`, ready to be clobbered.
std::span<double> load_scratch(const std::vector<double>& values) {
  const std::span<double> a = thread_reduce_scratch(values.size());
  std::copy(values.begin(), values.end(), a.begin());
  return a;
}

}  // namespace

std::span<double> thread_reduce_scratch(std::size_t m) {
  std::vector<double>& buf = t_scratch.values;
  if (buf.size() < m) buf.resize(m);
  return {buf.data(), m};
}

void NeighborIndex::bind(std::span<const std::int32_t> neighbors,
                         std::int32_t n) {
  if (n < 1) throw std::invalid_argument("NeighborIndex: need n >= 1");
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const std::int32_t id = neighbors[slot];
    if (id < 0 || id >= n) {
      throw std::invalid_argument("NeighborIndex: neighbor id out of range");
    }
    if (slot > 0 && id <= neighbors[slot - 1]) {
      throw std::invalid_argument(
          "NeighborIndex: neighbor list not strictly ascending");
    }
  }
  // Strictly ascending ids in [0, n): n of them can only be 0..n-1.
  identity_ = neighbors.size() == static_cast<std::size_t>(n);
  if (identity_) {
    ids_.clear();
    ids_.shrink_to_fit();
  } else {
    ids_.assign(neighbors.begin(), neighbors.end());
  }
  size_ = neighbors.size();
  bound_ = true;
}

void ArrivalArena::bind(std::span<const std::int32_t> neighbors,
                        std::int32_t n, double initial) {
  index_.bind(neighbors, n);
  values_.assign(neighbors.size(), initial);
  bound_ = true;
  memo_valid_ = false;
  ++rebinds_;
}

void ArrivalArena::fill(double value) {
  memo_valid_ = false;
  std::fill(values_.begin(), values_.end(), value);
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
  // reduce() keeps the sorted slice [f, m-f); its min is the f-th order
  // statistic and its max the (m-1-f)-th.  Small neighborhoods sort a copy
  // with the branchless network and read both ranks directly; larger ones
  // run the radix dual-rank select straight off the slots — either route
  // yields the identical order-statistic doubles (ties included) in O(m)
  // work with no allocation once the thread's scratch has grown.
  double lo;
  double hi;
  if (m <= kernels::kMaxNetworkSize) {
    const std::span<double> a = load_scratch(values_);
    kernels::small_sort_network(a.data(), m);
    lo = a[f];
    hi = a[m - 1 - f];
  } else {
    const auto [sel_lo, sel_hi] = kernels::dual_rank_select(
        values_.data(), m, f, m - 1 - f, t_scratch.select);
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
  const std::span<double> a = load_scratch(values_);
  if (m <= kernels::kMaxNetworkSize) {
    kernels::small_sort_network(a.data(), m);
  } else {
    std::sort(a.begin(), a.end());
  }
  // ms::mean over the reduce() slice accumulates ascending; do the same so
  // the floating-point sum is bit-identical.
  double sum = 0.0;
  for (std::size_t i = f; i < m - f; ++i) sum += a[i];
  return sum / static_cast<double>(m - 2 * f);
}

}  // namespace wlsync::proc
