#pragma once
// Branchless, vectorization-friendly reduction kernels for the round hot
// path (ISSUE 6).
//
// Every averaging algorithm reduces one small multiset per process per
// round; on the paper's full mesh that multiset has n elements and the
// reduction is the second-largest per-round cost after arrival ingestion.
// The kernels here replace the branchy scalar paths with forms the
// auto-vectorizer lowers to packed min/max and packed compares at the
// baseline x86-64 target (SSE2 — CMakeLists deliberately sets no -march,
// so executions stay bit-identical across hosts):
//
//   * small_sort_network: branchless sorting networks (Batcher-style
//     compare-exchange as std::min/std::max pairs) for m <= 16, the degree
//     range of every sparse-topology cell and the k-regular default;
//   * dual_rank_select: an exact radix select for two ranks — values map
//     to order-preserving 64-bit keys, one L1-resident histogram over the
//     key range finds the one or two buckets holding the ranks, and only
//     those are gathered (predicated copies) and refined.  Linear in m
//     with no data-dependent branch in the per-value passes, where a
//     comparison select pays a misprediction per partition step;
//   * affine_arrival_eval: the fast-path delivery kernel — evaluates a
//     receiver's local time (one affine clock segment + constant CORR) over
//     a batch of delivery instants with exactly the scalar expression
//     PhysicalClock::now + Context::local_time compute, term for term.
//
// Value-exactness contract: order statistics are properties of the sorted
// multiset, so ANY correct selection or sort yields the identical doubles
// the scalar std::nth_element / std::sort paths yield, including under
// heavy ties (duplicated arrival times); bench_micro --smoke gates this
// against randomized, tie-heavy and outlier-clustered inputs, and
// tests/arrival_test.cpp pins the select against std::sort and the
// reductions that consume these kernels against ms:: bit-for-bit.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wlsync::proc::kernels {

/// Largest m small_sort_network accepts (covers every sorting network we
/// instantiate; larger multisets go through dual_rank_select / std::sort,
/// and dual_rank_select finishes its small buckets here).
inline constexpr std::size_t kMaxNetworkSize = 16;

/// Sorts a[0..m) ascending with a branchless compare-exchange network.
/// Precondition: 0 < m <= kMaxNetworkSize.  Produces exactly the sorted
/// order std::sort produces (the value sequence of a sorted multiset is
/// unique, ties included).
void small_sort_network(double* a, std::size_t m);

/// Returns {a-sorted[lo], a-sorted[hi]} for the multiset a[0..m) (absolute
/// ranks, lo <= hi < m); a[] is only read.  The values map to
/// order-preserving 64-bit keys in `keys`, then each level splits
/// [min key, max key] into at most min(m, 2048) equal-width buckets, counts
/// them, and gathers the one or two buckets holding the ranks; a bucket of
/// more than 16 keys goes another level down on its own, narrower key
/// range, and smaller ones finish in small_sort_network.  `keys` is
/// caller-owned scratch, grown to 2m + 1 keys (reused across calls so
/// steady-state rounds allocate nothing).  The doubles returned equal
/// std::sort's at those ranks, value for value: the keys order -0.0 before
/// +0.0, which compare equal, and NaNs past the infinity of their sign.
[[nodiscard]] std::pair<double, double> dual_rank_select(
    const double* a, std::size_t m, std::size_t lo, std::size_t hi,
    std::vector<std::uint64_t>& keys);

/// The round fast path's delivery kernel: for each i,
///   dst[i] = (seg_clock + (t[i] - seg_real) * seg_rate) + corr
/// — the exact expression (and FP evaluation order) of
/// PhysicalClock::now(t) followed by Context::local_time()'s `+ CORR`, so
/// the arrival doubles are bit-identical to the event engine's per-message
/// path whenever every t[i] lies inside the given clock segment.  Plain
/// mul+add at the baseline target (no FMA contraction: x86-64 SSE2 has no
/// fused instruction), trivially vectorizable.
inline void affine_arrival_eval(double* dst, const double* t, std::size_t m,
                                double seg_real, double seg_clock,
                                double seg_rate, double corr) {
  for (std::size_t i = 0; i < m; ++i) {
    dst[i] = (seg_clock + (t[i] - seg_real) * seg_rate) + corr;
  }
}

/// Staggered-broadcast variant (Section 9.3): the receiver normalizes each
/// arrival by the sender's known offset, so
///   dst[i] = ((seg_clock + (t[i] - seg_real) * seg_rate) + corr) - off[i]
/// — affine_arrival_eval followed by WelchLynchProcess::on_message's
/// `arrival -= from * stagger`, term for term, keeping the doubles
/// bit-identical to the event engine's staggered per-message path.
inline void affine_arrival_eval_offset(double* dst, const double* t,
                                       const double* off, std::size_t m,
                                       double seg_real, double seg_clock,
                                       double seg_rate, double corr) {
  for (std::size_t i = 0; i < m; ++i) {
    dst[i] = ((seg_clock + (t[i] - seg_real) * seg_rate) + corr) - off[i];
  }
}

}  // namespace wlsync::proc::kernels
