#include "proc/reduce_kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace wlsync::proc::kernels {

namespace {

/// One compare-exchange: after the call a[i] <= a[j].  std::min/std::max on
/// doubles lower to minsd/maxsd (packed when the network's parallel layers
/// unroll), with no data-dependent branch.
inline void cmpx(double* a, std::size_t i, std::size_t j) {
  const double lo = std::min(a[i], a[j]);
  const double hi = std::max(a[i], a[j]);
  a[i] = lo;
  a[j] = hi;
}

// Optimal-depth networks for the sizes the sparse-topology reductions see
// most (Knuth 5.3.4 / Batcher merge-exchange for the rest).  Each layer's
// exchanges touch disjoint indices, so the compiler is free to execute
// them as packed min/max.

void sort4(double* a) {
  cmpx(a, 0, 1); cmpx(a, 2, 3);
  cmpx(a, 0, 2); cmpx(a, 1, 3);
  cmpx(a, 1, 2);
}

void sort8(double* a) {
  cmpx(a, 0, 1); cmpx(a, 2, 3); cmpx(a, 4, 5); cmpx(a, 6, 7);
  cmpx(a, 0, 2); cmpx(a, 1, 3); cmpx(a, 4, 6); cmpx(a, 5, 7);
  cmpx(a, 1, 2); cmpx(a, 5, 6); cmpx(a, 0, 4); cmpx(a, 3, 7);
  cmpx(a, 1, 5); cmpx(a, 2, 6);
  cmpx(a, 1, 4); cmpx(a, 3, 6);
  cmpx(a, 2, 4); cmpx(a, 3, 5);
  cmpx(a, 3, 4);
}

/// Batcher odd-even mergesort for arbitrary m (Knuth 5.3.4, iterative
/// form).  The comparator schedule is data-independent — the i/j loop
/// bounds depend only on m — so the body stays branchless min/max; the
/// index guard simply omits comparators that fall off the end for
/// non-power-of-two sizes (equivalent to padding with +inf sentinels).
/// Both ends of a comparator must lie in one 2p-block; 2p is a power of
/// two, so that is a test of their high bits, (x ^ y) < 2p, not two
/// integer divisions (which cost 3x the whole sort at m = 16).
void batcher_sort(double* a, std::size_t m) {
  std::size_t t = 1;
  while (t < m) t *= 2;  // padded width
  for (std::size_t p = 1; p < t; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < t; j += 2 * k) {
        for (std::size_t i = 0; i < k; ++i) {
          if (((i + j) ^ (i + j + k)) < 2 * p && i + j + k < m) {
            cmpx(a, i + j, i + j + k);
          }
        }
      }
    }
  }
}

void insert_tail(double* a, std::size_t sorted, std::size_t m) {
  for (std::size_t i = sorted; i < m; ++i) {
    const double v = a[i];
    std::size_t j = i;
    while (j > 0 && a[j - 1] > v) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = v;
  }
}

/// Order-preserving key: unsigned order of the keys is the numeric order of
/// the doubles.  Negatives flip every bit, non-negatives only the sign bit,
/// so -0.0 sorts just below +0.0 (equal as doubles, either is a correct
/// answer) and NaNs past the infinity of their sign.  A bijection:
/// from_key returns the exact bits.
inline std::uint64_t order_key(double v) {
  const auto u = std::bit_cast<std::uint64_t>(v);
  const auto negative_mask =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(u) >> 63);
  return u ^ (negative_mask | (std::uint64_t{1} << 63));
}

inline double from_key(std::uint64_t k) {
  const std::uint64_t mask =
      (k >> 63) != 0 ? std::uint64_t{1} << 63 : ~std::uint64_t{0};
  return std::bit_cast<double>(k ^ mask);
}

/// Smallest and largest of k[0..n), n >= 1, on four independent
/// accumulator pairs so the compare chains overlap.
std::pair<std::uint64_t, std::uint64_t> key_range(const std::uint64_t* k,
                                                  std::size_t n) {
  std::array<std::uint64_t, 4> lo;
  std::array<std::uint64_t, 4> hi;
  lo.fill(k[0]);
  hi.fill(k[0]);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      lo[j] = std::min(lo[j], k[i + j]);
      hi[j] = std::max(hi[j], k[i + j]);
    }
  }
  for (; i < n; ++i) {
    lo[0] = std::min(lo[0], k[i]);
    hi[0] = std::max(hi[0], k[i]);
  }
  return {std::min({lo[0], lo[1], lo[2], lo[3]}),
          std::max({hi[0], hi[1], hi[2], hi[3]})};
}

/// Largest histogram: 2^11 counts, 8 KiB, resident in L1 next to the data.
constexpr unsigned kMaxDigitBits = 11;

/// {rank lo, rank hi} of the keys src[0..n), lo <= hi < n, as doubles.
/// `spare` holds n + 1 keys; both buffers are clobbered.  A level that goes
/// down swaps the two, which keeps the sizes: the new window has at most
/// n - 1 keys and the old src holds n.
///
/// Each level splits the window's key range [kmin, kmax] into at most
/// 2^bits <= n equal-width buckets, counts them, and keeps only the one or
/// two buckets holding the wanted ranks.  kmin lands in the first bucket
/// and kmax in a later one, so every bucket holds at most n - 1 keys and
/// the window shrinks at every level.
std::pair<double, double> select_ranks(std::uint64_t* src,
                                       std::uint64_t* spare, std::size_t n,
                                       std::size_t lo, std::size_t hi) {
  // Only the first `buckets` counts of a level are zeroed and read.
  std::array<std::uint32_t, std::size_t{1} << kMaxDigitBits> count;
  for (;;) {
    if (n <= kMaxNetworkSize) {
      std::array<double, kMaxNetworkSize> w;
      for (std::size_t i = 0; i < n; ++i) w[i] = from_key(src[i]);
      small_sort_network(w.data(), n);
      return {w[lo], w[hi]};
    }
    const auto [kmin, kmax] = key_range(src, n);
    if (kmin == kmax) return {from_key(kmin), from_key(kmin)};

    const std::uint64_t span = kmax - kmin;
    const auto bits = std::min(
        static_cast<unsigned>(std::bit_width(n)) - 1, kMaxDigitBits);
    const auto span_bits = static_cast<unsigned>(std::bit_width(span));
    const unsigned shift = span_bits > bits ? span_bits - bits : 0;
    const auto digit = [kmin, shift](std::uint64_t k) {
      return static_cast<std::size_t>((k - kmin) >> shift);
    };
    const std::size_t buckets = static_cast<std::size_t>(span >> shift) + 1;
    std::fill_n(count.begin(), buckets, 0u);
    for (std::size_t i = 0; i < n; ++i) ++count[digit(src[i])];

    // Buckets of the two ranks, and how many keys precede each.
    std::size_t b = 0;
    std::size_t before = 0;
    while (before + count[b] <= lo) before += count[b++];
    const std::size_t b_lo = b;
    const std::size_t before_lo = before;
    while (before + count[b] <= hi) before += count[b++];
    const std::size_t b_hi = b;
    const std::size_t before_hi = before;

    if (b_lo == b_hi) {
      // Both ranks in one bucket: gather it and go one level down.  The
      // store is unconditional and only the cursor is predicated; a
      // non-member's write lands at spare[c] <= spare[n - 1] and is
      // overwritten by the next member.
      std::size_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t k = src[i];
        spare[c] = k;
        c += digit(k) == b_lo ? 1 : 0;
      }
      std::swap(src, spare);
      n = c;
      lo -= before_lo;
      hi -= before_lo;
      continue;
    }

    // The ranks separated.  Gather both buckets into disjoint regions of
    // spare, [0, c_lo) and [c_lo + 1, c_lo + 1 + c_hi), with every
    // non-member write of either stream sent to the gap slot c_lo between
    // them: the largest index written is c_lo + c_hi <= n.  Then finish
    // each bucket with src as its spare.
    const std::size_t c_lo = count[b_lo];
    const std::size_t c_hi = count[b_hi];
    std::size_t pl = 0;
    std::size_t ph = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src[i];
      const std::size_t d = digit(k);
      const bool in_lo = d == b_lo;
      const bool in_hi = d == b_hi;
      spare[in_lo ? pl : c_lo] = k;
      pl += in_lo ? 1 : 0;
      spare[in_hi ? c_lo + 1 + ph : c_lo] = k;
      ph += in_hi ? 1 : 0;
    }
    const std::size_t k_lo = lo - before_lo;
    const std::size_t k_hi = hi - before_hi;
    const double lo_val = select_ranks(spare, src, c_lo, k_lo, k_lo).first;
    const double hi_val =
        select_ranks(spare + c_lo + 1, src, c_hi, k_hi, k_hi).first;
    return {lo_val, hi_val};
  }
}

}  // namespace

void small_sort_network(double* a, std::size_t m) {
  if (m == 0 || m > kMaxNetworkSize) {
    throw std::invalid_argument("small_sort_network: need 0 < m <= 16");
  }
  if (m > 8) { batcher_sort(a, m); return; }
  if (m == 8) { sort8(a); return; }
  if (m >= 4) { sort4(a); insert_tail(a, 4, m); return; }
  insert_tail(a, 1, m);
}

std::pair<double, double> dual_rank_select(const double* a, std::size_t m,
                                           std::size_t lo, std::size_t hi,
                                           std::vector<std::uint64_t>& keys) {
  if (m == 0 || lo > hi || hi >= m) {
    throw std::invalid_argument("dual_rank_select: bad ranks");
  }
  if (keys.size() < 2 * m + 1) keys.resize(2 * m + 1);
  std::uint64_t* const src = keys.data();
  for (std::size_t i = 0; i < m; ++i) src[i] = order_key(a[i]);
  return select_ranks(src, src + m, m, lo, hi);
}

}  // namespace wlsync::proc::kernels
