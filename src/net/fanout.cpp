#include "net/fanout.h"

#include <algorithm>

namespace wlsync::net {
namespace {

bool precedes(const FanoutDelivery& a, const FanoutDelivery& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

void FanoutSorter::sort(std::vector<FanoutDelivery>& deliveries, double lo,
                        double hi) {
  const std::size_t m = deliveries.size();
  if (m < 2) return;
  // A window of no positive width sends every delivery to bucket 0.
  const double width = hi - lo;
  const double scale = width > 0.0 ? static_cast<double>(m) / width : 0.0;
  const double last = static_cast<double>(m - 1);

  // Counting scatter.  ends_[b + 1] first counts bucket b; the prefix sum
  // turns ends_[b] into bucket b's first slot, and each placement advances
  // it, so it ends as bucket b's end.
  ends_.assign(m + 1, 0);
  bucket_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    // clamp(floor(x), 0, m - 1), written so that NaN lands in bucket 0.
    const double x = (deliveries[i].time - lo) * scale;
    const auto b = x >= 1.0 ? static_cast<std::uint32_t>(std::min(x, last))
                            : std::uint32_t{0};
    bucket_[i] = b;
    ++ends_[b + 1];
  }
  std::uint32_t largest = 0;
  for (std::size_t b = 1; b <= m; ++b) {
    largest = std::max(largest, ends_[b]);
    ends_[b] += ends_[b - 1];
  }
  scattered_.resize(m);
  FanoutDelivery* const out = scattered_.data();
  for (std::size_t i = 0; i < m; ++i) out[ends_[bucket_[i]]++] = deliveries[i];

  // A clustered bucket is sorted outright (already sorted is the common
  // case: exact ties under kFast / kSlow arrive in seq order).
  if (largest > kInsertionCap) {
    std::size_t first = 0;
    for (std::size_t b = 0; first < m; ++b) {
      const std::size_t end = ends_[b];
      if (end - first > kInsertionCap &&
          !std::is_sorted(out + first, out + end, precedes)) {
        std::sort(out + first, out + end, precedes);
      }
      first = end;
    }
  }
  // Stable insertion pass by time alone.  Buckets are already in time
  // order, so nothing moves across a bucket boundary: this finishes every
  // small bucket in place, equal times keep the seq order the stable
  // scatter gave them, and a sorted large bucket costs one compare per
  // entry.
  for (std::size_t i = 1; i < m; ++i) {
    if (!(out[i].time < out[i - 1].time)) continue;
    const FanoutDelivery d = out[i];
    std::size_t j = i;
    for (; j > 0 && d.time < out[j - 1].time; --j) out[j] = out[j - 1];
    out[j] = d;
  }
  deliveries.swap(scattered_);
}

}  // namespace wlsync::net
