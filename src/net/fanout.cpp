#include "net/fanout.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wlsync::net {
namespace {

/// Buckets at most this large are left to the insertion pass.
constexpr std::uint32_t kInsertionCap = 16;

bool precedes(const RingItem& a, const RingItem& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

RingGeometry RingGeometry::for_band(double lo, double hi) {
  RingGeometry geometry;
  if (!(lo > 0.0) || !(hi >= lo)) return geometry;
  const double width = lo / kCellsPerFloor;
  const double needed = std::ceil(hi / width) + 4.0;
  if (!(needed <= kMaxCells)) return geometry;
  std::uint32_t cells = 1;
  while (cells < needed) cells <<= 1;
  geometry.floor = lo;
  geometry.width = width;
  geometry.cells = cells;
  return geometry;
}

void DeliveryRing::configure(const RingGeometry& geometry) {
  geometry_ = geometry;
  inv_width_ = geometry.enabled() ? 1.0 / geometry.width : 0.0;
  cells_.assign(geometry.cells, Cell{});
  reserve_scratch(kChunkItems);
}

void DeliveryRing::reserve_scratch(std::size_t items) {
  // Doubling capacity: the largest cell of a long run seldom finds the
  // scratch short.
  if (items <= sorted_.capacity()) return;
  const std::size_t capacity = std::max(items, 2 * sorted_.capacity());
  sorted_.reserve(capacity);
  ends_.reserve(capacity + 1);
  bucket_.reserve(capacity);
}

double DeliveryRing::seal_time(std::int64_t cell) const noexcept {
  return static_cast<double>(cell + 2) * geometry_.width - geometry_.floor;
}

std::uint32_t DeliveryRing::open_payload(const sim::Message& msg) {
  const std::uint32_t handle = payloads_.acquire();
  payloads_[handle] = Payload{msg, 0};
  return handle;
}

std::uint32_t DeliveryRing::take_chunk() {
  if (free_chunks_.empty()) {
    const auto first = static_cast<std::uint32_t>(slabs_.size()) * kChunksPerSlab;
    slabs_.push_back(std::make_unique<Chunk[]>(kChunksPerSlab));
    for (std::uint32_t k = kChunksPerSlab; k-- > 0;) {
      free_chunks_.push_back(first + k);
    }
  }
  const std::uint32_t id = free_chunks_.back();
  free_chunks_.pop_back();
  chunk(id).next = kNone;
  return id;
}

void DeliveryRing::release_cell(Cell& cell) {
  std::uint32_t left = cell.count;
  for (std::uint32_t id = cell.head; left != 0; id = chunk(id).next) {
    free_chunks_.push_back(id);
    left -= left < kChunkItems ? left : kChunkItems;
  }
  cell = Cell{};
}

void DeliveryRing::refuse(std::int64_t index) const {
  if (index < base_) {
    throw std::logic_error(
        "DeliveryRing: delivery lands in a sealed cell (delay below the "
        "A3 floor, or the clock ran backwards)");
  }
  throw std::logic_error("DeliveryRing: delivery beyond the ring's span");
}

void DeliveryRing::append(Cell& cell, const RingItem& item) {
  const std::uint32_t id = take_chunk();
  if (cell.count == 0) {
    cell.head = id;
  } else {
    chunk(cell.tail).next = id;
  }
  cell.tail = id;
  chunk(id).items[0] = item;
}

DeliveryRing::Key DeliveryRing::seal_next(double ref) {
  std::int64_t next = base_;
  while (cell_at(next).count == 0) ++next;  // in_cells_ > 0: bounded by R
  const double at = seal_time(next);
  if (!(at <= ref)) {
    // Not sealable yet.  Empty cells whose seal time has passed can no
    // longer receive anything: retire them so the span stays bounded.
    while (base_ < next && seal_time(base_) <= ref) ++base_;
    return {std::min(at, ref + (geometry_.floor - geometry_.width)), 0, true};
  }
  seal(next);
  base_ = next + 1;
  const RingItem& head = sorted_[pos_];
  return {head.time, head.seq, false};
}

void DeliveryRing::seal(std::int64_t index) {
  Cell& cell = cell_at(index);
  const std::uint32_t m = cell.count;
  reserve_scratch(m);
  sorted_.resize(m);
  pos_ = 0;
  RingItem* const out = sorted_.data();

  // Counting scatter into m equal buckets over the cell's width.  The
  // bucket index clamp(floor((t - lo) * m / w), 0, m - 1) never decreases
  // as t grows, so buckets are in time order and exact ties share one.
  const double lo = static_cast<double>(index) * geometry_.width;
  const double scale = static_cast<double>(m) * inv_width_;
  const double last = static_cast<double>(m - 1);
  ends_.assign(static_cast<std::size_t>(m) + 1, 0);
  bucket_.resize(m);
  std::size_t i = 0;
  visit_cell(cell, [&](const RingItem& item) {
    // Written so that NaN lands in bucket 0.
    const double x = (item.time - lo) * scale;
    const auto b = x >= 1.0 ? static_cast<std::uint32_t>(std::min(x, last))
                            : std::uint32_t{0};
    bucket_[i++] = b;
    ++ends_[b + 1];
  });
  std::uint32_t largest = 0;
  for (std::size_t b = 1; b <= m; ++b) {
    largest = std::max(largest, ends_[b]);
    ends_[b] += ends_[b - 1];
  }
  i = 0;
  visit_cell(cell, [&](const RingItem& item) {
    out[ends_[bucket_[i++]]++] = item;
  });
  release_cell(cell);
  in_cells_ -= m;

  // A clustered bucket (exact ties under kFast / kSlow) is sorted outright
  // unless already in order.
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
  // Insertion pass by (time, seq): the cell mixes senders, so tied times
  // need not arrive in seq order.  Buckets are already in time order, so
  // nothing moves across a bucket boundary.
  for (std::size_t k = 1; k < m; ++k) {
    if (!precedes(out[k], out[k - 1])) continue;
    const RingItem item = out[k];
    std::size_t j = k;
    for (; j > 0 && precedes(item, out[j - 1]); --j) out[j] = out[j - 1];
    out[j] = item;
  }
}

double DeliveryRing::min_time() const noexcept {
  if (pos_ < sorted_.size()) return sorted_[pos_].time;
  if (in_cells_ == 0) return std::numeric_limits<double>::infinity();
  std::int64_t next = base_;
  while (cell_at(next).count == 0) ++next;
  return cell_at(next).min_time;
}

}  // namespace wlsync::net
