#pragma once
// The delivery ring: every in-flight message of one engine lane, released
// in exact (time, seq) order without a scheduler entry per delivery.
//
// Three senders fill it: every broadcast and point-to-point send, every
// Byzantine multicast, and — on a PDES lane — the deliveries other lanes
// sent it (see "Cross-lane items" below).  One scheduler entry per
// recipient would cost a heap sift per delivery; one entry per fan-out
// still re-arms once per delivery when n fan-outs interleave (Section 4's
// round: all n processes broadcast within beta of each other).  The ring
// instead exploits A3's lookahead: every delay lies in [delta - eps,
// delta + eps], so nothing sent at or after time t is delivered before
// t + D, with D = delta - eps - tol (tol is the engine's delay tolerance).
//
// Geometry.  Time is cut into cells of width w = D / 64, cell c covering
// [c w, (c + 1) w); R (a power of two) cells, with R >= (delta + eps +
// tol) / w + 4, hold every delivery in flight, cell c in slot c mod R.  A
// send appends its deliveries, unsorted, to their cells.  Cell c is
// *sealed* once the lane clock reaches seal_time(c) = (c + 2) w - D: every
// later send lands at or after (c + 2) w, a full cell beyond c, so the
// one-cell guard band absorbs floor() and floating-point rounding, and no
// delivery can ever join a sealed cell.  Sealing orders the cell by (time,
// seq) into one shared sort buffer (a counting scatter over the cell's
// width plus an insertion pass) and returns its chunks; cells are sealed
// lazily, one at a time, when the previous sealed cell has run dry.
//
// The lane keeps ONE scheduler entry for the whole ring (Simulator::Lane),
// keyed by next_key(): the sealed head's exact (time, seq), or — when the
// next non-empty cell cannot be sealed yet — a *seal entry* at that cell's
// seal time with seq 0, which sorts below every item of the cell, is not an
// event, and neither moves the lane clock nor fires observers.  A send that
// lands in an earlier cell after the entry was keyed must still find the
// entry in time, so a seal entry is never later than ref + D - w (ref = the
// lane clock when it was keyed): every such delivery lies at or after
// ref + D.  A sealed head never needs re-keying, since later sends land
// beyond its cell.
//
// Cross-lane items.  A delivery another lane sent was not drawn at this
// lane's clock, so it may land sooner than clock + D, even in a sealed
// cell.  push_remote takes it into any unsealed cell of the span and
// refuses it otherwise; the lane then gives it a scheduler entry of its
// own.  Either way it runs in (time, seq) order.
//
// Memory.  Items live in fixed 128-item chunks from one ring-wide free
// list, allocated 16 chunks to a slab, and each send stores its message
// once (a payload shared by its items, released after its last delivery),
// so a steady-state round allocates nothing once the chunk pool has
// reached its high-water mark.
//
// When the band is too wide for the geometry (R > 2^13, or D <= 0 as with
// delta = eps) the ring is disabled and the lane schedules one event per
// recipient instead.  Sequence numbers are the ones one event per recipient
// would carry, so the global (time, tier, seq) order — including exact ties
// under extremal delay models — is the per-recipient one
// (tests/topology_test.cpp checks it against an order oracle).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/event_pool.h"
#include "sim/message.h"

namespace wlsync::net {

/// One in-flight delivery.
struct RingItem {
  double time = 0.0;          ///< real delivery time (send time + link delay)
  std::uint64_t seq = 0;      ///< the seq a per-recipient event would carry
  std::int32_t to = -1;
  std::uint32_t payload = 0;  ///< the message, shared by one send's items
};

/// Cell layout for an A3 delay band [lo, hi] (lo = delta - eps - tol,
/// hi = delta + eps + tol).  cells == 0 means the band is too wide for the
/// ring and the lane schedules per recipient.
struct RingGeometry {
  double floor = 0.0;       ///< D: no delivery is sooner than send + D
  double width = 0.0;       ///< w = D / kCellsPerFloor
  std::uint32_t cells = 0;  ///< R, a power of two; 0 = disabled

  static constexpr std::uint32_t kCellsPerFloor = 64;
  static constexpr std::uint32_t kMaxCells = std::uint32_t{1} << 13;

  [[nodiscard]] static RingGeometry for_band(double lo, double hi);
  [[nodiscard]] bool enabled() const noexcept { return cells != 0; }
};

class DeliveryRing {
 public:
  static constexpr std::uint32_t kChunkItems = 128;
  static constexpr std::uint32_t kChunksPerSlab = 16;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Where the lane's scheduler entry must sit (tier 0).  seal == true
  /// marks a seal entry: seq is 0 and no item is due at `time`.
  struct Key {
    double time = 0.0;
    std::uint64_t seq = 0;
    bool seal = false;
  };

  DeliveryRing() = default;
  DeliveryRing(const DeliveryRing&) = delete;
  DeliveryRing& operator=(const DeliveryRing&) = delete;

  /// Sets the cell layout; the ring must be empty.
  void configure(const RingGeometry& geometry);
  [[nodiscard]] const RingGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] bool enabled() const noexcept { return geometry_.enabled(); }

  [[nodiscard]] bool empty() const noexcept {
    return pos_ == sorted_.size() && in_cells_ == 0;
  }

  /// Stores one send's message; its items reference the returned handle,
  /// which is released after the last of them is delivered or drained.
  /// A send with no item must not open a payload.
  [[nodiscard]] std::uint32_t open_payload(const sim::Message& msg);

  /// Appends a delivery at `time` of a message sent at `now` (no earlier
  /// than any clock a cell was sealed at).  Throws std::logic_error when
  /// the delivery would land in a sealed cell or beyond the ring's span —
  /// a delay below the band's floor, or a clock that ran backwards.
  void push(double now, double time, std::uint64_t seq, std::int32_t to,
            std::uint32_t payload) {
    // An empty ring has no sealed cell to protect: move its base up to the
    // first cell a send at `now` can reach, so the span check holds however
    // long the ring sat idle.
    if (empty()) base_ = std::max(base_, cell_of(now + geometry_.floor) - 1);
    const std::int64_t index = cell_of(time);
    if (!spans(index)) refuse(index);
    place(index, {time, seq, to, payload});
  }

  /// The cross-lane accept path: appends a delivery at `time` that another
  /// lane sent, so it may land sooner than now + D (though never before
  /// `now`, the earliest the lane will still run anything).  Returns false and stores nothing when its
  /// cell is sealed or beyond the span; the caller schedules it on its own
  /// then.  An accepted item shares `payload` when that handle (kNone to
  /// start) holds the same message — consecutive items of one send — and
  /// otherwise opens a fresh one and stores it in `payload`.
  bool push_remote(double now, double time, std::uint64_t seq,
                   std::int32_t to, const sim::Message& msg,
                   std::uint32_t& payload) {
    const std::int64_t index = cell_of(time);
    // As in push, but the base must not rise past the item's own cell.
    if (empty()) {
      base_ = std::max(
          base_, std::min(index, cell_of(now + geometry_.floor)) - 1);
    }
    if (!spans(index)) return false;
    if (payload == kNone || !same_message(payloads_[payload].msg, msg)) {
      payload = open_payload(msg);
    }
    place(index, {time, seq, to, payload});
    return true;
  }

  /// The key of the earliest pending delivery, given that nothing will be
  /// sent before `ref`: seals the next non-empty cell first if its seal
  /// time has come, and otherwise returns a seal entry.  The ring must not
  /// be empty.
  [[nodiscard]] Key next_key(double ref) {
    if (pos_ == sorted_.size()) return seal_next(ref);
    return {sorted_[pos_].time, sorted_[pos_].seq, false};
  }

  /// The sealed head; valid right after next_key returned a non-seal key.
  [[nodiscard]] const RingItem& front() const noexcept { return sorted_[pos_]; }
  /// Removes the sealed head and returns its message.
  sim::Message pop_front() { return take(sorted_[pos_++]); }

  /// The exact time of the earliest pending delivery (+inf when empty) —
  /// what a seal entry stands in front of.  Reads per-cell minima kept at
  /// insertion; seals nothing.
  [[nodiscard]] double min_time() const noexcept;

  /// Calls fn(item, message) for every pending delivery, in no particular
  /// order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = pos_; i < sorted_.size(); ++i) {
      fn(sorted_[i], payloads_[sorted_[i].payload].msg);
    }
    for (const Cell& cell : cells_) {
      visit_cell(cell, [&](const RingItem& item) {
        fn(item, payloads_[item.payload].msg);
      });
    }
  }

  /// Removes every pending delivery, calling fn(item, message) for each in
  /// no particular order (un-batching them into per-recipient events).
  template <typename Fn>
  void drain(Fn&& fn) {
    while (pos_ < sorted_.size()) {
      const RingItem item = sorted_[pos_];
      fn(item, pop_front());
    }
    sorted_.clear();
    pos_ = 0;
    for (Cell& cell : cells_) {
      visit_cell(cell, [&](const RingItem& item) { fn(item, take(item)); });
      release_cell(cell);
    }
    in_cells_ = 0;
  }

  /// Cell index of a delivery time: floor(time / w), monotone in time.
  [[nodiscard]] std::int64_t cell_of(double time) const noexcept {
    // floor() without the libm call: truncate, then step down for a
    // negative fraction.
    const double x = time * inv_width_;
    const auto cell = static_cast<std::int64_t>(x);
    return cell - (x < static_cast<double>(cell) ? 1 : 0);
  }
  /// The lane clock from which cell `cell` may be sealed.
  [[nodiscard]] double seal_time(std::int64_t cell) const noexcept;

  /// Heap allocations made for item chunks so far: one per slab of
  /// kChunksPerSlab chunks (the pool's high-water mark).
  [[nodiscard]] std::uint64_t chunk_allocs() const noexcept {
    return slabs_.size();
  }

 private:
  struct Chunk {
    RingItem items[kChunkItems];
    std::uint32_t next = kNone;
  };
  struct Cell {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t count = 0;
    double min_time = std::numeric_limits<double>::infinity();
  };
  struct Payload {
    sim::Message msg;
    std::uint32_t pending = 0;  ///< items not yet delivered or drained
  };

  /// Calls fn(item) for the cell's items in insertion order.
  template <typename Fn>
  void visit_cell(const Cell& cell, Fn&& fn) const {
    std::uint32_t left = cell.count;
    for (std::uint32_t id = cell.head; left != 0; id = chunk(id).next) {
      const std::uint32_t used = left < kChunkItems ? left : kChunkItems;
      const RingItem* items = chunk(id).items;
      for (std::uint32_t i = 0; i < used; ++i) fn(items[i]);
      left -= used;
    }
  }

  [[nodiscard]] Chunk& chunk(std::uint32_t id) noexcept {
    return slabs_[id / kChunksPerSlab][id % kChunksPerSlab];
  }
  [[nodiscard]] const Chunk& chunk(std::uint32_t id) const noexcept {
    return slabs_[id / kChunksPerSlab][id % kChunksPerSlab];
  }
  [[nodiscard]] Cell& cell_at(std::int64_t cell) noexcept {
    return cells_[static_cast<std::size_t>(cell) & (cells_.size() - 1)];
  }
  [[nodiscard]] const Cell& cell_at(std::int64_t cell) const noexcept {
    return cells_[static_cast<std::size_t>(cell) & (cells_.size() - 1)];
  }
  /// Whether cell `index` may still receive: unsealed and inside the span.
  [[nodiscard]] bool spans(std::int64_t index) const noexcept {
    return index >= base_ &&
           index - base_ < static_cast<std::int64_t>(cells_.size());
  }
  /// Appends `item` to cell `index`, which spans() admits.
  void place(std::int64_t index, const RingItem& item) {
    Cell& cell = cell_at(index);
    const std::uint32_t fill = cell.count % kChunkItems;
    if (fill == 0) {
      append(cell, item);
    } else {
      chunk(cell.tail).items[fill] = item;
    }
    ++cell.count;
    if (item.time < cell.min_time) cell.min_time = item.time;
    ++in_cells_;
    ++payloads_[item.payload].pending;
  }
  /// Field-wise identity; the value bitwise, so -0.0 and 0.0 differ.
  [[nodiscard]] static bool same_message(const sim::Message& a,
                                         const sim::Message& b) noexcept {
    return a.kind == b.kind && a.from == b.from && a.tag == b.tag &&
           std::bit_cast<std::uint64_t>(a.value) ==
               std::bit_cast<std::uint64_t>(b.value) &&
           a.aux == b.aux;
  }
  std::uint32_t take_chunk();
  /// Starts a new chunk for `cell` holding `item`.
  void append(Cell& cell, const RingItem& item);
  /// Throws for a delivery into cell `index`, outside [base_, base_ + R).
  [[noreturn]] void refuse(std::int64_t index) const;
  /// Returns the cell's chunks to the free list and empties it.
  void release_cell(Cell& cell);
  /// Makes the sort buffer and seal scratch hold `items` (a cell's worth;
  /// at least one chunk's from configure on).
  void reserve_scratch(std::size_t items);
  /// next_key once the sort buffer is exhausted: seals the next non-empty
  /// cell if `ref` allows, and otherwise keys a seal entry.
  Key seal_next(double ref);
  /// Orders cell `cell`'s items into the sort buffer; the buffer must be
  /// exhausted.
  void seal(std::int64_t cell);
  /// The message of a delivered or drained item; releases its payload
  /// after the last one.
  sim::Message take(const RingItem& item) {
    Payload& payload = payloads_[item.payload];
    const sim::Message msg = payload.msg;
    if (--payload.pending == 0) payloads_.release(item.payload);
    return msg;
  }

  RingGeometry geometry_;
  double inv_width_ = 0.0;
  std::vector<Cell> cells_;
  /// Lowest cell not yet sealed; every pending cell lies in
  /// [base_, base_ + R).
  std::int64_t base_ = std::numeric_limits<std::int64_t>::min();
  std::size_t in_cells_ = 0;  ///< items in unsealed cells
  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  std::vector<std::uint32_t> free_chunks_;
  engine::SlabPool<Payload> payloads_;
  /// The sealed cell, ordered by (time, seq); [pos_, end) still pending.
  std::vector<RingItem> sorted_;
  std::size_t pos_ = 0;
  /// Seal scratch: bucket ends and each item's bucket.
  std::vector<std::uint32_t> ends_;
  std::vector<std::uint32_t> bucket_;
};

}  // namespace wlsync::net
