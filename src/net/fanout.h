#pragma once
// Batched fan-out records: one message to a list of recipients.
//
// Two senders produce them: every broadcast (the sender's exchange-graph
// neighborhood) and every Byzantine face (AdversaryContext::multicast — a
// two-faced splitter's early or late victim group).  One queue entry per
// recipient would turn one broadcast into deg(p) entries that all sit in
// the scheduler at once — O(n^2) pending events per round on a full mesh,
// and another O(f * n) per face wave.  Instead the whole fan-out is stored
// once: at send time the simulator draws every per-link delay (in list
// order, from the sender's DelayModel/RNG stream), orders the deliveries
// by (time, seq) with a linear-time bucket pass over the A3 delay window
// (FanoutSorter below), and enqueues ONE pooled event keyed by the
// earliest one.  Each pop delivers the next recipient and either re-arms
// the same event for the following recipient or, when that recipient's key
// still precedes everything else in the scheduler, delivers it directly
// without a queue round-trip.  Queue pressure per round drops from O(n^2) pending entries
// to O(n).
//
// Sequence numbers are reserved in a block at send time, one per
// recipient in list order — exactly the numbers one do_send per
// recipient would have assigned — so the global (time, tier, seq) order,
// including exact-tie behaviour under extremal delay models, is the
// per-recipient one (tests/topology_test.cpp checks it with an oracle).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/event_pool.h"
#include "sim/message.h"

namespace wlsync::net {

/// One recipient of an in-flight broadcast.
struct FanoutDelivery {
  double time = 0.0;       ///< real delivery time (send time + link delay)
  std::uint64_t seq = 0;   ///< the seq a per-recipient event would carry
  std::int32_t to = -1;
};

/// An in-flight fan-out: the shared payload plus its remaining
/// deliveries, sorted ascending by (time, seq).  Slab-pooled and recycled;
/// the vector keeps its capacity across reuse, so steady-state broadcasts
/// allocate nothing.
struct FanoutRecord {
  sim::Message msg;
  std::vector<FanoutDelivery> deliveries;
  std::uint32_t cursor = 0;  ///< index of the next undelivered recipient

  [[nodiscard]] bool done() const noexcept {
    return cursor >= deliveries.size();
  }
  [[nodiscard]] const FanoutDelivery& next() const noexcept {
    return deliveries[cursor];
  }
};

/// Orders one fan-out's deliveries ascending by (time, seq) in expected
/// linear time.  A3 puts every delivery of a fan-out sent at `now` inside
/// [now + delta - eps, now + delta + eps], so a stable counting scatter of
/// the m deliveries into m equal-width buckets over that window leaves each
/// bucket with O(1) entries on any spread-out delay model.  A bucket above
/// kInsertionCap is then std::sort-ed (unless already in order), so a
/// clustered model still costs at most O(m log m), and one insertion pass
/// over the whole list finishes the small buckets: nothing moves across a
/// bucket boundary, so that pass costs O(m + kInsertionCap * m).
///
/// Correctness never depends on the window: the bucket index
/// clamp(floor((t - lo) * m / (hi - lo)), 0, m - 1) never decreases as t
/// grows, so bucket order agrees with time order and exact-time ties share
/// a bucket.  The insertion pass compares times only and relies on the
/// caller's precondition that seqs strictly increase along the input list
/// (one record's block, allocated in list order): the stable scatter then
/// keeps tied deliveries in seq order, and the result is exactly the
/// (time, seq) sort.
///
/// The scratch (bucket offsets, bucket indices and the scatter buffer)
/// lives in the sorter and keeps its capacity, so one sorter per engine
/// lane makes steady-state fan-outs allocation-free and keeps lanes
/// disjoint.
class FanoutSorter {
 public:
  /// Buckets at most this large are left to the insertion pass.
  static constexpr std::size_t kInsertionCap = 16;

  /// Sorts `deliveries` by (time, seq), given seqs strictly increasing in
  /// list order; [lo, hi] is the window the times are expected in.  The
  /// vector's buffer is swapped with the sorter's scatter buffer.
  void sort(std::vector<FanoutDelivery>& deliveries, double lo, double hi);

 private:
  std::vector<std::uint32_t> ends_;    ///< bucket offsets, then bucket ends
  std::vector<std::uint32_t> bucket_;  ///< each delivery's bucket
  std::vector<FanoutDelivery> scattered_;
};

using FanoutPool = engine::SlabPool<FanoutRecord>;
using FanoutHandle = FanoutPool::Handle;

}  // namespace wlsync::net
