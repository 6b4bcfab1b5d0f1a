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
// order, from the sender's DelayModel/RNG stream), sorts the deliveries,
// and enqueues ONE pooled event keyed by the earliest one.  Each pop
// delivers the next recipient and either re-arms the same event for the
// following recipient or, when that recipient's key still precedes
// everything else in the scheduler, delivers it directly without a queue
// round-trip.  Queue pressure per round drops from O(n^2) pending entries
// to O(n).
//
// Sequence numbers are reserved in a block at send time, one per
// recipient in list order — exactly the numbers one do_send per
// recipient would have assigned — so the global (time, tier, seq) order,
// including exact-tie behaviour under extremal delay models, is the
// per-recipient one (tests/topology_test.cpp checks it with an oracle).

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

using FanoutPool = engine::SlabPool<FanoutRecord>;
using FanoutHandle = FanoutPool::Handle;

}  // namespace wlsync::net
