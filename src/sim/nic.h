#pragma once
// The datagram-NIC ingress model (Section 9.3), scaled to large n.
//
// The paper's Ethernet study observes that when the system behaves well —
// every process broadcasting at the same logical instant — receive buffers
// overflow: "if too many arrive at once, the old ones are overwritten."
// Under extremal delay models this clustering is the common case at
// n >= 128 (one broadcast delivers its whole neighborhood in a burst), so
// the NIC is modeled explicitly: each process owns a bounded ingress queue;
// arrivals enqueue, a service loop hands one datagram to the process every
// `service_time` seconds, and arrivals that find the queue full trigger a
// drop according to the configured policy.
//
// capacity = 0 means unbounded: nothing is ever dropped and the model
// reduces to a pure serialization delay.  The per-process NicStats make
// overflow a measurable axis — drops, served datagrams, the queue
// high-water mark, and the largest same-instant arrival burst — surfaced
// through analysis/measure (NicSummary) into RunResult and the
// bench_sweep / bench_topology CSV columns.
//
// The queue itself is a flat ring over pooled Message slots (the seed used
// a std::deque): contiguous storage for the burst-drain hot path, capacity
// retained across rounds so steady-state overflow processing allocates
// nothing.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/message.h"

namespace wlsync::sim {

enum class NicDropPolicy : std::uint8_t {
  /// Section 9.3's Ethernet behaviour: the oldest queued datagram is
  /// overwritten by the newcomer.
  kDropOldest = 0,
  /// Tail drop: the arriving datagram is lost, the queue is untouched.
  kDropNewest = 1,
};

/// Bounded receive buffer emulating the Section 9.3 datagram NIC.
struct NicConfig {
  std::size_t capacity = 8;     ///< pending datagrams held; 0 = unbounded
  double service_time = 50e-6;  ///< time to hand one datagram to the process
  NicDropPolicy drop = NicDropPolicy::kDropOldest;
};

/// Per-process ingress accounting (drop/overflow axis of EXP-SWEEP /
/// EXP-TOPOLOGY).  All counters are deterministic functions of the run.
struct NicStats {
  std::uint64_t arrivals = 0;        ///< datagrams that reached the NIC
  std::uint64_t served = 0;          ///< datagrams handed to the process
  std::uint64_t dropped = 0;         ///< datagrams lost to overflow
  std::uint64_t service_events = 0;  ///< service-loop arms (re-arm accounting)
  std::size_t peak_queue = 0;        ///< queue depth high-water mark
  std::size_t max_burst = 0;         ///< largest same-instant arrival burst
};

/// Flat ring-buffer FIFO of Messages.  Grows by doubling (bounded NICs
/// never grow past capacity + 1); storage is retained for the life of the
/// process, so steady-state rounds are allocation-free.
class NicQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void push_back(const Message& msg) {
    if (count_ == ring_.size()) grow();
    // Ring sizes are powers of two (8, then doubling): wrap with a mask,
    // no division on the burst-drain hot path.
    ring_[(head_ + count_) & (ring_.size() - 1)] = msg;
    ++count_;
  }

  Message pop_front() {
    const Message msg = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return msg;
  }

 private:
  void grow() {
    std::vector<Message> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Message> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace wlsync::sim
