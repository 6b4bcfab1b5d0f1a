#pragma once
// The execution engine of Section 2.3.
//
// A Simulator owns the processes, their physical clocks, the message buffer
// (a slab-pooled EventPool ordered by a pluggable engine::SchedulerPolicy,
// plus one net::DeliveryRing per engine lane that holds every in-flight
// message behind a single scheduler entry), the network layer (an optional
// net::Topology exchange graph) and the delay model, and produces
// executions that
// satisfy the six execution properties of the model:
//   1/5. events fire exactly at their buffered delivery times, finitely many
//        before any fixed time (the priority queue);
//   2/3. configurations chain by construction (single-threaded dispatch);
//   4.   TIMER messages at real time t are ordered after ordinary messages
//        for the same time (ordering tier);
//   6.   a step changes only the recipient's state and the buffer (processes
//        only act through Context).
//
// Faulty processes (Byzantine, assumption A2) are registered as such and
// receive an AdversaryContext; everyone else gets the model-legal Context.
// An optional bounded NIC buffer per recipient reproduces the Section 9.3
// Ethernet datagram behaviour ("if too many arrive at once, the old ones
// are overwritten").

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clock/physical_clock.h"
#include "engine/scheduler.h"
#include "net/dynamics.h"
#include "net/fanout.h"
#include "net/topology.h"
#include "proc/process.h"
#include "sim/corr_log.h"
#include "sim/delay.h"
#include "sim/event.h"
#include "sim/nic.h"
#include "sim/observer.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/spsc_queue.h"

namespace wlsync::core {
class RoundFastPath;
}  // namespace wlsync::core

namespace wlsync::engine {
class PdesEngine;
}  // namespace wlsync::engine

namespace wlsync::sim {

/// A cross-shard event in flight between PDES lanes (engine/pdes.h): the
/// sending lane draws the delay and allocates the seq on its side (both are
/// per-sender streams, so the values are exactly the serial engine's), and
/// the receiving lane schedules it verbatim.  Always ordinary tier — only
/// message deliveries cross the cut; timers, STARTs and NIC service events
/// are self-targeted.
struct RemoteEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::int32_t to = -1;
  EngineKind engine_kind = EngineKind::kDeliver;
  Message msg;
};

/// Mid-execution hook the PDES engine installs on each shard lane: run_lane
/// invokes poll() every few dispatches, so the lane ingests cross-shard
/// arrivals WHILE it executes its window instead of only at the epoch
/// barrier.  Safe because the conservative lookahead guarantees every
/// arrival lands strictly beyond the current window.  Null on the serial
/// path (one predictable branch per dispatch).
class LanePoller {
 public:
  virtual ~LanePoller() = default;
  virtual void poll() = 0;
};

struct SimConfig {
  double delta = 0.01;  ///< median message delay (A3)
  double eps = 0.001;   ///< delay uncertainty (A3)
  std::uint64_t seed = 1;
  std::optional<NicConfig> nic;       ///< engaged only for Section 9.3 studies
  std::uint64_t max_events = 50'000'000;  ///< runaway guard
  /// Event-scheduling policy; a pure performance knob — every policy
  /// dispatches the identical deterministic (time, tier, seq) order.  The
  /// kAuto default is the d-ary heap; kCalendar is an explicit opt-in.
  engine::SchedulerKind scheduler = engine::SchedulerKind::kAuto;
  /// Exchange graph broadcasts route through.  Unset = the paper's fully
  /// connected model (recipients 0..n-1), with no adjacency materialized.
  /// When set, its node count must equal the registered process count.
  std::optional<net::Topology> topology;
};

class Simulator {
 public:
  /// `delay` may be null, in which case a UniformDelay(delta, eps) is used.
  Simulator(SimConfig config, std::unique_ptr<DelayModel> delay);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a process with its clock and initial CORR value.  If
  /// start_real_time >= 0, a START message is buffered for that time
  /// (assumption A4 wakes process p at real time c0_p(T0)).
  /// Returns the process id.
  std::int32_t add_process(proc::ProcessPtr process,
                           std::unique_ptr<clk::PhysicalClock> clock,
                           double initial_corr, bool faulty,
                           double start_real_time);

  /// Buffers a START for `id` at a later real time (a churn rejoin's
  /// reintegration wake-up).
  void schedule_start(std::int32_t id, double real_time);

  /// Installs a dynamics schedule (net/dynamics.h): every event becomes a
  /// tier-2 scenario entry in the queue, applied at its exact simulated
  /// instant in deterministic (time, tier, seq) order.  Topology-changing
  /// schedules require config.topology to be set (the analysis layer
  /// materializes the full mesh when needed) and rebuild it live via
  /// Topology::from_adjacency, so neighbor views, local-f clamps and
  /// broadcast recipient lists all track the change from the next
  /// broadcast on.
  /// Messages already in flight still deliver (each ring item carries its
  /// recipient), and point-to-point send stays unrestricted.
  /// Call after every process is registered and before running; an empty
  /// spec is a no-op.  The fast path and PDES engine refuse simulators
  /// with dynamics installed (see has_dynamics).
  void set_dynamics(const net::DynamicsSpec& dynamics);

  /// Whether a non-empty dynamics schedule is installed (engines that
  /// assume a static graph refuse such simulators).
  [[nodiscard]] bool has_dynamics() const noexcept { return has_dynamics_; }
  /// Bumped each time a scenario event actually changed the live graph.
  /// Processes compare against the version they last built neighbor state
  /// for (proc::Context::topology_version) and resync when it moved.
  [[nodiscard]] std::uint32_t topology_version() const noexcept {
    return topology_version_;
  }
  /// Scenario events applied so far (graph-changing or churn markers).
  [[nodiscard]] std::int64_t dynamics_applied() const noexcept {
    return dynamics_applied_;
  }

  /// Attaches a passive observer (non-owning; must outlive the run).
  void add_trace_sink(TraceSink* sink);

  /// Attaches (or, with nullptr, detaches) the streaming Observer
  /// (sim/observer.h; non-owning, must outlive the run).  At most one;
  /// with none attached the hot path pays a single always-false double
  /// compare per event and nothing else.
  void set_observer(Observer* observer);

  /// Bounded-memory mode: truncates every clock's segment list and CORR
  /// log behind `t` (see CorrLog::truncate_before).  Queries at times >= t
  /// are unaffected; the caller (the streaming observer) guarantees no
  /// future query targets an earlier time.  Returns entries removed.
  std::size_t truncate_history_before(double t);

  /// Pre-sizes every process' CORR log for a run whose adjustment count is
  /// known up front (rounds * k_exchanges + slack): steady-state recording
  /// then never reallocates, which keeps the fast path's round loop
  /// allocation-free (bench_micro gates on this).
  void reserve_history(std::size_t changes_per_process);

  /// Approximate heap footprint of all retained measurement history
  /// (CORR logs + clock segment lists, capacity-based).
  [[nodiscard]] std::size_t history_bytes() const noexcept;
  /// Retained history entries (CORR entries + clock breakpoints).
  [[nodiscard]] std::size_t history_entries() const noexcept;

  /// Runs all events with time <= real_time.
  void run_until(double real_time);

  /// Processes one event; returns false when the buffer is empty.
  bool step();

  [[nodiscard]] double current_time() const noexcept {
    return main_.current_time;
  }
  [[nodiscard]] std::int32_t process_count() const noexcept {
    return static_cast<std::int32_t>(nodes_.size());
  }
  [[nodiscard]] bool is_faulty(std::int32_t id) const { return nodes_[idx(id)].faulty; }
  [[nodiscard]] const clk::PhysicalClock& clock(std::int32_t id) const {
    return *nodes_[idx(id)].clock;
  }
  [[nodiscard]] const CorrLog& corr_log(std::int32_t id) const {
    return nodes_[idx(id)].corr;
  }
  [[nodiscard]] proc::Process& process(std::int32_t id) {
    return *nodes_[idx(id)].process;
  }

  /// L_p(t) = Ph_p(t) + CORR_p(t) with displayed (possibly slewing) CORR.
  [[nodiscard]] double local_time(std::int32_t id, double real_time) const {
    const Node& node = nodes_[idx(id)];
    return node.clock->now(real_time) + node.corr.displayed_at(real_time);
  }

  /// Closed out-neighborhood of `id` in the exchange graph (sorted, self
  /// included); all of 0..n-1 when no topology is configured.
  [[nodiscard]] std::span<const std::int32_t> neighbors_of(std::int32_t id) const;

  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return sum_lanes(&Lane::messages_sent);
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return sum_lanes(&Lane::events_processed);
  }
  [[nodiscard]] std::uint64_t nic_dropped() const noexcept {
    return sum_lanes(&Lane::nic_dropped);
  }
  /// Whether the Section 9.3 NIC ingress model is engaged.
  [[nodiscard]] bool nic_enabled() const noexcept {
    return config_.nic.has_value();
  }
  /// Per-process ingress accounting (all zeros when the NIC is off).
  [[nodiscard]] const NicStats& nic_stats(std::int32_t id) const {
    return nodes_[idx(id)].nic.stats;
  }
  [[nodiscard]] double delta() const noexcept { return config_.delta; }
  [[nodiscard]] double eps() const noexcept { return config_.eps; }

  // Engine pressure counters (bench_micro / bench_topology):
  /// Scheduler push + pop operations performed so far.
  [[nodiscard]] std::uint64_t queue_ops() const noexcept {
    return sum_lanes(&Lane::queue_pushes) + sum_lanes(&Lane::queue_pops);
  }
  /// High-water mark of pending scheduler entries (per lane, maxed).
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    std::size_t peak = main_.peak_pending;
    for (const auto& lane : shard_lanes_) {
      peak = std::max(peak, lane->peak_pending);
    }
    return peak;
  }
  /// Ring deliveries made directly (no queue round-trip) because the next
  /// delivery still preceded every pending event.
  [[nodiscard]] std::uint64_t fanout_direct() const noexcept {
    return sum_lanes(&Lane::fanout_direct);
  }
  /// Delivery-ring item chunks allocated so far, over all lanes (each
  /// ring's pool high-water mark; a steady state allocates none).
  [[nodiscard]] std::uint64_t ring_chunk_allocs() const noexcept {
    std::uint64_t total = main_.ring.chunk_allocs() + retired_ring_chunks_;
    for (const auto& lane : shard_lanes_) total += lane->ring.chunk_allocs();
    return total;
  }
  /// Number of attached trace sinks (the analysis layer uses this to decide
  /// whether a run's sinks are the mergeable set the PDES engine supports).
  [[nodiscard]] std::size_t trace_sink_count() const noexcept {
    return main_.sinks.size();
  }

 private:
  friend class SimContext;
  // The round fast path (core/fastpath.h) replays broadcast/update events
  // through the real process code with a mirrored Context, so it needs the
  // same internals SimContext touches plus the scheduler/pool for its
  // inject-and-bail protocol.
  friend class core::RoundFastPath;
  // The conservative parallel engine (engine/pdes.h) shards the event flow
  // into per-worker Lanes and runs them under epoch barriers; it needs to
  // create/dissolve lanes and move events between them.
  friend class engine::PdesEngine;

  struct Nic {
    NicQueue pending;
    NicStats stats;
    double next_free = -1e300;
    double last_arrival = -1e300;  ///< burst tracking: previous arrival time
    std::size_t burst = 0;         ///< arrivals at exactly last_arrival
    bool service_scheduled = false;
  };

  struct Node {
    proc::ProcessPtr process;
    std::unique_ptr<clk::PhysicalClock> clock;
    CorrLog corr;
    bool faulty = false;
    Nic nic;
    /// The sender's private A3 delay stream.  Delay draws consume ONLY this
    /// generator, in a per-sender order (neighbor order within a broadcast,
    /// program order across broadcasts) — never a global stream — so a
    /// sharded engine that executes senders concurrently reproduces the
    /// serial draws exactly.
    util::Rng delay_rng;
    /// Per-origin event sequence counter; see alloc_seq.
    std::uint64_t next_seq = 0;
  };

  /// One independent slice of the event flow: an event pool + scheduler +
  /// delivery ring + clock + pressure counters.  The serial engine is
  /// exactly one lane (main_); the PDES engine adds one lane per topology
  /// shard, each driven by its own worker thread.  Everything a dispatch
  /// touches that is not per-process Node state lives here, so two lanes
  /// never share mutable state — cross-lane traffic rides SPSC channels.
  struct Lane {
    EventPool pool;
    std::unique_ptr<engine::SchedulerPolicy> scheduler;
    /// Every in-lane message in flight (net/fanout.h).  It owns at most one
    /// scheduler entry, ring_entry (kInvalidHandle when the ring is empty),
    /// kept in the scheduler except while dispatch_ring runs it.  The slot
    /// stays acquired during that run, so a handler's send finds the ring
    /// armed and leaves the re-keying to dispatch_ring.
    net::DeliveryRing ring;
    EventHandle ring_entry = EventPool::kInvalidHandle;
    /// Whether ring_entry is in the scheduler (false while dispatch_ring
    /// runs it); arming a queued entry again is a logic error.
    bool ring_queued = false;
    /// Whether ring_entry is a seal entry (keyed in front of its cell).
    bool ring_sealing = false;
    /// Passive observers of this lane's events.  The serial engine's public
    /// add_trace_sink appends to main_'s list; the PDES engine hands each
    /// lane its own (mergeable) sinks.
    std::vector<TraceSink*> sinks;
    double current_time = 0.0;
    std::int32_t shard = 0;  ///< index into shard_lanes_ (0 for main_)
    std::uint64_t messages_sent = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t nic_dropped = 0;
    std::uint64_t queue_pushes = 0;
    std::uint64_t queue_pops = 0;
    std::uint64_t fanout_direct = 0;
    std::size_t peak_pending = 0;
    /// PDES only (engine/pdes.h): direct SPSC channels to every other lane,
    /// indexed by destination shard (own slot null).  A cross-cut send is
    /// pushed the moment it is drawn — visible to the receiving lane's
    /// mid-epoch polls — replacing the old publish-phase outbox.  Empty on
    /// the serial path.
    std::vector<util::SpscQueue<RemoteEvent>*> channels_out;
    /// PDES only: per-node flags for "an event delivered here can produce
    /// cross-cut traffic in one hop" (cut-edge endpoints plus every faulty
    /// process — Byzantine sends ignore the topology).  The engine's
    /// adaptive lookahead folds each lane's next boundary event into the
    /// epoch window.  Null serially.
    const std::vector<char>* boundary = nullptr;
    /// PDES only: min-heap (std::greater order) of pending boundary-event
    /// times in this lane.  A conservative superset — entries whose events
    /// already executed are lazily pruned against the scheduler head at
    /// each epoch fold, which can never drop a live boundary event because
    /// the scheduler head is a lower bound on everything still pending.
    std::vector<double> boundary_heap;
    /// PDES only: overlapped-drain hook, called every 64 dispatches.
    LanePoller* poller = nullptr;
    std::uint32_t poll_tick = 0;
  };

  template <typename T>
  [[nodiscard]] T sum_lanes(T Lane::* member) const noexcept {
    T total = main_.*member;
    for (const auto& lane : shard_lanes_) total += (*lane).*member;
    return total;
  }

  [[nodiscard]] std::size_t idx(std::int32_t id) const;

  /// Shard index owning `pid`: lane_of_ when the PDES engine is active,
  /// -1 (meaning main_) otherwise.
  [[nodiscard]] std::int32_t lane_index(std::int32_t pid) const {
    return lane_of_.empty() ? -1 : lane_of_[idx(pid)];
  }
  [[nodiscard]] Lane& owner_lane(std::int32_t pid) {
    const std::int32_t shard = lane_index(pid);
    return shard < 0 ? main_ : *shard_lanes_[static_cast<std::size_t>(shard)];
  }

  /// Allocates the next deterministic tie-break seq for an event originated
  /// by `origin` (the sender for message deliveries, the owning process for
  /// timers / STARTs / NIC service).  Packed (origin << 40) | local so seqs
  /// from different origins never collide, total order is (origin, local
  /// program order), and the whole value stays below the 2^62 ceiling
  /// EventKeyOf's tier packing requires (origin < 2^22, enforced at
  /// registration; 2^40 events per origin dwarfs any max_events budget).
  /// The resulting order is intrinsic to each process' execution — NOT a
  /// global insertion count — which is what makes a sharded engine's
  /// allocation identical to the serial engine's.
  [[nodiscard]] std::uint64_t alloc_seq(std::int32_t origin) {
    Node& node = nodes_[idx(origin)];
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin))
            << 40) |
           node.next_seq++;
  }

  /// Builds an event in place in the lane's pool (stamping its seq from
  /// `origin`'s counter) and hands the handle to the lane's scheduler — the
  /// one entry point for all fresh scheduling.
  void schedule_event(Lane& lane, double time, std::int32_t tier,
                      std::int32_t origin, std::int32_t to,
                      EngineKind engine_kind, const Message& msg);
  /// Schedules an event whose seq was already allocated (a RemoteEvent
  /// crossing lanes, or a leftover event migrating at lane dissolve).
  void schedule_raw(Lane& lane, double time, std::int32_t tier,
                    std::uint64_t seq, std::int32_t to, EngineKind engine_kind,
                    const Message& msg);
  /// Wraps lane.scheduler->push with the pressure counters.
  void push_handle(Lane& lane, EventHandle handle);

  /// Executes one popped event: advances the lane clock, routes by engine
  /// kind, recycles the slot.  The handle must have just been popped from
  /// this lane.  Events after `limit` must not execute: a ring whose next
  /// delivery lies beyond it is re-armed instead (run_until passes its
  /// horizon; step passes +infinity).
  void dispatch(Lane& lane, EventHandle handle, double limit);
  /// Runs the lane's ring entry (EngineKind::kRing): seals what a seal
  /// entry stood in front of, then delivers sealed items while each is due
  /// by `limit` and still precedes every pending scheduler entry, and
  /// re-arms the entry (or releases it once the ring is empty).
  void dispatch_ring(Lane& lane, EventHandle handle, double limit);
  /// Keys the ring's scheduler entry by DeliveryRing::next_key(ref) and
  /// pushes it, acquiring a slot if the ring had none; releases the slot
  /// instead when the ring is empty.  The entry must not be in the
  /// scheduler.
  void arm_ring(Lane& lane, double ref);
  /// Removes the lane's ring entry from the scheduler (it must have just
  /// been popped) and hands every pending delivery to fn(item, message),
  /// emptying the ring: how the PDES engine un-batches a lane.
  template <typename Fn>
  void unbatch_ring(Lane& lane, Fn&& fn) {
    lane.pool.release(lane.ring_entry);
    lane.ring_entry = EventPool::kInvalidHandle;
    lane.ring_queued = false;
    lane.ring_sealing = false;
    lane.ring.drain(fn);
  }
  /// The time of the lane's next real event (+inf when none): the
  /// scheduler head, looking past a seal entry to the first delivery it
  /// stands in front of.
  [[nodiscard]] double next_event_time(Lane& lane);
  /// Pops and dispatches every event with time <= limit (inclusive, like
  /// pop_if_not_after).  Does NOT advance the lane clock to limit.
  void run_lane(Lane& lane, double limit);
  /// Overlapped channel drain (PDES lanes only): ingests cross-shard
  /// arrivals every 64 dispatches or ring deliveries.  Everything drained
  /// lands strictly beyond the current window, so its order is unaffected.
  void poll_lane(Lane& lane) {
    if (lane.poller != nullptr && (++lane.poll_tick & 63u) == 0) {
      lane.poller->poll();
    }
  }

  /// Per-delivery slice of the max_events runaway guard (lane-local; the
  /// PDES engine additionally checks the cross-lane sum at each barrier).
  void count_event(Lane& lane);

  /// A one-recipient fan-out (validates `to` first).
  void do_send(Lane& lane, std::int32_t from, std::int32_t to, std::int32_t tag,
               double value, std::int32_t aux);
  /// Sends one message from `from` to every id in `recipients`: the engine
  /// of broadcast (recipients = neighbors_of(from)), of an adversary's
  /// multicast (any valid ids, repeats allowed; the caller validates) and
  /// of send.  Per-link delays are drawn in list order and seqs are the
  /// block one event per recipient would have consumed; in-lane deliveries
  /// join the lane's delivery ring, which runs them in the order one entry
  /// per recipient would have produced — checked against an order oracle
  /// by tests/topology_test.cpp and against per-id sends by
  /// tests/adversary_test.cpp.  Cross-lane recipients are split into
  /// RemoteEvents (their seqs come out of the same per-sender allocation
  /// order, so the serial tie-break survives); a lane whose ring is
  /// disabled (net::RingGeometry) schedules one event per recipient.
  /// `recipients` is read only before the call returns.
  void do_fanout(Lane& lane, std::int32_t from,
                 std::span<const std::int32_t> recipients, std::int32_t tag,
                 double value, std::int32_t aux);
  /// Draws the A3-validated per-link delay for a message `from` sends to
  /// `to` at `send_time`.  Touches only the sender's delay_rng, so draws for
  /// distinct senders may run concurrently (the PDES lanes and the round
  /// fast path's sharded delay rows rely on it).
  [[nodiscard]] double draw_delay(std::int32_t from, std::int32_t to,
                                  double send_time);
  void do_set_timer_logical(Lane& lane, std::int32_t pid, double logical_time,
                            std::int32_t tag);
  void do_set_timer_physical(Lane& lane, std::int32_t pid, double physical_time,
                             std::int32_t tag);
  void do_set_timer_real(Lane& lane, std::int32_t pid, double real_time,
                         std::int32_t tag);
  void do_add_corr(Lane& lane, std::int32_t pid, double adj,
                   double amortize_duration);
  /// Message reaches `pid` at the lane's current time: NIC buffering when
  /// configured, direct delivery otherwise (the shared arrival path of ring
  /// and per-recipient deliveries).
  void arrive(Lane& lane, std::int32_t pid, const Message& msg);
  void nic_arrive(Lane& lane, std::int32_t pid, const Message& msg);
  void deliver(Lane& lane, std::int32_t pid, const Message& msg);
  /// Applies dynamics_.events[which] to the live graph (EngineKind::
  /// kScenario dispatch); bumps topology_version_ only when the adjacency
  /// actually changed.
  void apply_dynamics(std::int32_t which);

  /// Fires Observer::on_advance when simulated time reached the cached
  /// next-interest instant.  Called right after the lane clock moves and
  /// BEFORE the event at that time is delivered, so the observer sees
  /// every instant strictly before the lane's time as final.  observer_next_
  /// is +inf with no observer attached (always, for shard lanes — the PDES
  /// engine requires no observer): the whole idle cost is one compare.
  void observe_advance(Lane& lane) {
    if (lane.current_time >= observer_next_) {
      observer_next_ = observer_->on_advance(lane.current_time);
    }
  }

  SimConfig config_;
  std::unique_ptr<DelayModel> delay_;
  std::vector<Node> nodes_;
  Observer* observer_ = nullptr;
  double observer_next_ = std::numeric_limits<double>::infinity();
  /// Identity neighbor list for the implicit full mesh, grown on demand.
  /// Warm (via neighbors_of) before spawning lane workers.
  mutable std::vector<std::int32_t> all_ids_;
  /// The serial engine's lane; also the merge target when shard lanes
  /// dissolve.  Public accessors report main_ plus any live shard lanes.
  Lane main_;
  /// PDES mode (engine/pdes.h): one lane per topology shard, unique_ptr so
  /// lane addresses stay stable (schedulers hold pool references).  Empty
  /// on the serial path.
  std::vector<std::unique_ptr<Lane>> shard_lanes_;
  /// Ring chunks allocated by shard lanes that have since dissolved.
  std::uint64_t retired_ring_chunks_ = 0;
  /// pid -> shard index while shard_lanes_ is live; empty otherwise.
  std::vector<std::int32_t> lane_of_;
  /// Installed dynamics schedule (empty unless set_dynamics was called
  /// with events).  Scenario events index into dynamics_.events.
  net::DynamicsSpec dynamics_;
  bool has_dynamics_ = false;
  /// Live open adjacency (self-loops excluded) maintained by
  /// apply_dynamics, plus the run-start baseline kMerge restores from.
  /// Populated only for topology-changing schedules.
  std::vector<std::vector<std::int32_t>> adjacency_;
  std::vector<std::vector<std::int32_t>> base_adjacency_;
  std::uint32_t topology_version_ = 0;
  std::int64_t dynamics_applied_ = 0;
};

}  // namespace wlsync::sim
