#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace wlsync::sim {

namespace {
constexpr double kDelayTolerance = 1e-12;
}

/// Context implementation handed to processes during a step.  A single
/// class serves both roles; the adversary-only entry points verify the
/// process is registered faulty, so an honest process cannot use them even
/// accidentally.  The context is bound to the LANE executing the step: all
/// clock reads, scheduling and tracing go through that lane, which is what
/// keeps concurrent shard lanes disjoint.
class SimContext final : public proc::AdversaryContext {
 public:
  SimContext(Simulator& sim, Simulator::Lane& lane, std::int32_t pid,
             bool faulty)
      : sim_(sim), lane_(lane), pid_(pid), faulty_(faulty) {
    topology_version_ = sim.topology_version_;
  }

  [[nodiscard]] std::int32_t id() const override { return pid_; }
  [[nodiscard]] std::int32_t process_count() const override {
    return sim_.process_count();
  }
  [[nodiscard]] double physical_time() const override {
    return sim_.nodes_[sim_.idx(pid_)].clock->now(lane_.current_time);
  }
  [[nodiscard]] double local_time() const override {
    return physical_time() + corr();
  }
  [[nodiscard]] double corr() const override {
    return sim_.nodes_[sim_.idx(pid_)].corr.current_target();
  }
  void add_corr(double adj) override { sim_.do_add_corr(lane_, pid_, adj, 0.0); }
  void add_corr_amortized(double adj, double duration) override {
    sim_.do_add_corr(lane_, pid_, adj, duration);
  }
  [[nodiscard]] std::span<const std::int32_t> neighbors() const override {
    return sim_.neighbors_of(pid_);
  }
  void broadcast(std::int32_t tag, double value, std::int32_t aux) override {
    sim_.do_fanout(lane_, pid_, sim_.neighbors_of(pid_), tag, value, aux);
  }
  void send(std::int32_t to, std::int32_t tag, double value,
            std::int32_t aux) override {
    sim_.do_send(lane_, pid_, to, tag, value, aux);
  }
  void set_timer(double logical_time, std::int32_t tag) override {
    sim_.do_set_timer_logical(lane_, pid_, logical_time, tag);
  }
  void set_timer_physical(double physical_time, std::int32_t tag) override {
    sim_.do_set_timer_physical(lane_, pid_, physical_time, tag);
  }
  void annotate(const proc::Annotation& annotation) override {
    for (TraceSink* sink : lane_.sinks) {
      sink->on_annotation(pid_, lane_.current_time, annotation);
    }
    if (sim_.observer_ != nullptr &&
        annotation.type == proc::Annotation::Type::kRoundBegin) {
      sim_.observer_->on_round_begin(pid_, annotation.round,
                                     lane_.current_time);
      // A round boundary may open a sampling window (the steady-state
      // anchor); re-read the next instant of interest.
      sim_.observer_next_ = sim_.observer_->next_interest();
    }
  }

  // --- adversary-only powers ---
  [[nodiscard]] double real_time() const override {
    require_faulty();
    return lane_.current_time;
  }
  void set_timer_real(double real_time, std::int32_t tag) override {
    require_faulty();
    sim_.do_set_timer_real(lane_, pid_, real_time, tag);
  }
  void multicast(std::span<const std::int32_t> ids, std::int32_t tag,
                 double value, std::int32_t aux) override {
    require_faulty();
    for (const std::int32_t to : ids) (void)sim_.idx(to);
    sim_.do_fanout(lane_, pid_, ids, tag, value, aux);
  }

 private:
  void require_faulty() const {
    if (!faulty_) {
      throw std::logic_error(
          "adversary power used by a process not registered as faulty");
    }
  }

  Simulator& sim_;
  Simulator::Lane& lane_;
  std::int32_t pid_;
  bool faulty_;
};

Simulator::Simulator(SimConfig config, std::unique_ptr<DelayModel> delay)
    : config_(std::move(config)),
      delay_(delay ? std::move(delay)
                   : make_uniform_delay(config_.delta, config_.eps)) {
  if (config_.eps < 0 || config_.delta < config_.eps) {
    throw std::invalid_argument("Simulator: require delta >= eps >= 0 (A3)");
  }
  band_lo_ = config_.delta - config_.eps - kDelayTolerance;
  band_hi_ = config_.delta + config_.eps + kDelayTolerance;
  main_.scheduler = engine::make_scheduler(config_.scheduler, main_.pool);
  // The ring's cells are cut from the same A3 band draw_delays enforces.
  main_.ring.configure(net::RingGeometry::for_band(band_lo_, band_hi_));
}

Simulator::~Simulator() = default;

std::size_t Simulator::idx(std::int32_t id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) {
    throw std::out_of_range("Simulator: process id " + std::to_string(id) +
                            " is not registered (valid ids are [0, " +
                            std::to_string(nodes_.size()) + "))");
  }
  return static_cast<std::size_t>(id);
}

void Simulator::push_handle(Lane& lane, EventHandle handle) {
  lane.scheduler->push(handle);
  ++lane.queue_pushes;
  lane.peak_pending = std::max(lane.peak_pending, lane.scheduler->size());
}

void Simulator::note_boundary(Lane& lane, std::int32_t to, double time) {
  if (lane.boundary != nullptr && (*lane.boundary)[idx(to)] != 0) {
    lane.boundary_heap.push_back(time);
    std::push_heap(lane.boundary_heap.begin(), lane.boundary_heap.end(),
                   std::greater<>{});
  }
}

void Simulator::schedule_event(Lane& lane, double time, std::int32_t tier,
                               std::int32_t origin, std::int32_t to,
                               EngineKind engine_kind, const Message& msg) {
  schedule_raw(lane, time, tier, alloc_seq(origin), to, engine_kind, msg);
}

void Simulator::schedule_raw(Lane& lane, double time, std::int32_t tier,
                             std::uint64_t seq, std::int32_t to,
                             EngineKind engine_kind, const Message& msg) {
  // kScenario events never reach shard lanes (the engine refuses dynamics),
  // so `to` is always a process id when the flag vector is installed.
  note_boundary(lane, to, time);
  const EventHandle handle = lane.pool.acquire();
  Event& event = lane.pool[handle];
  event.time = time;
  event.tier = tier;
  event.seq = seq;
  event.to = to;
  event.engine_kind = engine_kind;
  event.msg = msg;
  push_handle(lane, handle);
}

std::span<const std::int32_t> Simulator::neighbors_of(std::int32_t id) const {
  (void)idx(id);
  if (config_.topology.has_value()) {
    if (config_.topology->n() != process_count()) {
      throw std::logic_error(
          "Simulator: topology node count does not match process count");
    }
    return config_.topology->neighbors(id);
  }
  // Implicit full mesh: an identity list shared by every process.  Grown
  // lazily — the PDES engine warms it before spawning workers.
  if (all_ids_.size() != nodes_.size()) {
    all_ids_.resize(nodes_.size());
    for (std::size_t i = 0; i < all_ids_.size(); ++i) {
      all_ids_[i] = static_cast<std::int32_t>(i);
    }
  }
  return {all_ids_.data(), all_ids_.size()};
}

std::int32_t Simulator::add_process(proc::ProcessPtr process,
                                    std::unique_ptr<clk::PhysicalClock> clock,
                                    double initial_corr, bool faulty,
                                    double start_real_time) {
  if (!process || !clock) throw std::invalid_argument("null process or clock");
  if (nodes_.size() >= (std::size_t{1} << 22)) {
    // alloc_seq packs the origin id into bits [40, 62); more processes than
    // that would collide with EventKeyOf's tier bits.
    throw std::invalid_argument("Simulator: at most 2^22 processes");
  }
  Node node{std::move(process), std::move(clock), CorrLog(initial_corr), faulty,
            Nic{}, util::Rng{}, 0};
  nodes_.push_back(std::move(node));
  const auto id = static_cast<std::int32_t>(nodes_.size() - 1);
  // The sender's private delay stream, derived from the config seed and the
  // id alone (registration order does not matter).
  nodes_.back().delay_rng.reseed(
      config_.seed + 0x9E3779B97F4A7C15ULL *
                         (static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(id)) +
                          1));
  if (start_real_time >= 0.0) schedule_start(id, start_real_time);
  return id;
}

void Simulator::schedule_start(std::int32_t id, double real_time) {
  schedule_event(owner_lane(id), real_time, /*tier=*/0, /*origin=*/id, id,
                 EngineKind::kDeliver, make_start());
}

void Simulator::set_dynamics(const net::DynamicsSpec& dynamics) {
  if (dynamics.empty()) return;
  if (has_dynamics_) {
    throw std::logic_error("Simulator: dynamics schedule already installed");
  }
  if (nodes_.empty()) {
    throw std::logic_error(
        "Simulator: register processes before installing dynamics");
  }
  dynamics.validate(process_count(), /*min_down=*/0.0);
  if (dynamics.topology_changing()) {
    if (!config_.topology.has_value()) {
      throw std::logic_error(
          "Simulator: topology-changing dynamics require an explicit "
          "topology (materialize the full mesh to mutate it)");
    }
    if (config_.topology->n() != process_count()) {
      throw std::logic_error(
          "Simulator: topology node count does not match process count");
    }
    // Open-neighborhood working copy; from_adjacency restores self-loops
    // on every rebuild.
    const std::size_t n = nodes_.size();
    base_adjacency_.assign(n, {});
    for (std::size_t p = 0; p < n; ++p) {
      for (const std::int32_t q :
           config_.topology->neighbors(static_cast<std::int32_t>(p))) {
        if (q != static_cast<std::int32_t>(p)) {
          base_adjacency_[p].push_back(q);
        }
      }
    }
    adjacency_ = base_adjacency_;
  }
  dynamics_ = dynamics;
  has_dynamics_ = true;
  // Install in (time, append index) order so same-instant scenario events
  // fire in append order (seqs are allocated here, in sorted order).
  std::vector<std::size_t> order(dynamics_.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return dynamics_.events[a].at < dynamics_.events[b].at;
                   });
  for (const std::size_t i : order) {
    schedule_event(main_, dynamics_.events[i].at, /*tier=*/2, /*origin=*/0,
                   static_cast<std::int32_t>(i), EngineKind::kScenario,
                   Message{});
  }
}

void Simulator::apply_dynamics(std::int32_t which) {
  const net::DynamicsEvent& e =
      dynamics_.events[static_cast<std::size_t>(which)];
  ++dynamics_applied_;

  const auto erase_dir = [this](std::int32_t a, std::int32_t b) {
    auto& list = adjacency_[static_cast<std::size_t>(a)];
    const auto it = std::find(list.begin(), list.end(), b);
    if (it == list.end()) return false;
    list.erase(it);
    return true;
  };
  const auto add_dir = [this](std::int32_t a, std::int32_t b) {
    auto& list = adjacency_[static_cast<std::size_t>(a)];
    if (std::find(list.begin(), list.end(), b) != list.end()) return false;
    list.push_back(b);  // from_adjacency re-sorts
    return true;
  };

  bool changed = false;
  switch (e.kind) {
    case net::DynamicsKind::kLinkFail:
      changed = erase_dir(e.a, e.b);
      changed = erase_dir(e.b, e.a) || changed;
      break;
    case net::DynamicsKind::kLinkHeal:
      changed = add_dir(e.a, e.b);
      changed = add_dir(e.b, e.a) || changed;
      break;
    case net::DynamicsKind::kSplit: {
      std::vector<char> in_group(nodes_.size(), 0);
      for (const std::int32_t id : e.group) {
        in_group[static_cast<std::size_t>(id)] = 1;
      }
      for (std::size_t p = 0; p < adjacency_.size(); ++p) {
        auto& list = adjacency_[p];
        const std::size_t before = list.size();
        const char side = in_group[p];
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](std::int32_t q) {
                                    return in_group[static_cast<std::size_t>(
                                               q)] != side;
                                  }),
                   list.end());
        changed = changed || list.size() != before;
      }
      break;
    }
    case net::DynamicsKind::kMerge: {
      std::vector<char> in_group(nodes_.size(), 0);
      for (const std::int32_t id : e.group) {
        in_group[static_cast<std::size_t>(id)] = 1;
      }
      // Restore the BASE graph's cut edges — the adjacency the run started
      // with, not whatever fail/heal history accumulated since.
      for (std::size_t p = 0; p < base_adjacency_.size(); ++p) {
        const char side = in_group[p];
        for (const std::int32_t q : base_adjacency_[p]) {
          if (in_group[static_cast<std::size_t>(q)] != side) {
            changed = add_dir(static_cast<std::int32_t>(p), q) || changed;
          }
        }
      }
      break;
    }
    case net::DynamicsKind::kLeave:
    case net::DynamicsKind::kRejoin:
      // Pure churn markers: the process routing (core/reintegration.h
      // ChurnProcess) carries the physics; the schedule entry exists so
      // dynamics_applied() counts it and the engines refuse the run.
      break;
  }
  if (changed) {
    ++topology_version_;
    config_.topology = net::Topology::from_adjacency(adjacency_);
  }
}

void Simulator::add_trace_sink(TraceSink* sink) {
  if (sink != nullptr) main_.sinks.push_back(sink);
}

void Simulator::set_observer(Observer* observer) {
  observer_ = observer;
  observer_next_ = observer_ != nullptr
                       ? observer_->next_interest()
                       : std::numeric_limits<double>::infinity();
}

const char* Simulator::observer_refusal() const noexcept {
  return observer_ != nullptr ? "streaming observation (single-threaded API)"
                              : nullptr;
}

std::size_t Simulator::truncate_history_before(double t) {
  std::size_t removed = 0;
  for (Node& node : nodes_) {
    removed += node.corr.truncate_before(t);
    removed += node.clock->truncate_before(t);
  }
  return removed;
}

void Simulator::reserve_history(std::size_t changes_per_process,
                                std::size_t breakpoints_per_clock) {
  for (Node& node : nodes_) {
    node.corr.reserve(changes_per_process);
    node.clock->reserve_on_growth(breakpoints_per_clock);
  }
}

std::size_t Simulator::history_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Node& node : nodes_) {
    bytes += node.corr.approx_bytes() + node.clock->approx_bytes();
  }
  return bytes;
}

std::size_t Simulator::history_entries() const noexcept {
  std::size_t entries = 0;
  for (const Node& node : nodes_) {
    entries += node.corr.retained_entries() + node.clock->retained_breakpoints();
  }
  return entries;
}

void Simulator::draw_delays(std::int32_t from,
                            std::span<const std::int32_t> to,
                            double send_time, double* out) {
  delay_->delays(from, to, send_time, nodes_[idx(from)].delay_rng, out);
  // Written so that a NaN fails it too.
  bool in_band = true;
  for (std::size_t i = 0; i < to.size(); ++i) {
    in_band &= (out[i] >= band_lo_) & (out[i] <= band_hi_);
  }
  if (!in_band) {
    throw std::logic_error("delay model produced a delay outside A3 bounds");
  }
}

const double* Simulator::draw_row(Lane& lane, std::int32_t from,
                                  std::span<const std::int32_t> to) {
  if (lane.delay_row.size() < to.size()) lane.delay_row.resize(to.size());
  draw_delays(from, to, lane.current_time, lane.delay_row.data());
  return lane.delay_row.data();
}

void Simulator::do_send(Lane& lane, std::int32_t from, std::int32_t to,
                        std::int32_t tag, double value, std::int32_t aux) {
  (void)idx(to);  // validates the recipient id before anything is drawn
  do_fanout(lane, from, std::span<const std::int32_t>(&to, 1), tag, value,
            aux);
}

void Simulator::do_fanout(Lane& lane, std::int32_t from,
                          std::span<const std::int32_t> recipients,
                          std::int32_t tag, double value, std::int32_t aux) {
  if (recipients.empty()) return;

  // Everything observable happens exactly as for one scheduler entry per
  // recipient, in the same order: delays are drawn per link in list order
  // from the sender's stream, seq numbers are the block a per-recipient
  // loop would have consumed, and on_send fires per recipient at send
  // time.  Only the scheduler sees a difference: in-lane deliveries join
  // the ring behind its one entry.  Cross-lane recipients leave as
  // RemoteEvents carrying their pre-drawn delay and pre-allocated seq.
  const Message msg = make_app(from, tag, value, aux);
  const bool sharded = !lane_of_.empty();
  const EngineKind arrive_kind = config_.nic.has_value()
                                     ? EngineKind::kNicArrive
                                     : EngineKind::kDeliver;
  const double* const delays = draw_row(lane, from, recipients);
  std::uint32_t payload = net::DeliveryRing::kNone;
  for (std::size_t i = 0; i < recipients.size(); ++i) {
    const std::int32_t to = recipients[i];
    const double deliver_time = lane.current_time + delays[i];
    ++lane.messages_sent;
    for (TraceSink* sink : lane.sinks) {
      sink->on_send(from, to, msg, lane.current_time, deliver_time);
    }
    const std::uint64_t seq = alloc_seq(from);
    const std::int32_t dest = sharded ? lane_of_[idx(to)] : -1;
    if (sharded && dest != lane.shard) {
      lane.channels_out[static_cast<std::size_t>(dest)]->push(
          {deliver_time, seq, to, arrive_kind, msg});
    } else if (!lane.ring.enabled()) {
      schedule_raw(lane, deliver_time, /*tier=*/0, seq, to, arrive_kind, msg);
    } else {
      if (payload == net::DeliveryRing::kNone) {
        payload = lane.ring.open_payload(msg);
      }
      lane.ring.push(lane.current_time, deliver_time, seq, to, payload);
      // The ring exposes only its head to the scheduler, so each boundary
      // recipient's time is tracked individually.
      note_boundary(lane, to, deliver_time);
    }
  }
  // An armed ring needs no re-key: its sealed head precedes every new
  // delivery, and a seal entry is never later than ref + D - w (see
  // net/fanout.h).  While dispatch_ring runs, it re-arms on the way out.
  if (payload != net::DeliveryRing::kNone &&
      lane.ring_entry == EventPool::kInvalidHandle) {
    arm_ring(lane, lane.current_time);
  }
}

void Simulator::accept_remote(Lane& lane, const RemoteEvent& ev, double now,
                              std::uint32_t& payload) {
  // A seal entry later than the item would run it late; a sealed head
  // never does (the item's cell lies beyond the sealed one).
  const bool seal_ahead = lane.ring_queued && lane.ring_sealing &&
                          lane.pool[lane.ring_entry].time > ev.time;
  if (!lane.ring.enabled() || seal_ahead ||
      !lane.ring.push_remote(now, ev.time, ev.seq, ev.to, ev.msg, payload)) {
    schedule_raw(lane, ev.time, /*tier=*/0, ev.seq, ev.to, ev.engine_kind,
                 ev.msg);
    return;
  }
  note_boundary(lane, ev.to, ev.time);
  // An idle ring gets its entry now; a live one needs none (see above), and
  // while dispatch_ring runs it re-arms on the way out.
  if (lane.ring_entry == EventPool::kInvalidHandle) arm_ring(lane, now);
}

void Simulator::arm_ring(Lane& lane, double ref) {
  if (lane.ring_queued) {
    throw std::logic_error("Simulator: delivery ring armed twice");
  }
  if (lane.ring.empty()) {
    if (lane.ring_entry != EventPool::kInvalidHandle) {
      lane.pool.release(lane.ring_entry);
      lane.ring_entry = EventPool::kInvalidHandle;
    }
    return;
  }
  const net::DeliveryRing::Key key = lane.ring.next_key(ref);
  if (lane.ring_entry == EventPool::kInvalidHandle) {
    lane.ring_entry = lane.pool.acquire();
  }
  Event& event = lane.pool[lane.ring_entry];
  event.time = key.time;
  event.tier = 0;
  event.seq = key.seq;
  event.to = -1;
  event.engine_kind = EngineKind::kRing;
  event.msg = Message{};
  lane.ring_sealing = key.seal;
  lane.ring_queued = true;
  push_handle(lane, lane.ring_entry);
}

double Simulator::next_event_time(Lane& lane) {
  if (lane.scheduler->empty()) return std::numeric_limits<double>::infinity();
  if (!lane.ring_sealing || lane.scheduler->peek() != lane.ring_entry) {
    return lane.scheduler->peek_key().time;
  }
  // The head is a seal entry, up to D ahead of the delivery it stands in
  // front of: read the entry behind it, then put it back.
  const EventHandle handle = lane.scheduler->pop();
  ++lane.queue_pops;
  const double behind = lane.scheduler->empty()
                            ? std::numeric_limits<double>::infinity()
                            : lane.scheduler->peek_key().time;
  push_handle(lane, handle);
  return std::min(behind, lane.ring.min_time());
}

void Simulator::do_set_timer_logical(Lane& lane, std::int32_t pid,
                                     double logical_time, std::int32_t tag) {
  const Node& node = nodes_[idx(pid)];
  // Section 4.2 set-timer(T): physical target is T - CORR for current CORR.
  const double physical_target = logical_time - node.corr.current_target();
  do_set_timer_physical(lane, pid, physical_target, tag);
}

void Simulator::do_set_timer_physical(Lane& lane, std::int32_t pid,
                                      double physical_time, std::int32_t tag) {
  const Node& node = nodes_[idx(pid)];
  const double real = node.clock->to_real(physical_time);
  do_set_timer_real(lane, pid, real, tag);
}

void Simulator::do_set_timer_real(Lane& lane, std::int32_t pid,
                                  double real_time, std::int32_t tag) {
  // Section 2.2: the TIMER is buffered only if its delivery time is in the
  // future; otherwise nothing is placed in the buffer.
  if (real_time <= lane.current_time) return;
  schedule_event(lane, real_time, /*tier=*/1 /* execution property 4 */,
                 /*origin=*/pid, pid, EngineKind::kDeliver, make_timer(tag));
}

void Simulator::do_add_corr(Lane& lane, std::int32_t pid, double adj,
                            double amortize_duration) {
  Node& node = nodes_[idx(pid)];
  const double old_target = node.corr.current_target();
  const double new_target = old_target + adj;
  if (amortize_duration > 0.0) {
    node.corr.ramp(lane.current_time, new_target, amortize_duration);
  } else {
    node.corr.step(lane.current_time, new_target);
  }
  for (TraceSink* sink : lane.sinks) {
    sink->on_corr_change(pid, lane.current_time, old_target, new_target);
  }
}

void Simulator::deliver(Lane& lane, std::int32_t pid, const Message& msg) {
  Node& node = nodes_[idx(pid)];
  for (TraceSink* sink : lane.sinks) {
    sink->on_receive(pid, msg, lane.current_time);
  }
  SimContext ctx(*this, lane, pid, node.faulty);
  switch (msg.kind) {
    case Kind::kStart:
      node.process->on_start(ctx);
      break;
    case Kind::kTimer:
      node.process->on_timer(ctx, msg.tag);
      break;
    case Kind::kApp:
      node.process->on_message(ctx, msg);
      break;
  }
}

bool Simulator::step() {
  // A seal entry is not an event: keep going until one was processed.
  const std::uint64_t before = main_.events_processed;
  while (!main_.scheduler->empty()) {
    ++main_.queue_pops;
    dispatch(main_, main_.scheduler->pop(),
             std::numeric_limits<double>::infinity());
    if (main_.events_processed != before) return true;
  }
  return false;
}

void Simulator::count_event(Lane& lane) {
  if (++lane.events_processed > config_.max_events) {
    throw std::runtime_error("Simulator: max_events exceeded (runaway execution?)");
  }
}

void Simulator::nic_arrive(Lane& lane, std::int32_t pid, const Message& msg) {
  Nic& nic = nodes_[idx(pid)].nic;
  const NicConfig& cfg = *config_.nic;
  ++nic.stats.arrivals;
  // Burst clustering: a broadcast's whole delivery list can land on one
  // recipient set at a single instant (extremal delays), the Section 9.3
  // "punished for behaving well" regime.
  if (lane.current_time == nic.last_arrival) {
    ++nic.burst;
  } else {
    nic.last_arrival = lane.current_time;
    nic.burst = 1;
  }
  nic.stats.max_burst = std::max(nic.stats.max_burst, nic.burst);

  if (cfg.capacity > 0 && nic.pending.size() >= cfg.capacity) {
    ++nic.stats.dropped;
    ++lane.nic_dropped;
    for (TraceSink* sink : lane.sinks) sink->on_nic_drop(pid, lane.current_time);
    if (cfg.drop == NicDropPolicy::kDropNewest) {
      // Tail drop: the arriving datagram is lost.  The queue is non-empty,
      // so a service event is already in flight.
      return;
    }
    // Section 9.3: "if too many arrive at once, the old ones are
    // overwritten."
    nic.pending.pop_front();
  }
  nic.pending.push_back(msg);
  nic.stats.peak_queue = std::max(nic.stats.peak_queue, nic.pending.size());
  if (!nic.service_scheduled) {
    // Store-and-forward: handing over a datagram takes service_time even
    // when the NIC is idle.  This also keeps the service event strictly
    // after its triggering instant, so a same-time burst fully lands before
    // any handoff — an ordering that would otherwise depend on how event
    // seqs interleave across senders (per-origin seqs put the receiver's
    // service event before higher-id senders' arrivals).
    schedule_event(lane,
                   std::max(lane.current_time + cfg.service_time, nic.next_free),
                   /*tier=*/0,
                   /*origin=*/pid, pid, EngineKind::kNicService, Message{});
    nic.service_scheduled = true;
    ++nic.stats.service_events;
  }
}

void Simulator::arrive(Lane& lane, std::int32_t pid, const Message& msg) {
  if (config_.nic.has_value()) {
    nic_arrive(lane, pid, msg);
  } else {
    deliver(lane, pid, msg);
  }
}

void Simulator::dispatch_ring(Lane& lane, EventHandle handle, double limit) {
  // No event is pending before the entry's key, and none will be sent
  // before it: the seal reference starts there, and follows the lane clock
  // from the first delivery on.
  double ref = std::max(lane.pool[handle].time, lane.current_time);
  net::DeliveryRing& ring = lane.ring;
  lane.ring_queued = false;
  try {
    bool first = true;
    // The scheduler head, re-read only after a push: nothing pops while the
    // ring runs.
    EventKey head;
    std::uint64_t pushes = lane.queue_pushes - 1;
    while (!ring.empty()) {
      const net::DeliveryRing::Key key = ring.next_key(ref);
      if (key.seal || key.time > limit) break;
      // Run extension: deliver without a queue round-trip only while the
      // item still precedes every pending event (the handlers may have
      // scheduled earlier ones).
      if (pushes != lane.queue_pushes) {
        pushes = lane.queue_pushes;
        head = lane.scheduler->empty()
                   ? EventKey{std::numeric_limits<double>::infinity(), 0}
                   : lane.scheduler->peek_key();
      }
      if (!(EventKey{key.time, key.seq} < head)) {
        break;  // tier 0: the key's top bits are clear
      }
      count_event(lane);
      lane.current_time = key.time;
      ref = key.time;
      observe_advance(lane);
      const std::int32_t to = ring.front().to;
      const Message msg = ring.pop_front();
      if (!first) ++lane.fanout_direct;
      first = false;
      arrive(lane, to, msg);
      poll_lane(lane);
    }
  } catch (...) {
    arm_ring(lane, ref);
    throw;
  }
  arm_ring(lane, ref);
}

void Simulator::dispatch(Lane& lane, EventHandle handle, double limit) {
  // Slab storage keeps this reference valid while the handler schedules new
  // events into the same pool; the slot is recycled only after dispatch.
  const Event& event = lane.pool[handle];
  if (event.time < lane.current_time) {
    lane.pool.release(handle);
    throw std::logic_error("Simulator: event scheduled in the past");
  }
  if (event.engine_kind == EngineKind::kRing) {
    dispatch_ring(lane, handle, limit);
    return;
  }
  try {
    count_event(lane);
  } catch (...) {
    lane.pool.release(handle);
    throw;
  }
  lane.current_time = event.time;
  observe_advance(lane);
  switch (event.engine_kind) {
    case EngineKind::kDeliver:
      deliver(lane, event.to, event.msg);
      break;
    case EngineKind::kNicArrive:
      nic_arrive(lane, event.to, event.msg);
      break;
    case EngineKind::kNicService: {
      Nic& nic = nodes_[idx(event.to)].nic;
      nic.service_scheduled = false;
      if (nic.pending.empty()) break;
      const Message msg = nic.pending.pop_front();
      nic.next_free = lane.current_time + config_.nic->service_time;
      ++nic.stats.served;
      deliver(lane, event.to, msg);
      if (!nic.pending.empty()) {
        schedule_event(lane, nic.next_free, /*tier=*/0, /*origin=*/event.to,
                       event.to, EngineKind::kNicService, Message{});
        nic.service_scheduled = true;
        ++nic.stats.service_events;
      }
      break;
    }
    case EngineKind::kScenario:
      // event.to indexes the installed dynamics schedule, not a process.
      apply_dynamics(event.to);
      break;
    case EngineKind::kRing:
      break;  // handled above
  }
  lane.pool.release(handle);
}

void Simulator::run_lane(Lane& lane, double limit) {
  for (;;) {
    const EventHandle handle = lane.scheduler->pop_if_not_after(limit);
    if (handle == EventPool::kInvalidHandle) break;
    ++lane.queue_pops;
    dispatch(lane, handle, limit);
    poll_lane(lane);
  }
}

void Simulator::run_until(double real_time) {
  run_lane(main_, real_time);
  if (real_time > main_.current_time) main_.current_time = real_time;
}

}  // namespace wlsync::sim
