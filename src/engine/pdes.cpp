#include "engine/pdes.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/scheduler.h"
#include "util/spsc_queue.h"

namespace wlsync::engine {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Auto-tune thresholds (choose_pdes_workers).
constexpr std::int32_t kMinLaneSize = 64;  ///< processes per shard floor
/// Max average cut degree (cut edges per node): beyond this, cross-channel
/// traffic dominates the lane work.  A full mesh blows through it at any
/// interesting n; constant-degree expanders never reach it.
constexpr double kMaxCutDegree = 64.0;
/// Lanes never outnumber the cores, except on two or more cores once
/// each core's share of the processes is at least this thick: there up to
/// kMaxLanesPerCore lanes per core run.  That is where thinner lanes stop
/// losing to w = cores on the deg-16 expander (and gain a third on the
/// ring of 64-cliques); on one core, lanes lose to or tie with the serial
/// engine.  Measured with bench_sweep --pdes-json (README, PDES section).
constexpr std::int64_t kOversubscribeMinPerCore = 2048;
constexpr std::int32_t kMaxLanesPerCore = 4;
}  // namespace

// ---------------------------------------------------------------------------
// Worker auto-tuning

PdesPlan choose_pdes_workers(const net::Topology& topo, std::uint64_t seed,
                             std::int32_t cores) {
  const std::int32_t n = topo.n();
  const std::int32_t max_lanes =
      cores >= 2 && n >= kOversubscribeMinPerCore * cores
          ? kMaxLanesPerCore * cores
          : cores;
  std::string reason = "no processes";
  for (const std::int32_t k : {16, 8, 4, 2}) {
    if (n < k * kMinLaneSize) {
      reason = "n=" + std::to_string(n) + " leaves lanes thinner than " +
               std::to_string(kMinLaneSize) + " processes at k=" +
               std::to_string(k);
      continue;
    }
    if (k > max_lanes) {
      reason = "cores=" + std::to_string(cores) + " cannot host k=" +
               std::to_string(k) + " lanes";
      continue;
    }
    // Cheap density shortcut: a balanced k-partition of a graph with
    // average degree d has cut degree ~ d * (1 - 1/k) before refinement.
    // When even that optimistic estimate is an order of magnitude past the
    // ceiling (a full mesh at large n), skip the O(E) partition entirely.
    const double avg_degree =
        n > 0 ? static_cast<double>(topo.edge_count() - static_cast<std::size_t>(n)) /
                    static_cast<double>(n)
              : 0.0;
    if (avg_degree * (1.0 - 1.0 / static_cast<double>(k)) >
        16.0 * kMaxCutDegree) {
      reason = "graph too dense (avg degree " +
               std::to_string(static_cast<std::int64_t>(avg_degree)) +
               "): any k=" + std::to_string(k) + " cut would drown the lanes";
      continue;
    }
    net::Partition part = net::partition_topology(topo, k, seed);
    if (part.k < k) {
      reason = "partition collapsed to " + std::to_string(part.k) +
               " shards at k=" + std::to_string(k);
      continue;
    }
    const double cut_degree =
        2.0 * static_cast<double>(part.cut_edges.size()) /
        static_cast<double>(n);
    if (cut_degree > kMaxCutDegree) {
      reason = "cut degree " +
               std::to_string(static_cast<std::int64_t>(cut_degree)) +
               " exceeds " +
               std::to_string(static_cast<std::int64_t>(kMaxCutDegree)) +
               " at k=" + std::to_string(k);
      continue;
    }
    return {std::move(part), {}};
  }
  return {{}, "auto-tune declined: " + reason};
}

// ---------------------------------------------------------------------------
// Epoch-loop shared state

/// Everything the worker threads share.  Synchronization discipline:
///   * local_next / boundary_next / lane_stalls / lane_cross / lane_inline —
///     one writer slot per worker; read cross-thread only inside the barrier
///     completion (which the barrier orders after every writer's arrive).
///   * channels[dest][src] — an SPSC queue: worker `src` is the only
///     producer (pushes the moment a cross send is drawn, mid-window),
///     worker `dest` the only consumer (pre-window drain + mid-window
///     polls).  The completion additionally scan_pending()s and recycle()s
///     every queue, which is safe because all workers are blocked at the
///     barrier while it runs.
///   * window / done / epochs — written only by the completion callback and
///     read after the barrier releases.
///   * failed / error — workers set them from catch blocks before arriving;
///     the completion reads them after all arrivals.
struct PdesEngine::Shared {
  PdesEngine& engine;
  std::int32_t k;
  double horizon = 0.0;
  double static_lookahead = kInf;  ///< min_j lane_floor[j]
  /// L_j: min delay floor over shard j's OUTGOING cut directions, min'd
  /// with the global floor when the lane hosts a faulty process (Byzantine
  /// sends are not topology-restricted).  +inf for a lane that cannot send
  /// cross at all.
  std::vector<double> lane_floor;
  /// F_j: min in-lane delay floor out of an INTERIOR node of shard j — the
  /// one in-lane hop an interior event must make before any cut edge is
  /// reachable.  +inf when the shard has no interior nodes (then every
  /// lane-j event is a boundary event and A_j covers it).
  std::vector<double> intra_floor;
  /// Engine boundary = partition cut endpoints OR faulty (size n).  Lanes
  /// point at this vector; feed per-event boundary-heap pushes.
  std::vector<char> boundary;
  /// Whether lane j maintains a boundary heap at all.  Tracking costs a
  /// push_heap per boundary-targeted event, which only pays off when the
  /// lane has a real interior (A_j then races ahead of I_j across quiet
  /// stretches).  A lane that is mostly boundary — every lane of a
  /// partitioned expander or mesh — skips the heap and reports A_j = I_j,
  /// which degrades its window term to the per-lane static bound
  /// I_j + L_j, still sound and never worse than the global static fold.
  std::vector<char> track_boundary;
  std::vector<double> local_next;     ///< I_j: scheduler head time
  std::vector<double> boundary_next;  ///< A_j: pruned boundary-heap top
  std::vector<std::int64_t> lane_stalls;
  std::vector<std::int64_t> lane_cross;
  std::vector<std::int64_t> lane_inline;
  /// channels[dest][src]: RemoteEvents from shard src to shard dest
  /// (diagonal null).
  std::vector<std::vector<std::unique_ptr<util::SpscQueue<sim::RemoteEvent>>>>
      channels;

  /// The mid-window drain hook run_lane fires every 64 dispatches.
  struct Poller final : sim::LanePoller {
    Shared* shared = nullptr;
    std::int32_t wi = 0;
    void poll() override {
      shared->lane_inline[static_cast<std::size_t>(wi)] +=
          static_cast<std::int64_t>(shared->drain_lane(wi));
    }
  };
  std::vector<Poller> pollers;

  double window = 0.0;  ///< inclusive run_lane limit for the current epoch
  /// The current epoch's T: no lane runs an event before it, so it floors
  /// every lane clock from the epoch's first drain on.
  double epoch_start = 0.0;
  bool done = false;
  std::int64_t epochs = 0;
  double window_sum = 0.0;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  /// The barrier completion: fold per-lane reports + pending channel items
  /// into the epoch window.  Runs on one thread while all workers block, so
  /// it may touch everything without locks.
  struct Fold {
    Shared* s;
    void operator()() noexcept { s->fold(); }
  };
  std::barrier<Fold> gate;

  Shared(PdesEngine& eng, std::int32_t shards)
      : engine(eng),
        k(shards),
        lane_floor(static_cast<std::size_t>(shards), kInf),
        intra_floor(static_cast<std::size_t>(shards), kInf),
        local_next(static_cast<std::size_t>(shards), kInf),
        boundary_next(static_cast<std::size_t>(shards), kInf),
        lane_stalls(static_cast<std::size_t>(shards), 0),
        lane_cross(static_cast<std::size_t>(shards), 0),
        lane_inline(static_cast<std::size_t>(shards), 0),
        channels(static_cast<std::size_t>(shards)),
        pollers(static_cast<std::size_t>(shards)),
        gate(shards, Fold{this}) {
    for (std::size_t dest = 0; dest < static_cast<std::size_t>(shards);
         ++dest) {
      channels[dest].resize(static_cast<std::size_t>(shards));
      for (std::size_t src = 0; src < static_cast<std::size_t>(shards);
           ++src) {
        if (src == dest) continue;
        channels[dest][src] =
            std::make_unique<util::SpscQueue<sim::RemoteEvent>>();
      }
    }
    for (std::size_t wi = 0; wi < static_cast<std::size_t>(shards); ++wi) {
      pollers[wi].shared = this;
      pollers[wi].wi = static_cast<std::int32_t>(wi);
    }
  }

  /// Derives the per-lane floors and the engine boundary set from the
  /// partition + delay model + fault registrations.  Must run before setup
  /// migrates events (the boundary vector feeds the lanes' heaps).
  void init_floors(const net::Partition& part) {
    sim::Simulator& sim = engine.sim_;
    const std::int32_t n = sim.process_count();
    const sim::DelayModel& model = *sim.delay_;

    // Engine boundary: cut endpoints plus every faulty process.  A
    // partition without boundary data (hand-built) degrades to all-boundary,
    // which is safe — it only disables the interior-hop widening.
    boundary.assign(static_cast<std::size_t>(n), 1);
    if (part.boundary.size() == static_cast<std::size_t>(n)) {
      std::copy(part.boundary.begin(), part.boundary.end(), boundary.begin());
    }
    std::vector<char> lane_faulty(static_cast<std::size_t>(k), 0);
    for (std::int32_t id = 0; id < n; ++id) {
      if (sim.is_faulty(id)) {
        boundary[static_cast<std::size_t>(id)] = 1;
        lane_faulty[static_cast<std::size_t>(part.shard_of[static_cast<std::size_t>(id)])] = 1;
      }
    }

    // L_j from the precomputed per-shard cut lists (direction matters:
    // shard j's floor is over edges leaving j); fall back to a full
    // cut-edge scan for partitions predating shard_cuts.
    if (part.shard_cuts.size() == static_cast<std::size_t>(k)) {
      for (std::int32_t s = 0; s < k; ++s) {
        for (const std::int32_t e : part.shard_cuts[static_cast<std::size_t>(s)]) {
          const auto [u, v] = part.cut_edges[static_cast<std::size_t>(e)];
          const bool u_here = part.shard_of[static_cast<std::size_t>(u)] == s;
          lane_floor[static_cast<std::size_t>(s)] =
              std::min(lane_floor[static_cast<std::size_t>(s)],
                       u_here ? model.lower_bound(u, v) : model.lower_bound(v, u));
        }
      }
    } else {
      for (const auto& [u, v] : part.cut_edges) {
        const auto su = static_cast<std::size_t>(part.shard_of[static_cast<std::size_t>(u)]);
        const auto sv = static_cast<std::size_t>(part.shard_of[static_cast<std::size_t>(v)]);
        lane_floor[su] = std::min(lane_floor[su], model.lower_bound(u, v));
        lane_floor[sv] = std::min(lane_floor[sv], model.lower_bound(v, u));
      }
    }
    for (std::int32_t s = 0; s < k; ++s) {
      if (lane_faulty[static_cast<std::size_t>(s)] != 0) {
        lane_floor[static_cast<std::size_t>(s)] = std::min(
            lane_floor[static_cast<std::size_t>(s)], model.global_lower_bound());
      }
      static_lookahead =
          std::min(static_lookahead, lane_floor[static_cast<std::size_t>(s)]);
    }

    // Track the boundary heap only where the lane is majority-interior:
    // that is where A_j outruns I_j.
    track_boundary.assign(static_cast<std::size_t>(k), 0);
    std::vector<std::int32_t> lane_sizes(static_cast<std::size_t>(k), 0);
    std::vector<std::int32_t> lane_boundary(static_cast<std::size_t>(k), 0);
    for (std::int32_t id = 0; id < n; ++id) {
      const auto s = static_cast<std::size_t>(
          part.shard_of[static_cast<std::size_t>(id)]);
      ++lane_sizes[s];
      lane_boundary[s] += boundary[static_cast<std::size_t>(id)] != 0 ? 1 : 0;
    }
    for (std::int32_t s = 0; s < k; ++s) {
      track_boundary[static_cast<std::size_t>(s)] =
          2 * lane_boundary[static_cast<std::size_t>(s)] <
                  lane_sizes[static_cast<std::size_t>(s)]
              ? 1
              : 0;
    }
    bool any_interior = false;
    for (std::int32_t id = 0; id < n && !any_interior; ++id) {
      any_interior = boundary[static_cast<std::size_t>(id)] == 0;
    }

    // F_j over interior sources only.  A full mesh has no interior nodes at
    // k >= 2, so this never walks the O(n^2) mesh adjacency.
    if (any_interior) {
      for (std::int32_t u = 0; u < n; ++u) {
        if (boundary[static_cast<std::size_t>(u)] != 0) continue;
        const auto s = static_cast<std::size_t>(part.shard_of[static_cast<std::size_t>(u)]);
        for (const std::int32_t v : sim.neighbors_of(u)) {
          if (v == u) continue;
          intra_floor[s] = std::min(intra_floor[s], model.lower_bound(u, v));
        }
      }
    }
  }

  /// Moves every available inbound item into lane wi: its delivery ring
  /// where the ring can take it, its scheduler otherwise
  /// (Simulator::accept_remote).  Called by worker wi only (pre-window and
  /// from mid-window polls).  A remote event in this lane's past means the
  /// sender's window overlapped ours — the delay model broke its floor
  /// promise.  Fail loudly; never reorder.
  std::size_t drain_lane(std::int32_t wi) {
    sim::Simulator& sim = engine.sim_;
    sim::Simulator::Lane& lane =
        *sim.shard_lanes_[static_cast<std::size_t>(wi)];
    // An idle lane's clock may lag far behind the epoch; the ring measures
    // its span from what the lane can still run.
    const double now = std::max(lane.current_time, epoch_start);
    std::size_t total = 0;
    for (std::size_t src = 0; src < static_cast<std::size_t>(k); ++src) {
      util::SpscQueue<sim::RemoteEvent>* queue =
          channels[static_cast<std::size_t>(wi)][src].get();
      if (queue == nullptr) continue;
      std::uint32_t payload = net::DeliveryRing::kNone;
      total += queue->drain([&](const sim::RemoteEvent& ev) {
        if (ev.time < lane.current_time) {
          throw std::logic_error(
              "PdesEngine: causality violation — remote event at t=" +
              std::to_string(ev.time) + " behind lane time " +
              std::to_string(lane.current_time) +
              " (delay model under-promised its lookahead floor?)");
        }
        sim.accept_remote(lane, ev, now, payload);
      });
    }
    lane_cross[static_cast<std::size_t>(wi)] +=
        static_cast<std::int64_t>(total);
    return total;
  }

  void fold() noexcept {
    // The lane-local max_events slices already tripped individually; the
    // cross-lane SUM is the contract the serial engine enforces, so check
    // it here where all counters are quiescent.
    std::uint64_t total = engine.sim_.main_.events_processed;
    for (const auto& lane : engine.sim_.shard_lanes_) {
      total += lane->events_processed;
    }
    if (total > engine.sim_.config_.max_events && error == nullptr) {
      error = std::make_exception_ptr(std::runtime_error(
          "Simulator: max_events exceeded (runaway execution?)"));
      failed.store(true, std::memory_order_relaxed);
    }
    // T = earliest pending event anywhere: scheduler heads plus items still
    // sitting in channels (drains are opportunistic, so the fold must count
    // them).  The same scan folds each pending item's SEND horizon into the
    // adaptive bound: an item for a boundary process can cross again one
    // hop after it executes, an interior one needs an in-lane hop first.
    double t = kInf;
    double bound = kInf;
    for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
      double tj = local_next[j];
      const double lj = lane_floor[j];
      const double fj = intra_floor[j];
      for (std::size_t src = 0; src < static_cast<std::size_t>(k); ++src) {
        util::SpscQueue<sim::RemoteEvent>* queue = channels[j][src].get();
        if (queue == nullptr) continue;
        queue->recycle();  // quiescent: zero-alloc steady state
        queue->scan_pending([&](const sim::RemoteEvent& ev) {
          tj = std::min(tj, ev.time);
          bound = std::min(
              bound, boundary[static_cast<std::size_t>(ev.to)] != 0
                         ? ev.time + lj
                         : ev.time + fj + lj);
        });
      }
      t = std::min(t, tj);
      // Boundary events can cross one hop after they execute; interior
      // events need an in-lane hop before any cut edge is reachable.
      bound = std::min(bound, boundary_next[j] + lj);
      bound = std::min(bound, local_next[j] + fj + lj);
    }
    if (failed.load(std::memory_order_relaxed) || t > horizon) {
      done = true;
      return;
    }
    ++epochs;
    // Safe window: events strictly below the bound cannot be affected by
    // any cross-cut message still to be sent.  run_lane's limit is
    // inclusive, so step one ulp below; every adaptive term exceeds t by at
    // least the (positive) cut floor, so the ulp step never lands below t —
    // the clamp is belt-and-braces, and the event at t itself is always
    // safe, which also guarantees epoch progress.
    double limit = std::nextafter(bound, -kInf);
    if (limit < t) limit = t;
    window = std::min(limit, horizon);
    epoch_start = t;
    window_sum += window - t;
  }

  void record(std::exception_ptr err) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (error == nullptr) error = std::move(err);
    failed.store(true, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Engine lifecycle

PdesEngine::PdesEngine(sim::Simulator& sim, const net::Partition& partition,
                       std::vector<sim::TraceSink*> lane_sinks)
    : sim_(sim) {
  const char* reason = ineligible_reason(sim_, partition);
  if (reason != nullptr) {
    throw std::invalid_argument(std::string("PdesEngine: ") + reason);
  }
  shared_ = std::make_unique<Shared>(*this, partition.k);
  shared_->init_floors(partition);
  setup(partition, lane_sinks);
  stats_.lookahead = shared_->static_lookahead;
  stats_.shards = partition.k;
  live_ = true;
}

PdesEngine::~PdesEngine() {
  if (live_) dissolve();
}

double PdesEngine::lookahead_for(const sim::Simulator& sim,
                                 const net::Partition& partition) {
  if (partition.k <= 1 || partition.cut_edges.empty()) return kInf;
  bool any_faulty = false;
  for (std::int32_t id = 0; id < sim.process_count(); ++id) {
    any_faulty = any_faulty || sim.is_faulty(id);
  }
  const sim::DelayModel& model = *sim.delay_;
  if (any_faulty) {
    // Byzantine point-to-point sends are not topology-restricted: any
    // ordered pair can cross the cut, so only the global floor holds.
    return model.global_lower_bound();
  }
  double floor = kInf;
  for (const auto& [u, v] : partition.cut_edges) {
    floor = std::min({floor, model.lower_bound(u, v), model.lower_bound(v, u)});
  }
  return floor;
}

const char* PdesEngine::ineligible_reason(const sim::Simulator& sim) {
  if (sim.process_count() == 0) return "no processes registered";
  // The shard cut is computed once from the start topology; a schedule
  // that rewires the graph would invalidate lane ownership and the
  // lookahead floor mid-epoch.
  if (sim.has_dynamics()) {
    return "dynamic-topology schedule present (net/dynamics.h)";
  }
  if (!sim.shard_lanes_.empty()) return "shard lanes already live";
  // Lanes advance time independently; the observer needs one global order.
  return sim.observer_refusal();
}

const char* PdesEngine::ineligible_reason(const sim::Simulator& sim,
                                          const net::Partition& partition) {
  if (const char* reason = ineligible_reason(sim)) return reason;
  if (partition.n() != sim.process_count()) {
    return "partition node count does not match process count";
  }
  if (!(lookahead_for(sim, partition) > 0.0)) {
    return "delay model promises no positive lookahead floor on the cut";
  }
  return nullptr;
}

PdesPlan plan_pdes(const sim::Simulator& sim, const net::Topology& topo,
                   std::int32_t workers, std::uint64_t seed,
                   std::int32_t cores) {
  PdesPlan plan =
      workers <= 0
          ? choose_pdes_workers(topo, seed, cores)
          : PdesPlan{net::partition_topology(topo, workers, seed), {}};
  if (!plan.refusal.empty()) return plan;
  if (workers >= 2 && plan.partition.k < 2) {
    // Running it would silently serialize (and under-report) the run.
    plan.refusal = "partition collapsed to 1 shard";
  } else if (const char* reason =
                 PdesEngine::ineligible_reason(sim, plan.partition)) {
    plan.refusal = reason;
  }
  return plan;
}

void PdesEngine::setup(const net::Partition& partition,
                       const std::vector<sim::TraceSink*>& lane_sinks) {
  using Lane = sim::Simulator::Lane;
  const auto k = static_cast<std::size_t>(partition.k);

  // Warm every lazily-built structure a worker would otherwise race to
  // materialize: the implicit-mesh identity list and (when a topology is
  // configured) its BFS distance cache.
  (void)sim_.neighbors_of(0);

  sim_.shard_lanes_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->scheduler = make_scheduler(sim_.config_.scheduler, lane->pool);
    lane->ring.configure(sim_.main_.ring.geometry());
    lane->shard = static_cast<std::int32_t>(i);
    lane->current_time = sim_.main_.current_time;
    // Direct SPSC channels to every other lane, the engine boundary set
    // (installed BEFORE event migration so migrating boundary events seed
    // the heap) and the mid-window drain hook.
    lane->channels_out.assign(k, nullptr);
    for (std::size_t dest = 0; dest < k; ++dest) {
      if (dest == i) continue;
      lane->channels_out[dest] = shared_->channels[dest][i].get();
    }
    lane->boundary =
        shared_->track_boundary[i] != 0 ? &shared_->boundary : nullptr;
    lane->poller = &shared_->pollers[i];
    if (i < lane_sinks.size() && lane_sinks[i] != nullptr) {
      lane->sinks.push_back(lane_sinks[i]);
    }
    sim_.shard_lanes_.push_back(std::move(lane));
  }
  sim_.lane_of_ = partition.shard_of;

  // Migrate main_'s pending events to their owner lanes, seqs intact.  The
  // ring's in-flight deliveries may span shards: un-batch them into
  // per-recipient events (the ring is observable-identical to per-recipient
  // scheduling, so the split cannot change the execution).
  const sim::EngineKind arrive_kind = sim_.config_.nic.has_value()
                                          ? sim::EngineKind::kNicArrive
                                          : sim::EngineKind::kDeliver;
  while (!sim_.main_.scheduler->empty()) {
    const sim::EventHandle handle = sim_.main_.scheduler->pop();
    ++sim_.main_.queue_pops;
    const sim::Event& event = sim_.main_.pool[handle];
    if (event.engine_kind == sim::EngineKind::kRing) {
      sim_.unbatch_ring(sim_.main_, [&](const net::RingItem& item,
                                        const sim::Message& msg) {
        sim_.schedule_raw(sim_.owner_lane(item.to), item.time, /*tier=*/0,
                          item.seq, item.to, arrive_kind, msg);
      });
      continue;
    }
    sim_.schedule_raw(sim_.owner_lane(event.to), event.time, event.tier,
                      event.seq, event.to, event.engine_kind, event.msg);
    sim_.main_.pool.release(handle);
  }
}

void PdesEngine::worker(std::int32_t wi, double horizon) {
  (void)horizon;  // folded into Shared by run_until
  Shared& sh = *shared_;
  sim::Simulator::Lane& lane =
      *sim_.shard_lanes_[static_cast<std::size_t>(wi)];
  const auto w = static_cast<std::size_t>(wi);
  for (;;) {
    try {
      // Report phase: next event I_j and boundary-heap top A_j.  Heap
      // entries below the next event belong to events that already
      // executed (it is a lower bound on everything still pending,
      // including the ring's deliveries: next_event_time looks past a seal
      // entry to the delivery it stands in front of) — prune them lazily
      // here.
      const double peek = sim_.next_event_time(lane);
      auto& bh = lane.boundary_heap;
      while (!bh.empty() && bh.front() < peek) {
        std::pop_heap(bh.begin(), bh.end(), std::greater<>{});
        bh.pop_back();
      }
      sh.local_next[w] = peek;
      // Untracked lane: every pending event might be a boundary event, so
      // A_j degrades to the scheduler head (the per-lane static bound).
      sh.boundary_next[w] = lane.boundary == nullptr
                                ? peek
                                : (bh.empty() ? kInf : bh.front());
    } catch (...) {
      sh.record(std::current_exception());
      sh.local_next[w] = kInf;
      sh.boundary_next[w] = kInf;
    }
    sh.gate.arrive_and_wait();  // completion folds the window / termination
    if (sh.done) break;
    try {
      // Run phase.  First drain everything already in the channels: the
      // fold bounded those items' SEND horizons, not their own times, so
      // they may lie inside the fresh window and must be in the scheduler
      // before it executes.  (Everything pushed before the producers
      // arrived at the gate is visible here.)  Mid-window arrivals land
      // strictly beyond the window and are ingested by the dispatch-loop
      // polls; the trailing drain just shrinks the next fold's scan.
      sh.drain_lane(wi);
      const std::uint64_t before = lane.events_processed;
      sim_.run_lane(lane, sh.window);
      if (lane.events_processed == before) ++sh.lane_stalls[w];
      sh.drain_lane(wi);
    } catch (...) {
      sh.record(std::current_exception());
    }
  }
}

void PdesEngine::run_until(double horizon) {
  if (!live_) {
    throw std::logic_error("PdesEngine: run_until after lanes dissolved");
  }
  Shared& sh = *shared_;
  sh.horizon = horizon;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(sh.k));
  for (std::int32_t wi = 0; wi < sh.k; ++wi) {
    workers.emplace_back([this, wi, horizon] { worker(wi, horizon); });
  }
  for (std::thread& t : workers) t.join();

  stats_.epochs += sh.epochs;
  stats_.window_sum += sh.window_sum;
  for (std::int32_t wi = 0; wi < sh.k; ++wi) {
    stats_.stalls += sh.lane_stalls[static_cast<std::size_t>(wi)];
    stats_.cross_messages += sh.lane_cross[static_cast<std::size_t>(wi)];
    stats_.inline_drained += sh.lane_inline[static_cast<std::size_t>(wi)];
  }

  std::exception_ptr err = sh.error;
  dissolve();
  live_ = false;
  if (err != nullptr) std::rethrow_exception(err);
}

void PdesEngine::dissolve() {
  // Leftover channel traffic exists on failure paths and past-horizon
  // epochs; dissolve must always leave a runnable serial simulator, so
  // drain every queue into main_ (quiescent: all workers joined).
  if (shared_ != nullptr) {
    for (auto& row : shared_->channels) {
      for (auto& cell : row) {
        if (cell == nullptr) continue;
        cell->drain([&](const sim::RemoteEvent& ev) {
          sim_.schedule_raw(sim_.main_, ev.time, /*tier=*/0, ev.seq, ev.to,
                            ev.engine_kind, ev.msg);
        });
      }
    }
  }
  const sim::EngineKind arrive_kind = sim_.config_.nic.has_value()
                                          ? sim::EngineKind::kNicArrive
                                          : sim::EngineKind::kDeliver;
  for (auto& lane_ptr : sim_.shard_lanes_) {
    sim::Simulator::Lane& lane = *lane_ptr;
    while (!lane.scheduler->empty()) {
      const sim::EventHandle handle = lane.scheduler->pop();
      const sim::Event& event = lane.pool[handle];
      if (event.engine_kind == sim::EngineKind::kRing) {
        // Un-batch the remaining deliveries; their recorded seqs/times make
        // the expansion indistinguishable from per-recipient scheduling.
        sim_.unbatch_ring(lane, [&](const net::RingItem& item,
                                    const sim::Message& msg) {
          sim_.schedule_raw(sim_.main_, item.time, /*tier=*/0, item.seq,
                            item.to, arrive_kind, msg);
        });
        continue;
      }
      sim_.schedule_raw(sim_.main_, event.time, event.tier, event.seq,
                        event.to, event.engine_kind, event.msg);
      lane.pool.release(handle);
    }
    sim_.main_.messages_sent += lane.messages_sent;
    sim_.main_.events_processed += lane.events_processed;
    sim_.main_.nic_dropped += lane.nic_dropped;
    sim_.main_.queue_pushes += lane.queue_pushes;
    sim_.main_.queue_pops += lane.queue_pops;
    sim_.main_.fanout_direct += lane.fanout_direct;
    sim_.retired_ring_chunks_ += lane.ring.chunk_allocs();
    sim_.main_.peak_pending = std::max(sim_.main_.peak_pending, lane.peak_pending);
    sim_.main_.current_time = std::max(sim_.main_.current_time, lane.current_time);
  }
  sim_.shard_lanes_.clear();
  sim_.lane_of_.clear();
}

}  // namespace wlsync::engine
