#pragma once
// Conservative parallel discrete-event engine (PDES) over topology shards.
//
// The serial engine dispatches one global (time, tier, seq) order.  This
// engine partitions the process set into K shards (net/partition.h), gives
// each shard a private Simulator::Lane — event pool, scheduler, delivery
// ring, clock — and a worker thread, and advances all lanes concurrently
// under the classic conservative-synchronization guarantee: a message
// crossing the cut, sent at time >= T, arrives at >= T + L for the cut's
// delay floor L, so everything strictly below the folded bound is safe to
// execute without hearing from other lanes.
//
// The epoch protocol is ONE folding barrier per epoch, with the channel
// drain overlapped into lane execution:
//
//   report    each worker prunes its lane's boundary heap against the
//             scheduler head and reports (next event time I_j, next
//             boundary event time A_j);
//   barrier   the completion folds the epoch window (see below), scans the
//             SPSC channels' pending items into the termination time, and
//             recycles spent channel blocks (quiescent: every worker is
//             blocked, so steady-state epochs allocate nothing);
//   run       each worker first drains everything pending in its inbound
//             channels (those items may lie inside the fresh window), then
//             executes run_lane up to the window limit.  Cross-cut sends
//             are pushed DIRECTLY into the destination lane's SPSC channel
//             — the sending lane has already drawn the delay and allocated
//             the seq from the SENDER's private streams, so the values are
//             exactly the serial engine's — and the receiving lane polls
//             its channels every few dispatches (sim::LanePoller), so
//             arrival ingestion overlaps execution instead of serializing
//             behind a publish barrier.
//
// Window fold.  With per-lane outgoing cut floors L_j (min over shard j's
// incident cut edges, min'd with the global floor when the lane hosts a
// faulty process) and per-lane intra floors F_j (min in-lane edge floor
// from an interior node):
//
//   static    W = T + min_j L_j          (the global-floor window)
//   adaptive  W = min_j min( A_j + L_j,            boundary events
//                            I_j + F_j + L_j,      interior events: one
//                                                  in-lane hop before any
//                                                  cut edge is reachable
//                            r + [L_j | F_j+L_j])  pending channel items r
//
// The engine runs the adaptive window.  Every adaptive term dominates
// T + min_j L_j, so it is never narrower than the static one, which
// survives only as the PdesStats::lookahead telemetry.  Epochs widen to
// the next cross-cut *send horizon* instead of the next event anywhere:
// the inter-round gap, where no boundary process has anything pending,
// collapses into one epoch.
//
// Bit-identity (the whole point): per-origin seq allocation, per-sender
// delay streams and the store-and-forward NIC make the event order
// intrinsic to each process' execution rather than to a global insertion
// counter, so the sharded execution replays the serial one exactly —
// pinned by tests/pdes_test.cpp at results_identical strictness across
// topologies x delay models x fault mixes x worker counts, and by
// tests/pdes_property_test.cpp across randomized pins.
//
// The engine never deadlocks (the barrier is global and every epoch makes
// progress: the event at T itself is inside the window) and never violates
// causality — if a delay model ever under-promised its floor, the drain
// throws ("PDES causality violation") rather than reordering.

#include <cstdint>
#include <string>
#include <vector>

#include "net/partition.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wlsync::engine {

struct PdesStats {
  std::int64_t epochs = 0;  ///< barrier windows executed
  /// Lane-epochs that dispatched zero events (idle lanes inside a window —
  /// the conservative overhead a tighter lookahead would reclaim).
  std::int64_t stalls = 0;
  std::int64_t cross_messages = 0;  ///< RemoteEvents carried over channels
  /// Of cross_messages, how many were ingested by mid-window polls
  /// (overlapped with execution) rather than the epoch-boundary drain.
  std::int64_t inline_drained = 0;
  /// The static window width min_j L_j (seconds); the adaptive window is
  /// never narrower.
  double lookahead = 0.0;
  /// Sum over epochs of (window limit - T): average adaptive widening is
  /// window_sum / epochs - lookahead.
  double window_sum = 0.0;
  std::int32_t shards = 0;
};

/// Deterministic auto-tune outcome for pdes_workers <= 0.
struct PdesAutoChoice {
  std::int32_t workers = 1;  ///< < 2 means "stay serial"
  std::string reason;        ///< why it declined (empty when workers >= 2)
};

/// Picks a shard/worker count for `topo` from partition cut statistics
/// (cut fraction, lane thickness) plus the live stall telemetry recorded
/// by completed PDES runs (PdesTuner).  Deterministic given the tuner
/// state; candidates descend {16, 8, 4, 2}.
[[nodiscard]] PdesAutoChoice choose_pdes_workers(const net::Topology& topo,
                                                 std::uint64_t seed);

/// The shard layout a PDES run over `sim` uses, or why it cannot run.
struct PdesPlan {
  net::Partition partition;  ///< valid iff refusal is empty
  std::string refusal;
};

/// Plans a PDES run over `sim`, whose exchange graph is `topo`: `workers`
/// >= 2 pins the shard count, exactly 1 runs one shard, and <= 0 asks
/// choose_pdes_workers (refused when it declines).  Refused as well when
/// the partitioner collapses a pinned count to one shard, or by either
/// PdesEngine::ineligible_reason.  Callers check the partition-free
/// PdesEngine::ineligible_reason(sim) first, so a run refused for one of
/// those reasons never tunes or partitions.
[[nodiscard]] PdesPlan plan_pdes(const sim::Simulator& sim,
                                 const net::Topology& topo,
                                 std::int32_t workers, std::uint64_t seed);

/// Process-wide stall telemetry: every completed PDES run records its
/// stall rate keyed by (n, shards); choose_pdes_workers demotes candidates
/// whose observed EWMA rate exceeds the smoke-gate ceiling (0.25).  This
/// is what fixes nonmonotonic worker cells *live*: one stall-heavy run at
/// (n, 8) steers the next auto-tuned run at that size to 4.  Thread-safe
/// (ParallelRunner trials record concurrently).
class PdesTuner {
 public:
  static PdesTuner& instance();
  void record(std::int32_t n, std::int32_t shards, double stall_rate);
  /// EWMA stall rate for the key, or -1 when nothing was recorded.
  [[nodiscard]] double stall_rate(std::int32_t n, std::int32_t shards) const;
  void reset();  ///< tests only

 private:
  PdesTuner() = default;
  struct Impl;
};

/// One parallel run over an existing Simulator.  Construction shards the
/// simulator's pending events into per-shard lanes; run_until drives the
/// epoch loop with one worker thread per shard; destruction (or run_until
/// completing, whichever comes first) dissolves the lanes back into the
/// serial main lane, so the Simulator afterwards is indistinguishable from
/// one that ran serially — run_until can even continue past the parallel
/// horizon on the event engine.
class PdesEngine {
 public:
  /// `lane_sinks[i]` (optional, may be empty) is attached as shard i's
  /// trace sink; per-lane sinks see only their shard's events, in lane
  /// order, and the caller merges afterwards (RoundTrace::absorb).  The
  /// simulator's own main-lane sinks see nothing while the engine runs.
  PdesEngine(sim::Simulator& sim, const net::Partition& partition,
             std::vector<sim::TraceSink*> lane_sinks = {});
  ~PdesEngine();

  PdesEngine(const PdesEngine&) = delete;
  PdesEngine& operator=(const PdesEngine&) = delete;

  /// Why `sim` cannot run under this engine at all, or nullptr if it may:
  /// no dynamics schedule, no live shard lanes, no streaming observer.
  /// These rules need no partition, so callers check them before paying
  /// for one (see plan_pdes).
  [[nodiscard]] static const char* ineligible_reason(const sim::Simulator& sim);
  /// The above plus the rules that need the partition: it covers every
  /// process, and the cut promises a positive lookahead floor.  The
  /// constructor throws on any of them.
  [[nodiscard]] static const char* ineligible_reason(
      const sim::Simulator& sim, const net::Partition& partition);

  /// The static conservative window width for this (simulator, partition)
  /// pair: min over cut-edge floors fault-free, the global floor otherwise,
  /// and +infinity for a cut-free (single-shard) partition.  The adaptive
  /// window is never narrower than this.
  [[nodiscard]] static double lookahead_for(const sim::Simulator& sim,
                                            const net::Partition& partition);

  /// Runs every event with time <= horizon, in parallel, then dissolves the
  /// lanes.  Throws (after restoring the serial lane) on causality
  /// violations, runaway executions, or anything a process handler threw.
  /// Feeds the run's stall rate into PdesTuner on completion.
  void run_until(double horizon);

  [[nodiscard]] const PdesStats& stats() const noexcept { return stats_; }

 private:
  void setup(const net::Partition& partition,
             const std::vector<sim::TraceSink*>& lane_sinks);
  void dissolve();
  void worker(std::int32_t wi, double horizon);

  sim::Simulator& sim_;
  PdesStats stats_;
  bool live_ = false;  ///< lanes exist and must be dissolved

  // Epoch-loop shared state; see pdes.cpp.
  struct Shared;
  std::unique_ptr<Shared> shared_;
};

}  // namespace wlsync::engine
