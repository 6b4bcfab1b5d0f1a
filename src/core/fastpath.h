#pragma once
// Round-synchronous fast path over the event engine.
//
// In the NIC-free regime the Section 4.2 execution has a rigid shape: every
// nonfaulty process broadcasts once per exchange, every message lands within
// (delta - eps, delta + eps) of its send, and every process updates once
// after its collection window — so the event queue holds the same three
// strata (n broadcasts, sum-of-degree deliveries, n updates) round after
// round.  The event engine pays a scheduler round-trip, a virtual dispatch
// and a clock locate per delivery; at n = 4096 on the full mesh that is
// ~16.7M heap-ordered events per round.
//
// RoundFastPath advances the system one whole exchange at a time instead:
//
//   phase 0  predict every process' update instant exactly (the window-end
//            logical time through the process' own window_end(), converted
//            by the same CORR/to_real chain set_timer uses — CORR cannot
//            change during collection, so the prediction is the double the
//            timer would carry) and verify strict phase separation:
//            last broadcast + delta + eps < first update.  Any violation
//            bails BEFORE mutating anything.
//   phase 1  run the broadcast events in (time, tier, seq) order through
//            the REAL WelchLynchProcess::on_start/on_timer with a mirrored
//            Context; seq numbers and message counts advance exactly as the
//            engine's fanout blocks would.  Broadcasts are recorded, not
//            scheduled; their delays are drawn in phase 2 (kRegion draws
//            inline, see below).
//   phase 2  draw every link's delay from its sender's own stream, in
//            neighbor order, and evaluate ARR = local-time(t): a single
//            affine clock segment covering the window turns it into
//            (seg.clock + (t - seg.real) * seg.rate) + CORR — the exact
//            expression of now() + corr, so the stored doubles are
//            bit-identical (proc/reduce_kernels.h); windows split by a
//            drift breakpoint fall back to per-point now().  On the full
//            mesh one fused kernel draws straight into the receivers'
//            arena slots (a sender's slot is its id everywhere); sparse
//            graphs draw into a flat n x deg delivery matrix first and
//            gather each receiver's column from it.  No events: arrivals
//            allocate no seqs.  Then, per receiver, the arena minimum the
//            round-overlap guard needs, and the update's reduction
//            mid/mean(reduce(ARR)) and starvation count, primed in the
//            arena's memos (proc/arrival.h).
//   phase 3  run the update events in order through the real process code
//            (CORR steps, annotations and trace callbacks fire at their
//            exact instants; do_update reads the primed starvation count
//            and consumes the primed reduction); the
//            next broadcast timers they set become the next iteration's
//            pending stratum.
//
// Parallelism.  Within one exchange the O(n^2) work has no ordering: a
// sender's delays depend only on its own stream, a receiver's arrivals
// and reduction only on its own clock and arena.  On the full mesh the
// fused kernel runs by group of 8 senders (one cache line of every arena),
// with each receiver's clock segment looked up serially beforehand; on
// sparse graphs the delay rows run by sender and the arrival kernel by
// receiver.  Those kernels and the reductions (by receiver) run on
// util::parallel_for once an exchange carries
// kFastpathShardThreshold deliveries, the machine has more than one
// hardware thread, and the caller is not itself a pool worker (a
// ParallelRunner trial stays serial).  Each task touches disjoint state, so
// any thread count produces the same doubles.  Process code and trace
// callbacks stay on the calling thread in exact (time, tier, seq) order.
// kRegion always runs serially.
//
// Three operating modes widen the eligible region (ISSUE 8):
//
//   * kPlain — the PR 6 regime: simultaneous broadcasts, no faults.
//   * kStaggered — the Section 9.3 variant (stagger > 0, fault-free).
//     Process p broadcasts at base + p*sigma, so a steady-state exchange
//     boundary holds 2n-1 events: n broadcast timers plus one PRE-ARMED
//     update timer per p > 0 (begin_exchange arms both together; p = 0
//     arms its update at its broadcast).  Phase 1 runs a worklist ordered
//     by (time, tier, seq) so broadcast timers armed by replayed STARTs
//     fire inside the same exchange, and the delivery kernel subtracts the
//     receiver-side normalization off[s] = s * sigma with the engine's
//     exact FP expression.  Only the phase-separation predicate and the
//     predicted instants change; the kernels are shared.
//   * kRegion — fault-isolating regions (faults present, stagger = 0, a
//     sparse exchange graph).  The tainted region is the union of the
//     adversaries' closed neighborhoods (Topology::closed_neighborhood);
//     the honest remainder — the FAST set, whose members have no faulty
//     neighbors by construction — runs through the batched kernel, while
//     region events stay in the scheduler and are dispatched by a merged
//     loop in global (time, tier, seq) order before each fast replay step
//     (advance_engine_to), re-merging at update instants.  Fast-to-region
//     deliveries are scheduled as ordinary events with their pre-drawn
//     delays and pre-allocated seqs; region-to-fast deliveries ride the
//     engine into the fast arenas at their exact instants.  Any
//     cross-boundary surprise bails to full event replay.
//
// The moment any precondition breaks — pending stratum malformed, horizon
// or max_events budget reached, phase separation violated, or a next-round
// broadcast that could overtake this round's last update — the pending
// events are re-injected into the scheduler WITH THEIR RECORDED SEQS (a
// deliver/timer event keyed (time, tier, seq) is indistinguishable from the
// entry the engine would have held) and the event engine resumes.
// Executions are pinned bit-identical to the pure event engine at
// results_identical strictness by tests/fastpath_test.cpp.

#include <cstdint>
#include <vector>

#include "clock/physical_clock.h"
#include "proc/context.h"
#include "sim/event.h"

namespace wlsync::sim {
class Simulator;
}  // namespace wlsync::sim

namespace wlsync::core {

/// Deliveries per exchange (n^2 on the full mesh) from which RoundFastPath
/// shards its per-exchange kernels across the machine's cores: n = 256 on
/// the mesh.  Below it the fork-join costs more than the kernels save
/// (measured in README.md's fast-path section).
inline constexpr std::uint64_t kFastpathShardThreshold = std::uint64_t{1} << 16;

class WelchLynchProcess;
class FastPathContext;

/// Telemetry for one RoundFastPath::run, copied into the RunTelemetry half
/// of the result: it describes how the run was computed, not what it
/// measured.
struct FastPathStats {
  bool engaged = false;          ///< entry validation passed; exchanges ran
  std::int64_t exchanges = 0;    ///< exchanges advanced past the event queue
  std::uint64_t deliveries = 0;  ///< arrivals evaluated by the batched kernel
  const char* handoff = "";      ///< why control returned to the event engine
  /// Times the fast path re-engaged after a transient bail: the event
  /// engine stepped through the irregular stretch (e.g. a round-0 phase
  /// separation violated by a large initial spread) and handed back a
  /// clean exchange boundary.
  std::int64_t rearms = 0;
  /// Size of the fast set: n in kPlain/kStaggered, the honest pids outside
  /// the adversary's closed neighborhood in kRegion.
  std::int32_t fast_count = 0;
  /// kRegion only: events the merged loop ran through the event engine
  /// while engaged (region timers, region deliveries, deliveries crossing
  /// the region boundary).
  std::int64_t region_events = 0;
  /// Threads the per-exchange kernels ran on: 1 = serial, else
  /// util::hardware_threads() (see kFastpathShardThreshold).
  std::int32_t threads = 1;
};

class RoundFastPath {
 public:
  explicit RoundFastPath(sim::Simulator& sim);
  ~RoundFastPath();

  RoundFastPath(const RoundFastPath&) = delete;
  RoundFastPath& operator=(const RoundFastPath&) = delete;

  /// Static eligibility, and the only statement of the fast path's rules:
  /// nullptr when the registered system can run on the fast path, else the
  /// reason.  In check order: no dynamics schedule; every nonfaulty process
  /// a WelchLynchProcess with one consistent stagger; when faults are
  /// registered, no stagger and an explicit topology; no NIC; no attached
  /// observer (sim::Simulator::observer_refusal, the rule PDES shares);
  /// when faults are registered, an adversary closed neighborhood that
  /// leaves a nonempty honest remainder; no trace sink consuming
  /// per-message events.  Dynamic conditions (queue shape, phase
  /// separation, budgets) are handled by run()'s bail protocol, not here.
  [[nodiscard]] static const char* ineligible_reason(sim::Simulator& sim);

  /// Advances exchanges until a precondition breaks or `horizon` is
  /// reached, then re-injects the pending stratum; the caller finishes with
  /// Simulator::run_until(horizon) exactly as without a fast path.  Safe to
  /// call on an ineligible system (records the reason and does nothing).
  void run(double horizon);

  [[nodiscard]] const FastPathStats& stats() const noexcept { return stats_; }

 private:
  friend class FastPathContext;

  enum class Kind : std::uint8_t { kStart, kTimer };
  enum class Mode : std::uint8_t { kPlain, kStaggered, kRegion };

  /// A queue entry held outside the scheduler: enough to replay it (pid +
  /// payload) and to re-inject it losslessly (time, tier, seq).
  struct PendingEvent {
    double time = 0.0;
    std::int32_t tier = 0;
    std::uint64_t seq = 0;
    std::int32_t pid = -1;
    std::int32_t tag = 0;
    Kind kind = Kind::kTimer;
  };

  struct PendingTimer {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::int32_t pid = -1;
    std::int32_t tag = 0;
  };

  void init();
  /// Drains the scheduler and validates the entry stratum; pushes
  /// everything back untouched (same handles, same seqs) on any surprise.
  /// kPlain accepts exactly one START or tier-1 broadcast timer per
  /// process; kStaggered additionally accepts the 2n-1 steady-state shape
  /// (broadcast timers plus pre-armed update timers for p > 0); kRegion
  /// extracts one START-or-broadcast-timer per FAST pid and leaves every
  /// region event in place (in-flight deliveries into the fast set
  /// included — the merged loop dispatches those at their exact keys).
  [[nodiscard]] bool take_entry_events();
  /// After a transient bail: advance the event engine one event at a time
  /// (never past `horizon` or the event budget) until the queue is again a
  /// clean exchange boundary, then re-take it.  False = the bail was final
  /// (horizon/budget) or no boundary emerged before the horizon.
  [[nodiscard]] bool try_rearm(double horizon);
  /// One exchange; false = bailed (pending events re-injected).
  [[nodiscard]] bool run_exchange(double horizon);
  void inject_pending(const char* reason);
  /// kRegion: dispatch every scheduler event strictly before the key
  /// (time, tier, seq) through the regular engine, so region activity and
  /// fast replays interleave in the global deterministic order.
  void advance_engine_to(double time, std::int32_t tier, std::uint64_t seq);
  /// A broadcast replayed in phase 1 whose delays are not drawn yet.
  struct Send {
    std::int32_t from = -1;
    double time = 0.0;
  };
  /// Per-slice state of the sharded sparse-graph kernels: gather scratch
  /// for deliver_generic and the delay rows' partial min/max.
  struct Slice {
    std::vector<double> gather_t;
    std::vector<double> gather_v;
    double lo = 0.0;
    double hi = 0.0;
  };
  /// Slices a kernel over `count` work units uses: min(count, slices_).
  [[nodiscard]] std::size_t slice_count(std::size_t count) const;
  /// Runs fn(begin, end, slice) over contiguous slices of [0, count) on
  /// threads_ threads; inline when serial.
  template <typename Fn>
  void for_slices(std::size_t count, Fn&& fn);
  /// A full-mesh receiver as the fused kernel sees it: the affine clock
  /// segment covering the exchange's delivery window (or `raw` when a drift
  /// breakpoint splits it), its CORR and its arena's slots.
  struct Receiver {
    clk::PhysicalClock::AffineSpan span;
    double corr = 0.0;
    double* slots = nullptr;
    bool raw = false;
  };
  /// Sparse kPlain / kStaggered: draws every recorded broadcast's delay
  /// row, one sender per task, and sets deliver_min_ / deliver_max_.
  void draw_rows();
  /// Full mesh, kPlain / kStaggered: phase 2's fused draw + arrival
  /// kernel, one group of 8 senders per task, writing the arenas directly.
  void draw_into_arenas();
  void deliver_generic(double t0, double t1);
  /// kPlain / kStaggered, after phase 2: each fast receiver's arena minimum
  /// (arr_min_) and its update's reduction, primed in the arena's memo.
  void prime_updates();

  // --- FastPathContext callbacks (mirrors of the SimContext entry points;
  // see fastpath.cpp for the per-call equivalence argument) ---
  void on_broadcast(std::int32_t from, std::int32_t tag, double value,
                    std::int32_t aux);
  void on_set_timer_logical(std::int32_t pid, double logical_time,
                            std::int32_t tag);
  void on_annotate(std::int32_t pid, const proc::Annotation& annotation);
  [[nodiscard]] double ctx_physical_time(std::int32_t pid) const;
  [[nodiscard]] double ctx_corr(std::int32_t pid) const;
  void ctx_add_corr(std::int32_t pid, double adj, double duration);

  sim::Simulator& sim_;
  FastPathStats stats_;
  Mode mode_ = Mode::kPlain;
  std::int32_t n_ = 0;
  bool mesh_ = false;  ///< implicit full mesh: sender id IS the dense slot
  double stagger_ = 0.0;          ///< kStaggered: the shared sigma
  std::uint64_t total_deg_ = 0;   ///< kernel-evaluated deliveries per exchange
  std::vector<WelchLynchProcess*> wl_;   ///< per-pid; nullptr outside the fast set
  std::vector<char> fast_;               ///< pid -> in the fast set
  std::vector<std::int32_t> fast_ids_;   ///< ascending fast pids
  std::vector<double> off_;              ///< kStaggered: off[s] = s * sigma
  // Sparse graphs only (never allocated on the full mesh): sender s's
  // delivery times, in neighbor order, start at times_[row_offset_[s]].
  std::vector<std::size_t> row_offset_;
  std::vector<double> times_;
  // Full mesh only: send instant per sender, per-receiver kernel view, and
  // the receivers whose window holds a drift breakpoint.
  std::vector<double> send_at_;
  std::vector<Receiver> recv_;
  std::vector<std::size_t> raw_ids_;
  // Generic-topology receiver view: entries k in [recv_offset_[r],
  // recv_offset_[r+1]) give (flat position, dense arena slot, sender
  // stagger offset) of every kernel delivery receiver r collects, senders
  // ascending.  kRegion restricts both sides to the fast set.
  std::vector<std::size_t> recv_offset_;
  std::vector<std::size_t> recv_flat_;
  std::vector<std::int32_t> recv_slot_;
  std::vector<double> recv_off_;

  std::vector<PendingEvent> pending_;    ///< current broadcast stratum
  std::vector<PendingEvent> worklist_;   ///< phase-1 min-heap (staggered STARTs
                                         ///< arm broadcast timers mid-phase)
  bool worklist_active_ = false;         ///< route kBcastTimer records to it
  std::vector<PendingTimer> timers_;     ///< update timers due this exchange
  std::vector<PendingTimer> entry_updates_;  ///< kStaggered: pre-armed updates
                                             ///< held across the boundary
  std::vector<PendingTimer> next_timers_;  ///< broadcast timers from phase 3
  std::vector<PendingTimer>* record_bcast_ = nullptr;   ///< phase-3 target
  std::vector<PendingTimer>* record_update_ = nullptr;  ///< active target
  std::vector<double> pred_update_;  ///< exact predicted update instants
  std::vector<double> pred_wend_;    ///< window-end logical times (overlap guard)
  std::vector<double> arr_min_;      ///< per-pid arena minimum (overlap guard)
  std::vector<Send> sends_;          ///< phase-1 broadcasts awaiting draws
  std::vector<Slice> slices_;        ///< one per parallel slice (1 when serial)
  std::int32_t threads_ = 1;         ///< kernel threads; see init()
  std::vector<char> seen_;           ///< pid-uniqueness scratch
  std::vector<std::uint32_t> scan_handles_;  ///< kRegion guard queue scan
  /// Cached scheduler head for advance_engine_to's fast-out (kRegion): the
  /// head only moves when the merged loop dispatches or a region send is
  /// scheduled, so consecutive fast events between engine events skip the
  /// peek entirely.  Invalidated on every queue mutation outside dispatch.
  sim::EventKey engine_head_;
  bool engine_head_valid_ = false;
  std::uint64_t broadcasts_recorded_ = 0;
  double deliver_min_ = 0.0;
  double deliver_max_ = 0.0;
};

}  // namespace wlsync::core
