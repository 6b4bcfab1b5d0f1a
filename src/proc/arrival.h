#pragma once
// Dense per-neighbor arrival arena — the ingestion hot path.
//
// Every averaging algorithm in this repository keeps one datum per peer
// ("ARR[q] := local-time()" in Section 4.2, DIFF[q] for the Section 10
// comparison algorithms) and reduces that multiset once per round.  The
// seed stored those slots indexed by *sender id* (a length-n array even on
// a degree-d exchange graph) and reduced them through ms::reduce(), which
// sorts an allocated copy and returns a second allocated slice — two heap
// allocations and an O(n log n) sort per process per round, plus a sparse
// gather that touches n slots to find d live ones.
//
// ArrivalArena replaces both halves:
//   * storage is a flat array indexed by dense neighbor slot (the position
//     of the sender in the process' sorted closed neighborhood), so a
//     degree-d process touches d contiguous doubles, not n sparse ones, and
//     the reduction reads the multiset straight out of the arena with no
//     gather;
//   * reductions run over one workspace per executing thread
//     (thread_reduce_scratch below), not one per process — mid(reduce(.))
//     needs only the f-th smallest and f-th largest surviving elements,
//     found with one radix dual-rank select straight off the slots (O(m)
//     instead of O(m log m), proc/reduce_kernels.h), and mean(reduce(.))
//     sorts a scratch copy in place.  An arena owns only its d slots and
//     its d-entry neighbor list (none on the full mesh, where sender id
//     is the slot): O(degree) per process, never O(n).  An n-entry
//     sender -> slot table per process would cost n^2 int32 across a run
//     (1 GiB at n = 16384) for a lookup a binary search over <= d sorted
//     ids answers.  Steady-state rounds perform zero heap allocations;
//     the counters below let benchmarks and the CI perf-smoke gate pin
//     that.
//
// Bit-identity: the reductions produce exactly the doubles
// ms::fault_tolerant_midpoint / ms::fault_tolerant_mean produce on the same
// multiset (order statistics are value-exact, and the mean accumulates in
// the same ascending order) — tests/arrival_test.cpp holds them to ==, and
// tests/ingest_pin_test.cpp checks every whole-system update against an
// oracle that rebuilds the id-indexed ARR/DIFF arrays from the delivery
// stream and reduces them with ms::reduce().

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace wlsync::proc {

/// Sender-id -> dense-slot map over a process' closed neighborhood.  The
/// slot of a sender is its position in the sorted neighbor list; non-
/// neighbors and ids outside [0, n) map to -1.  Shared by ArrivalArena
/// (value slots) and the quorum-counting algorithms (SlotSet bitsets).
/// Holds only the neighbor list itself — O(degree), and nothing at all
/// when the map is the identity — and answers slot_of with a binary search
/// over it.
class NeighborIndex {
 public:
  /// `neighbors` must be strictly ascending ids in [0, n); anything else
  /// throws std::invalid_argument (an unsorted list would silently
  /// mis-slot every lookup).
  void bind(std::span<const std::int32_t> neighbors, std::int32_t n);

  [[nodiscard]] bool bound() const noexcept { return bound_; }
  /// Number of dense slots (the closed-neighborhood size).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] std::int32_t slot_of(std::int32_t sender) const {
    if (identity_) {
      return sender >= 0 && static_cast<std::size_t>(sender) < size_ ? sender
                                                                     : -1;
    }
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), sender);
    return it != ids_.end() && *it == sender
               ? static_cast<std::int32_t>(it - ids_.begin())
               : -1;
  }

  /// True when the slot map is the identity (the paper's full mesh, where
  /// the closed neighborhood is 0..n-1): sender id IS the dense slot, so
  /// the per-delivery lookup can skip the search entirely.
  [[nodiscard]] bool identity() const noexcept { return identity_; }

 private:
  std::vector<std::int32_t> ids_;  ///< sorted neighborhood; empty if identity
  std::size_t size_ = 0;
  bool bound_ = false;
  bool identity_ = false;
};

/// A set of dense neighbour slots with its size: the distinct-sender
/// tallies of the quorum rules, one bit per slot.
class SlotSet {
 public:
  void reset(std::size_t slots) {
    bits_.assign(slots, false);
    count_ = 0;
  }
  /// Adds `slot`; false if it was already in.
  bool insert(std::int32_t slot) {
    if (bits_[static_cast<std::size_t>(slot)]) return false;
    bits_[static_cast<std::size_t>(slot)] = true;
    ++count_;
    return true;
  }
  [[nodiscard]] std::int32_t count() const noexcept { return count_; }

 private:
  std::vector<bool> bits_;
  std::int32_t count_ = 0;
};

/// The calling thread's reduction workspace, viewed as `m` doubles: one
/// buffer per executing thread, shared by ArrivalArena's reductions (the
/// radix select keeps its keys in a second per-thread buffer beside it)
/// and the Section 10 [MS] acceptance rule (baselines/averaging_rounds.h).
/// It grows to the largest multiset the thread has reduced and is reused
/// from then on.  The contents are clobbered by the next reduction on the
/// same thread, so a caller must finish with the view before reducing
/// again.
[[nodiscard]] std::span<double> thread_reduce_scratch(std::size_t m);

class ArrivalArena {
 public:
  /// Binds the arena to a closed neighborhood (sorted ids, self included)
  /// over processes 0..n-1 and fills every slot with `initial`.  Binding
  /// always resets the slots — callers guard with bound() and bind from
  /// their first Context-bearing step (the neighborhood is not known at
  /// construction time).  On a static exchange graph that is the only
  /// bind; under a net/dynamics.h schedule the algorithm re-binds when
  /// Context::topology_version moves, discarding the collection window
  /// (rebinds() counts these — bench_micro gates steady state at one).
  void bind(std::span<const std::int32_t> neighbors, std::int32_t n,
            double initial);

  [[nodiscard]] bool bound() const noexcept { return bound_; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// Dense slot of `sender` in the bound neighborhood; -1 if the sender is
  /// not a neighbor (its messages cannot contribute to the reduction).
  [[nodiscard]] std::int32_t slot_of(std::int32_t sender) const {
    return index_.slot_of(sender);
  }

  /// Records `value` for `sender`; non-neighbor senders are dropped (the
  /// reduction only reads neighbor slots, so an id-indexed array that kept
  /// them would reduce to the same value).
  /// Precondition: sender is a registered process id in [0, n) — on the
  /// full mesh the per-delivery hot path trusts the simulator's id
  /// validation and stores straight to slot `sender`.
  void record(std::int32_t sender, double value) {
    drop_memos();
    if (index_.identity()) {  // full mesh: sender id IS the slot
      values_[static_cast<std::size_t>(sender)] = value;
      return;
    }
    const std::int32_t slot = index_.slot_of(sender);
    if (slot >= 0) values_[static_cast<std::size_t>(slot)] = value;
  }

  void set_slot(std::size_t slot, double value) {
    drop_memos();
    values_[slot] = value;
  }
  /// Mutable base of the dense slot array — the round fast path's batched
  /// delivery kernel (core/fastpath.h) writes a whole collection window of
  /// arrivals straight into the arena, one store per (sender, receiver)
  /// pair, instead of calling record() per simulated delivery event.
  [[nodiscard]] double* slot_data() noexcept {
    drop_memos();
    return values_.data();
  }

  /// Per-round reset for the algorithms whose estimates expire (the
  /// Section 10 round-exchange family).  O(degree), not O(n).
  void fill(double value);

  /// The dense multiset, in neighbor order — ready to be reduced directly.
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Slots still holding the value bind() filled them with: the peers not
  /// heard from since the bind (or since a fill() with that value).  The
  /// count precompute() memoized when no write has happened since, else a
  /// scan.
  [[nodiscard]] std::size_t unheard() const noexcept {
    if (unheard_valid_) return unheard_;
    return count_unheard();
  }

  /// == ms::fault_tolerant_midpoint(values(), f), allocation-free.  Small
  /// neighborhoods (<= 16) sort the thread's scratch with a branchless
  /// network; larger ones run the radix dual-rank select
  /// (proc/reduce_kernels.h) to find the f-th smallest and f-th largest
  /// survivors in O(m).  Order statistics are value-exact under every
  /// route, ties included.
  /// Precondition: size() >= 2f + 1.
  [[nodiscard]] double midpoint_reduced(std::size_t f);

  /// == ms::fault_tolerant_mean(values(), f), allocation-free: sorts the
  /// thread's scratch (network for <= 16 elements, std::sort above) and
  /// accumulates the survivors in the same ascending order as the
  /// ms::reduce() slice.
  /// Precondition: size() >= 2f + 1.
  [[nodiscard]] double mean_reduced(std::size_t f);

  enum class Reduction : std::uint8_t { kMidpoint, kMean };
  /// Computes the `kind` reduction of the current slots now and keeps it as
  /// a one-shot memo: the next midpoint_reduced / mean_reduced call with
  /// the same kind and f returns it instead of recomputing (any other
  /// reduction call drops it).  Beside it, memoizes unheard(), which
  /// reductions leave valid.  Every write path — record, set_slot, fill,
  /// bind, slot_data — drops both, so a consumed memo is always what a
  /// fresh scan or reduction of the same slots would produce.  The round
  /// fast path (core/fastpath.h) primes every receiver's reduction and
  /// starvation count on the worker threads, then runs the updates serially
  /// through the real process code.  Not counted in reductions() — the
  /// consuming call is.  The reduction memo is skipped when size() < 2f + 1
  /// (the consuming call throws as usual).
  void precompute(Reduction kind, std::size_t f);

  // --- counters for the CI perf-smoke gate (bench_micro --smoke) ---
  /// Times bind() rebuilt the slots (should be 1 per run).
  [[nodiscard]] std::uint64_t rebinds() const noexcept { return rebinds_; }
  /// Reductions performed since bind.
  [[nodiscard]] std::uint64_t reductions() const noexcept { return reductions_; }

 private:
  /// The memo when it matches (kind, f), else a fresh reduction; counted.
  [[nodiscard]] double reduced(Reduction kind, std::size_t f);
  [[nodiscard]] double compute(Reduction kind, std::size_t f);
  [[nodiscard]] double compute_midpoint(std::size_t f);
  [[nodiscard]] double compute_mean(std::size_t f);
  [[nodiscard]] std::size_t count_unheard() const noexcept;
  void drop_memos() noexcept {
    memo_valid_ = false;
    unheard_valid_ = false;
  }

  NeighborIndex index_;
  std::vector<double> values_;  ///< dense, neighbor order
  double fill_ = 0.0;           ///< bind()'s initial value: "not heard"
  bool bound_ = false;
  std::uint64_t rebinds_ = 0;
  std::uint64_t reductions_ = 0;
  bool memo_valid_ = false;
  Reduction memo_kind_ = Reduction::kMidpoint;
  std::size_t memo_f_ = 0;
  double memo_value_ = 0.0;
  bool unheard_valid_ = false;
  std::size_t unheard_ = 0;
};

}  // namespace wlsync::proc
