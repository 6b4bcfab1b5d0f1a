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
//   * reductions run over a reusable scratch buffer owned by the arena —
//     mid(reduce(.)) needs only the f-th smallest and f-th largest
//     surviving elements, found with two std::nth_element passes (O(m)
//     instead of O(m log m)), and mean(reduce(.)) sorts the scratch in
//     place.  Steady-state rounds perform zero heap allocations; the
//     counters below let benchmarks and the CI perf-smoke gate pin that.
//
// Bit-identity: the reductions produce exactly the doubles
// ms::fault_tolerant_midpoint / ms::fault_tolerant_mean produce on the same
// multiset (order statistics are value-exact, and the mean accumulates in
// the same ascending order) — tests/arrival_test.cpp holds them to ==, and
// tests/ingest_pin_test.cpp checks every whole-system update against an
// oracle that rebuilds the id-indexed ARR/DIFF arrays from the delivery
// stream and reduces them with ms::reduce().

#include <cstdint>
#include <span>
#include <vector>

namespace wlsync::proc {

/// Sender-id -> dense-slot map over a process' closed neighborhood.  The
/// slot of a sender is its position in the sorted neighbor list; non-
/// neighbors map to -1.  Shared by ArrivalArena (value slots) and the
/// quorum-counting algorithms ([ST]'s per-round sender bitsets).
class NeighborIndex {
 public:
  void bind(std::span<const std::int32_t> neighbors, std::int32_t n);

  [[nodiscard]] bool bound() const noexcept { return bound_; }
  /// Number of dense slots (the closed-neighborhood size).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] std::int32_t slot_of(std::int32_t sender) const {
    if (sender < 0 || static_cast<std::size_t>(sender) >= slot_of_.size()) {
      return -1;
    }
    return slot_of_[static_cast<std::size_t>(sender)];
  }

  /// slot_of without the range check, for callers that already know the id
  /// is a registered process (the simulator validates every delivery).
  [[nodiscard]] std::int32_t slot_of_valid(std::int32_t sender) const {
    return slot_of_[static_cast<std::size_t>(sender)];
  }

  /// True when the slot map is the identity (the paper's full mesh, where
  /// the closed neighborhood is 0..n-1): sender id IS the dense slot, so
  /// the per-delivery lookup can skip the table entirely.
  [[nodiscard]] bool identity() const noexcept { return identity_; }

 private:
  std::vector<std::int32_t> slot_of_;  ///< sender id -> dense slot, -1 = none
  std::size_t size_ = 0;
  bool bound_ = false;
  bool identity_ = false;
};

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
  /// Precondition: sender is a registered process id in [0, n) — the
  /// per-delivery hot path trusts the simulator's id validation and spends
  /// exactly one load + one predicate on the slot lookup.
  void record(std::int32_t sender, double value) {
    memo_valid_ = false;
    if (index_.identity()) {  // full mesh: sender id IS the slot
      values_[static_cast<std::size_t>(sender)] = value;
      return;
    }
    const std::int32_t slot = index_.slot_of_valid(sender);
    if (slot >= 0) values_[static_cast<std::size_t>(slot)] = value;
  }

  void set_slot(std::size_t slot, double value) {
    memo_valid_ = false;
    values_[slot] = value;
  }
  /// Mutable base of the dense slot array — the round fast path's batched
  /// delivery kernel (core/fastpath.h) writes a whole collection window of
  /// arrivals straight into the arena, one store per (sender, receiver)
  /// pair, instead of calling record() per simulated delivery event.
  [[nodiscard]] double* slot_data() noexcept {
    memo_valid_ = false;
    return values_.data();
  }
  [[nodiscard]] double slot_value(std::size_t slot) const {
    return values_[slot];
  }

  /// Per-round reset for the algorithms whose estimates expire (the
  /// Section 10 round-exchange family).  O(degree), not O(n).
  void fill(double value);

  /// The dense multiset, in neighbor order — ready to be reduced directly.
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// == ms::fault_tolerant_midpoint(values(), f), allocation-free.  Small
  /// neighborhoods (<= 16) sort the scratch with a branchless network;
  /// larger ones run the vectorized dual-rank select (proc/reduce_kernels.h)
  /// to find the f-th smallest and f-th largest survivors in O(m).  Order
  /// statistics are value-exact under every route, ties included.
  /// Precondition: size() >= 2f + 1.
  [[nodiscard]] double midpoint_reduced(std::size_t f);

  /// == ms::fault_tolerant_mean(values(), f), allocation-free: sorts the
  /// scratch (network for <= 16 elements, std::sort above) and accumulates
  /// the survivors in the same ascending order as the ms::reduce() slice.
  /// Precondition: size() >= 2f + 1.
  [[nodiscard]] double mean_reduced(std::size_t f);

  enum class Reduction : std::uint8_t { kMidpoint, kMean };
  /// Computes the `kind` reduction of the current slots now and keeps it as
  /// a one-shot memo: the next midpoint_reduced / mean_reduced call with
  /// the same kind and f returns it instead of recomputing (any other
  /// reduction call drops it).  Every write path — record, set_slot, fill,
  /// bind, slot_data — drops it too, so a consumed memo is always the
  /// double a fresh reduction of the same slots would produce.  The round
  /// fast path (core/fastpath.h) primes every receiver's reduction on the
  /// worker threads, then runs the updates serially through the real
  /// process code.  Not counted in reductions() — the consuming call is.
  /// A no-op when size() < 2f + 1 (the consuming call throws as usual).
  void precompute(Reduction kind, std::size_t f);

  // --- counters for the CI perf-smoke gate (bench_micro --smoke) ---
  /// Times bind() rebuilt the slot table (should be 1 per run).
  [[nodiscard]] std::uint64_t rebinds() const noexcept { return rebinds_; }
  /// Reductions performed since bind.
  [[nodiscard]] std::uint64_t reductions() const noexcept { return reductions_; }

 private:
  void load_scratch();
  /// The memo when it matches (kind, f), else a fresh reduction; counted.
  [[nodiscard]] double reduced(Reduction kind, std::size_t f);
  [[nodiscard]] double compute(Reduction kind, std::size_t f);
  [[nodiscard]] double compute_midpoint(std::size_t f);
  [[nodiscard]] double compute_mean(std::size_t f);

  NeighborIndex index_;
  std::vector<double> values_;   ///< dense, neighbor order
  std::vector<double> scratch_;  ///< reusable reduction workspace
  std::vector<double> select_tmp_;  ///< dual_rank_select partition buffer
  bool bound_ = false;
  std::uint64_t rebinds_ = 0;
  std::uint64_t reductions_ = 0;
  bool memo_valid_ = false;
  Reduction memo_kind_ = Reduction::kMidpoint;
  std::size_t memo_f_ = 0;
  double memo_value_ = 0.0;
};

}  // namespace wlsync::proc
