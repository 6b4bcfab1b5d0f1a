#pragma once
// The maintenance algorithm of Section 4.2.
//
// Each process keeps ARR[1..n] (arrival local times of the most recent
// message from each process), CORR (the correction variable), FLAG
// (alternating broadcast/update) and T (the current round label).  When the
// logical clock reaches T^i the process broadcasts T^i; after waiting
// (1+rho)(beta+delta+eps) on its clock — just long enough to have heard
// every nonfaulty process — it sets
//
//     AV  := mid(reduce(ARR))          (the fault-tolerant average)
//     ADJ := T + delta - AV
//     CORR := CORR + ADJ
//
// and schedules the next round at T + P.  We realize FLAG's two cases as two
// timer tags (equivalent: the flag records exactly which timer is pending).
//
// Three paper variants are folded in behind configuration:
//   * Section 7, k exchanges per round (k_exchanges > 1): the round contains
//     k broadcast/collect/adjust sub-exchanges, cutting the error by ~2^k;
//   * Section 7, mean averaging (Averaging::kReducedMean): convergence rate
//     ~ f/(n-2f) instead of 1/2;
//   * Section 9.3, staggered broadcasts (stagger > 0): process p broadcasts
//     at T^i + p*sigma and recipients subtract the known offset from the
//     recorded arrival time; the collection window stretches by (n-1)*sigma.
//   * Section 4.1 remark, amortized corrections (amortize > 0): CORR jumps
//     for timer arithmetic but the *displayed* local time slews linearly
//     over the given duration, keeping observable time monotone.
//
// Faithfulness note: as in the paper, the arrival of *any* ordinary message
// overwrites ARR[sender] — the algorithm never inspects message contents,
// only arrival times.  (Staggered mode must subtract the sender's known
// offset and therefore does check that the tag is a time message; spam then
// lands in ARR unnormalized, exactly as a Byzantine sender would want.)

#include <cstdint>

#include "core/params.h"
#include "proc/arrival.h"
#include "proc/process.h"

namespace wlsync::core {

class RoundFastPath;

/// Message tag used by round broadcasts ("the T^i messages").
inline constexpr std::int32_t kTimeTag = 1;

/// Sentinel for "no message recorded" — an arbitrarily old local time, as
/// allowed by "ARR: initially arbitrary" (Section 4.2).  At most f entries
/// can be stale for a nonfaulty host, and reduce() removes them.
inline constexpr double kNeverArrived = -1e300;

enum class Averaging : std::uint8_t {
  kMidpoint = 0,     ///< mid(reduce(.)) — the paper's choice; halves error
  kReducedMean = 1,  ///< mean(reduce(.)) — Section 7; rate ~ f/(n-2f)
};

struct WelchLynchConfig {
  Params params;
  Averaging averaging = Averaging::kMidpoint;
  std::int32_t k_exchanges = 1;  ///< Section 7 variant; 1 = paper's algorithm
  double stagger = 0.0;          ///< sigma of Section 9.3; 0 = simultaneous
  double amortize = 0.0;         ///< slew duration for displayed time; 0 = step
};

class WelchLynchProcess final : public proc::Process {
 public:
  /// Timer tags (FLAG's two cases realized as timers — see header comment).
  /// Public so ingestion harnesses (bench_micro) can drive the update step
  /// directly without a simulator.
  static constexpr std::int32_t kBcastTimerTag = 1;
  static constexpr std::int32_t kUpdateTimerTag = 2;

  explicit WelchLynchProcess(WelchLynchConfig config);

  void on_start(proc::Context& ctx) override;
  void on_timer(proc::Context& ctx, std::int32_t tag) override;
  void on_message(proc::Context& ctx, const sim::Message& m) override;

  /// Reintegration support (Section 9.1): adopt round state as if the
  /// process had just completed the update step for the round labelled
  /// `next_label` - P, and schedule the next broadcast.  CORR must already
  /// be set by the caller.
  void resume(proc::Context& ctx, double next_label, std::int32_t next_round);

  // --- introspection for tests and analysis ---
  [[nodiscard]] std::int32_t round() const noexcept { return round_; }
  [[nodiscard]] double current_label() const noexcept { return label_; }
  [[nodiscard]] double last_adjustment() const noexcept { return last_adj_; }
  [[nodiscard]] double last_average() const noexcept { return last_av_; }
  [[nodiscard]] const WelchLynchConfig& config() const noexcept { return config_; }
  /// Collection windows that ended with too few live arrivals to reduce
  /// safely and therefore skipped their UPDATE (the Section 9.3 starvation
  /// guard — see do_update).
  [[nodiscard]] std::uint64_t starved_updates() const noexcept {
    return starved_updates_;
  }

 private:
  /// The round fast path (core/fastpath.h) replays this process' broadcast
  /// and update steps through the regular on_start/on_timer entry points
  /// but writes arrivals straight into the arena with its batched delivery
  /// kernel, and reads label_/exchange_ to predict the phase structure of
  /// the next exchange before committing to it.
  friend class RoundFastPath;

  /// Scheduled broadcast instant for this process in the current exchange:
  /// base + id*stagger (Section 9.3); base without stagger.
  [[nodiscard]] double broadcast_label(const proc::Context& ctx) const;
  /// End of the collection window for the current exchange.
  [[nodiscard]] double window_end(const proc::Context& ctx) const;
  /// Local-time spacing between the k sub-exchanges of one round.
  [[nodiscard]] double sub_period(const proc::Context& ctx) const;

  void begin_exchange(proc::Context& ctx);
  void do_broadcast(proc::Context& ctx);
  void do_update(proc::Context& ctx);
  /// Binds the arena to the neighbor view on the first Context-bearing step.
  void ensure_arena(const proc::Context& ctx);
  /// Dynamic-topology resync (net/dynamics.h): when the context reports a
  /// newer graph version than the one this process last built its view
  /// for, discard the current collection window: the arena rebinds to the
  /// new neighbor list.  The local-f clamp then reads the LIVE degree at
  /// the next update.  A change that
  /// lands mid-window may starve that update (too few arrivals survive)
  /// — that is a missed round, exactly the Section 9.3 guard's semantics.
  /// Free on static graphs: the version stays 0 and this early-returns.
  void sync_topology(const proc::Context& ctx);
  /// Section 9.3 starvation guard: true when so many slots of the current
  /// neighbor view still hold kNeverArrived that reduce() cannot clip them
  /// all — the f-th order statistic itself would be the sentinel and the
  /// "average" would be ~ -0.5e300.  Happens only when NIC drops or
  /// serialization emptied the collection window (at most f honest slots
  /// can legitimately be stale); the update is skipped like a missed round.
  /// The count is ArrivalArena::unheard(): under the event engine a scan of
  /// the slots; under the round fast path the count primed beside the
  /// reduction on the kernel threads, so the serial update reads it in O(1).
  [[nodiscard]] bool window_starved(const proc::Context& ctx) const;
  /// AV := mid / mean(reduce(ARR)) over the neighbor view.
  [[nodiscard]] double update_arena(const proc::Context& ctx);
  /// The reduction's clip count: core::local_fault_budget of the view.
  [[nodiscard]] std::size_t reduce_f(std::int32_t process_count) const;
  /// The arena reduction the configured averaging function runs.
  [[nodiscard]] proc::ArrivalArena::Reduction reduction() const;

  WelchLynchConfig config_;
  Derived derived_;
  proc::ArrivalArena arena_;  ///< ARR, one dense slot per neighbor
  double label_ = 0.0;        ///< T: start label of the current round
  std::int32_t round_ = 0;    ///< i
  std::int32_t exchange_ = 0; ///< sub-exchange j in [0, k)
  double last_adj_ = 0.0;
  double last_av_ = 0.0;
  std::uint64_t starved_updates_ = 0;
  std::uint32_t topo_seen_ = 0;  ///< graph version the view was built for
  bool started_ = false;
};

}  // namespace wlsync::core
