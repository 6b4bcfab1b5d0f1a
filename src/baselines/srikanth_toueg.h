#pragma once
// Srikanth & Toueg's clock synchronization algorithm [ST] (Section 10).
//
// Structure (the n > 3f, no-signatures variant): when a process' logical
// clock reaches kP it broadcasts (round k).  A process that has received
// round-k messages from f+1 distinct senders joins the broadcast (at least
// one sender was honest, so the time must be near); on 2f+1 distinct
// senders it *accepts* round k and resets its logical clock to kP + delta
// (the expected age of the earliest honest broadcast).  Acceptance is
// monotone in k; stale rounds are ignored.
//
// The paper's comparison says agreement is about delta + eps (better or
// worse than Welch-Lynch's ~4 eps depending on the relative sizes), the
// adjustment is about 3(delta + eps), and validity is optimal.  EXP-COMPARE
// checks those shapes on the shared substrate.
//
// Ingestion: the distinct-sender tallies are the [ST] hot path — one set
// insertion per delivery.  The per-round sender sets are flat bitsets over
// dense neighbor slots (proc::NeighborIndex), pooled and recycled across
// rounds so steady-state deliveries allocate nothing; senders outside the
// bound neighborhood (possible only for point-to-point adversary sends)
// fall back to a small per-round overflow list.  tests/ingest_pin_test.cpp
// recounts every tally with a std::set and checks each relay and
// acceptance against it.

#include <cstdint>
#include <set>
#include <vector>

#include "core/params.h"
#include "proc/arrival.h"
#include "proc/process.h"

namespace wlsync::baselines {

inline constexpr std::int32_t kTickTag = 3;

class SrikanthTouegProcess final : public proc::Process {
 public:
  explicit SrikanthTouegProcess(core::Params params) : params_(params) {}

  void on_start(proc::Context& ctx) override;
  void on_timer(proc::Context& ctx, std::int32_t tag) override;
  void on_message(proc::Context& ctx, const sim::Message& m) override;

  [[nodiscard]] std::int32_t round() const noexcept { return accepted_; }
  [[nodiscard]] double last_adjustment() const noexcept { return last_adj_; }

 private:
  /// Distinct senders heard for a pending (not yet accepted) round.
  struct RoundTally {
    std::int32_t round = 0;
    std::int32_t count = 0;                 ///< distinct senders so far
    std::vector<std::uint64_t> seen;        ///< bitset over dense slots
    std::vector<std::int32_t> extras;       ///< non-neighbor senders (rare)
  };

  void maybe_broadcast(proc::Context& ctx, std::int32_t k);
  void accept(proc::Context& ctx, std::int32_t k);
  /// Registers `from` as a sender for round k and returns the number of
  /// distinct senders heard for k.
  [[nodiscard]] std::int32_t note_sender(proc::Context& ctx, std::int32_t k,
                                         std::int32_t from);
  /// Drops tallies for every round <= k (post-acceptance cleanup).
  void drop_through(std::int32_t k);
  [[nodiscard]] RoundTally& tally_for(std::int32_t k);

  core::Params params_;
  proc::NeighborIndex index_;
  std::vector<RoundTally> active_;  ///< pending rounds, ascending by round
  std::vector<RoundTally> free_;    ///< recycled tallies (capacity retained)
  std::set<std::int32_t> sent_;     ///< rounds broadcast
  std::int32_t accepted_ = 0;  ///< highest accepted round
  double last_adj_ = 0.0;
  bool started_ = false;
};

}  // namespace wlsync::baselines
