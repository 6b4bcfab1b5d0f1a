#pragma once
// Establishing synchronization (Section 9.2).
//
// Clocks start with arbitrary values, so rounds cannot be triggered by local
// times; instead each round combines elapsed physical time with a READY
// message exchange.  Per round, each process:
//   1. broadcasts its local time T and collects DIFF[q] = T_q + delta -
//      local-time() estimates for (1+rho)(2 delta + 4 eps) on its clock;
//   2. computes A := mid(reduce(DIFF)) but does not apply it yet;
//   3. waits a second interval so its next messages cannot arrive before
//      slower processes finish their first interval, then broadcasts READY —
//      early if it has already received f_local+1 READYs (the [DLS] trick);
//   4. on receiving deg - f_local READYs for its round, applies A and begins
//      the next round.  READYs for the next round that arrive early are
//      kept for it, and READYs heard before U wait for A.
// The fault-tolerant average halves the spread per round (Lemma 20):
//   B^{i+1} <= B^i/2 + 2 eps + 2 rho (11 delta + 39 eps).
//
// The quorums are local: DIFF and RCVD-READY live on the deg dense slots of
// the closed neighbourhood, and f_local = local_fault_budget(deg, n, f).  On
// the full mesh that is the paper's n - f and f + 1.  On a ring of cliques
// each clique clips its single bridge arrival, so the cliques agree
// internally but the spread between them plateaus (Lemma 20 does not hold
// there).
//
// An optional handoff switches to the maintenance algorithm after
// `handoff_rounds` rounds: the process picks the first label T on the
// maintenance grid (T0 + iP) at least half a round ahead of its local time
// and schedules a WelchLynchProcess to resume there, numbering its rounds on
// from the start-up's own.  With the spread
// already down to ~4 eps << P, every nonfaulty process picks the same label
// (the [Lu1] switch protocol, concretized).

#include <cstdint>
#include <memory>

#include "core/params.h"
#include "core/welch_lynch.h"
#include "proc/arrival.h"
#include "proc/process.h"

namespace wlsync::core {

inline constexpr std::int32_t kReadyTag = 2;

struct StartupConfig {
  /// The maintenance algorithm the handoff resumes.  Its params (n, f, rho,
  /// delta, eps) also drive the start-up rounds; beta and P matter only
  /// after the handoff.
  WelchLynchConfig maintenance;
  std::int32_t handoff_rounds = 0;  ///< 0 = run the start-up algorithm forever
};

class StartupProcess final : public proc::Process {
 public:
  explicit StartupProcess(StartupConfig config);

  void on_start(proc::Context& ctx) override;
  void on_timer(proc::Context& ctx, std::int32_t tag) override;
  void on_message(proc::Context& ctx, const sim::Message& m) override;

  [[nodiscard]] std::int32_t round() const noexcept { return round_; }
  [[nodiscard]] bool handed_off() const noexcept { return wl_ != nullptr; }
  [[nodiscard]] const WelchLynchProcess* maintenance() const noexcept {
    return wl_.get();
  }

 private:
  /// Binds DIFF and RCVD-READY on the first Context-bearing step.
  void bind_view(const proc::Context& ctx);
  void begin_round(proc::Context& ctx);
  void on_ready(proc::Context& ctx, std::int32_t from, std::int32_t round);
  /// The READY rules of the current round; ends it on deg - f_local.
  void check_ready(proc::Context& ctx);
  void handoff(proc::Context& ctx);

  StartupConfig config_;
  std::int32_t f_local_ = 0;    ///< core::local_fault_budget of the view
  // Local variables of the Section 9.2 code.
  double a_ = 0.0;              ///< A: adjustment for the current round
  bool asleep_ = true;          ///< ASLEEP
  proc::ArrivalArena diff_;     ///< DIFF, one dense slot per neighbour
  bool early_end_ = false;      ///< EARLY-END
  proc::SlotSet rcvd_ready_;    ///< RCVD-READY, over the same slots
  proc::SlotSet next_ready_;    ///< READYs already heard for round_ + 1
  double t_ = 0.0;              ///< T: local time at round start
  double u_ = -1.0;             ///< U: end of first waiting interval
  double v_ = -1.0;             ///< V: time to broadcast READY
  std::int32_t round_ = 0;
  std::unique_ptr<WelchLynchProcess> wl_;  ///< set after handoff
};

}  // namespace wlsync::core
