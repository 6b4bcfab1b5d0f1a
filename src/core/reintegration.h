#pragma once
// Reintegrating a repaired process (Section 9.1).
//
// A repaired process p wakes at an arbitrary time, possibly mid-round.  It
// first orients itself by watching the T^i traffic; once it has identified a
// round it can observe *completely*, it collects that round's messages,
// applies the ordinary mid(reduce(.)) update to its (arbitrary) clock, and
// rejoins the main algorithm at the following label.  The paper's three
// observations carry over exactly:
//   * the arbitrary initial clock cancels in "ADJ = T + delta - AV";
//   * until it rejoins, p counts as one of the f faulty processes (it sends
//     nothing — a failure mode the averaging already tolerates);
//   * the adjustment is an additive constant, so applying it the moment the
//     collection window closes (rather than at U^i) changes nothing.
//
// Concretization of the [Lu1] details (the paper defers them):
//   orientation  — the first round label V0 confirmed by f+1 distinct
//                  senders is treated as "the round in progress"; since f+1
//                  senders include at least one nonfaulty process, V0 is a
//                  real round.  p targets V1 = V0 + P, the first round it is
//                  guaranteed to observe from its very first message.
//   collection   — arrivals of V1-labelled messages are recorded per sender
//                  (most recent wins, as in ARR).  When f+1 distinct senders
//                  have been seen — i.e. at least one nonfaulty broadcast has
//                  arrived — every other nonfaulty broadcast lands within
//                  beta + 2 eps real time, so the window closes
//                  (1+rho)(beta + 2 eps) later on p's physical clock.
//   join         — if at close n-f senders were heard, p applies
//                  ADJ = V1 + delta - mid(reduce(ARR)) and resumes the
//                  maintenance algorithm at V1 + P; otherwise it re-targets
//                  V1 + P and repeats (a Byzantine quorum cannot fake f+1
//                  distinct senders, so this only happens under heavy loss).

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/params.h"
#include "core/welch_lynch.h"
#include "proc/process.h"

namespace wlsync::core {

class ReintegrationProcess final : public proc::Process {
 public:
  explicit ReintegrationProcess(WelchLynchConfig config);

  void on_start(proc::Context& ctx) override;
  void on_timer(proc::Context& ctx, std::int32_t tag) override;
  void on_message(proc::Context& ctx, const sim::Message& m) override;

  [[nodiscard]] bool joined() const noexcept { return joined_; }
  [[nodiscard]] const WelchLynchProcess& maintenance() const noexcept {
    return wl_;
  }

 private:
  enum class Phase : std::uint8_t { kDormant, kOrienting, kCollecting };

  [[nodiscard]] bool matches(double value, double label) const;
  void begin_collection(proc::Context& ctx, double target);
  void close_window(proc::Context& ctx);

  WelchLynchConfig config_;
  WelchLynchProcess wl_;  ///< delegate after joining
  Phase phase_ = Phase::kDormant;
  bool joined_ = false;

  /// Orientation: distinct senders seen per round label since wake-up.
  std::map<double, std::set<std::int32_t>> seen_;
  double target_ = 0.0;
  std::vector<double> arr_;
  std::set<std::int32_t> target_senders_;
  bool window_armed_ = false;
};

/// Churn lifecycle (net/dynamics.h kLeave/kRejoin schedules): an honest
/// Welch-Lynch participant that leaves and rejoins the system repeatedly.
/// Each downtime interval [leave, rejoin) silences the process completely
/// (stale timers and deliveries are dropped, exactly like a crash); at the
/// rejoin instant a FRESH Section 9.1 reintegration procedure starts from
/// scratch — the previous incarnation's round state is deliberately lost,
/// since an arbitrarily long absence makes it worthless (the paper's
/// "repaired process wakes with arbitrary clock" premise).  The driver
/// (analysis::Experiment) schedules one START per rejoin; intervals must be
/// sorted, non-overlapping, and >= 2P apart from their rejoin to the next
/// leave so the fresh procedure's timers cannot collide with stale ones.
class ChurnProcess final : public proc::Process {
 public:
  struct Downtime {
    double leave = 0.0;
    double rejoin = 1e300;  ///< net::kNeverRejoins when the leave is final
  };

  /// Throws std::invalid_argument unless the intervals are sorted by leave
  /// time and non-overlapping (each rejoin precedes the next leave).
  ChurnProcess(WelchLynchConfig config, std::vector<Downtime> downtimes);

  void on_start(proc::Context& ctx) override;
  void on_timer(proc::Context& ctx, std::int32_t tag) override;
  void on_message(proc::Context& ctx, const sim::Message& m) override;

  /// The reintegration procedure of the most recent rejoin; nullptr before
  /// the first rejoin fires.
  [[nodiscard]] const ReintegrationProcess* rejoin() const noexcept {
    return rejoin_.get();
  }
  /// True while the process is participating (initial tenure, or rejoined
  /// and past the Section 9.1 join).
  [[nodiscard]] bool participating(proc::Context& ctx);

 private:
  enum class Route : std::uint8_t { kWl, kDead, kRejoin };
  /// Routing by real time: before the first leave the original maintenance
  /// instance runs; inside [leave, rejoin) everything is dropped; from the
  /// k-th rejoin on, the k-th reintegration procedure owns the process.
  [[nodiscard]] Route route(proc::Context& ctx);

  WelchLynchConfig config_;
  WelchLynchProcess wl_;  ///< the initial tenure's maintenance instance
  std::vector<Downtime> down_;
  std::unique_ptr<ReintegrationProcess> rejoin_;
  std::size_t rejoin_segment_ = 0;  ///< 1 + index of the segment rejoin_ serves
};

}  // namespace wlsync::core
