#pragma once
// Shared round structure for the averaging-style comparison algorithms of
// Section 10 ([LM], [MS], and the no-fault-tolerance ablation).
//
// All three run the same schedule as the Welch-Lynch maintenance algorithm
// (round at T^i = T0 + iP, collect for (1+rho)(beta+delta+eps), adjust) but
// differ in how the collected clock-difference estimates are combined.
// Unlike Welch-Lynch — which averages raw *arrival times* — these exchange
// explicit clock values: on receipt of q's round message, the recipient
// estimates DIFF[q] = T_q + delta - local_time(), the amount q's clock is
// ahead.  Estimates reset every round.

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "core/welch_lynch.h"
#include "proc/process.h"

namespace wlsync::baselines {

/// Base class: subclasses provide the averaging rule.
class RoundExchangeProcess : public proc::Process {
 public:
  explicit RoundExchangeProcess(core::Params params);

  void on_start(proc::Context& ctx) override;
  void on_timer(proc::Context& ctx, std::int32_t tag) override;
  void on_message(proc::Context& ctx, const sim::Message& m) override;

  [[nodiscard]] std::int32_t round() const noexcept { return round_; }
  [[nodiscard]] double last_adjustment() const noexcept { return last_adj_; }

 protected:
  /// Combines this round's difference estimates into a clock adjustment.
  /// `diffs` holds one entry per *neighbor* (the caller's exchange-graph
  /// view, which is every process on the paper's full mesh), in neighbor
  /// order: the estimate for that neighbor, core::kNeverArrived if no
  /// message arrived, and exactly 0.0 for the caller's own slot.
  [[nodiscard]] virtual double compute_adjustment(
      const std::vector<double>& diffs) const = 0;

  [[nodiscard]] const core::Params& params() const noexcept { return params_; }

 private:
  void begin_round(proc::Context& ctx);
  void ensure_arena(const proc::Context& ctx);
  /// The neighbor-view estimate vector for this round's adjustment (the
  /// arena's own storage), with the caller's own slot pinned to 0.0.
  [[nodiscard]] const std::vector<double>& round_values(
      const proc::Context& ctx);
  void reset_round(const proc::Context& ctx);

  core::Params params_;
  core::Derived derived_;
  proc::ArrivalArena arena_;  ///< DIFF, one dense slot per neighbor
  double label_ = 0.0;
  std::int32_t round_ = 0;
  double last_adj_ = 0.0;
  bool started_ = false;
};

/// Lamport & Melliar-Smith's interactive convergence algorithm CNV [LM]:
/// the egocentric average.  Every estimate farther than `delta_max` from
/// the caller's own clock (difference 0) is replaced by 0, then all n values
/// are averaged.  Agreement degrades linearly in n (about 2 n eps), the
/// shape EXP-COMPARE reproduces.
class InteractiveConvergenceProcess final : public RoundExchangeProcess {
 public:
  InteractiveConvergenceProcess(core::Params params, double delta_max)
      : RoundExchangeProcess(params), delta_max_(delta_max) {}

 protected:
  [[nodiscard]] double compute_adjustment(
      const std::vector<double>& diffs) const override;

 private:
  double delta_max_;
};

/// Mahaney & Schneider's inexact-agreement round [MS]: a value is acceptable
/// if at least n-f of the values lie within tau of it; unacceptable or
/// missing values are replaced by the caller's own (0); the mean of the
/// result is the adjustment.  Degrades gracefully past f faults.
class MahaneySchneiderProcess final : public RoundExchangeProcess {
 public:
  MahaneySchneiderProcess(core::Params params, double tau)
      : RoundExchangeProcess(params), tau_(tau) {}

 protected:
  [[nodiscard]] double compute_adjustment(
      const std::vector<double>& diffs) const override;

 private:
  double tau_;
};

/// Ablation: the plain mean with no discarding at all.  A single Byzantine
/// process can drag the whole system arbitrarily — the reason reduce()
/// exists.
class PlainMeanProcess final : public RoundExchangeProcess {
 public:
  explicit PlainMeanProcess(core::Params params)
      : RoundExchangeProcess(params) {}

 protected:
  [[nodiscard]] double compute_adjustment(
      const std::vector<double>& diffs) const override;
};

}  // namespace wlsync::baselines
