#pragma once
// Adaptive-adversary loop: a gym-style step interface over a maintenance
// experiment.
//
// The static harness fixes the Byzantine strategy before the run; this
// layer closes the loop.  An AdversaryEnv owns one live experiment and
// exposes it one round (or a few) at a time: after each step the policy
// observes the honest round-boundary skew (from the streaming observer's
// round stream — no post-hoc scan, the run is still in flight) and
// re-tunes the two-faced adversaries' face positions for the NEXT strike
// (proc::TwoFacedAdversary::retune).  Everything stays deterministic: the
// simulator's event order is untouched, a retune only changes the real
// times the next round's forged faces fire at, and the same (spec, action
// sequence) always reproduces the same run bit for bit.
//
// run_greedy_adversary is the baseline policy the README measures: pick
// the structurally worst static placement (the positional placement
// policies of proc/placement.h evaluated by a full static run each), then
// hill-climb the face fractions inside one adaptive episode, keeping a
// perturbation exactly when the observed per-round skew worsened.  It is
// intentionally simple — the point of the env is that *any* policy can be
// plugged into step(); the greedy one demonstrates the loop beats the best
// static configuration it started from.

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/observe.h"
#include "proc/placement.h"

namespace wlsync::scenario {

/// What the policy controls: the in-span positions of the two forged
/// faces.  Applied to every two-faced adversary before the next round's
/// strike is scheduled; fractions are clamped to [0, 1] (the legal in-span
/// window — out-of-span arrivals are clipped by reduce() and wasted).
struct AdversaryAction {
  double early_frac = 0.08;
  double late_frac = 0.92;
};

/// What the policy sees after a step: the latest round whose boundary skew
/// has been measured, that skew, and a short-window mean for smoothing.
struct AdversaryObservation {
  std::int32_t round = -1;       ///< latest measured round (-1: none yet)
  double round_skew = 0.0;       ///< honest skew at that round's last begin
  double mean_recent_skew = 0.0; ///< mean over the last <= 4 measured rounds
  bool done = false;             ///< the episode reached its round budget
};

class AdversaryEnv {
 public:
  struct Config {
    /// The scenario under attack.  Must have at least one kTwoFaced
    /// fault; the env drives the reference event engine directly
    /// (the fast path batches whole rounds and never yields mid-episode).
    analysis::RunSpec spec;
    /// Rounds to run before the first step() (lets the system settle so
    /// early observations measure the attack, not the A4 wake-up).
    std::int32_t warmup_rounds = 2;
    /// Rounds advanced per step() — the policy's reaction period.
    std::int32_t rounds_per_step = 1;
  };

  explicit AdversaryEnv(Config config);
  ~AdversaryEnv();

  AdversaryEnv(const AdversaryEnv&) = delete;
  AdversaryEnv& operator=(const AdversaryEnv&) = delete;

  /// (Re)builds the experiment, attaches the streaming observer before any
  /// event fires, runs the warmup rounds, and returns the first
  /// observation.  Callable again after finish() for a fresh episode.
  AdversaryObservation reset();

  /// Applies `action` to every two-faced adversary, advances
  /// rounds_per_step rounds, and returns the new observation.
  AdversaryObservation step(const AdversaryAction& action);

  /// Runs the episode to its horizon and returns the steady-state max
  /// honest skew (the same quantity RunResult::gamma_measured reports for
  /// a static run).  The env is inert afterwards until reset().
  double finish();

  /// Steps taken since the last reset.
  [[nodiscard]] std::int32_t steps() const noexcept { return steps_; }

 private:
  [[nodiscard]] AdversaryObservation observe_now();
  /// Advances until `count` more rounds have their boundary skew measured
  /// (or the horizon is reached).
  void advance_rounds(std::int32_t count);
  void apply(const AdversaryAction& action);

  Config config_;
  std::unique_ptr<analysis::Experiment> exp_;
  std::unique_ptr<analysis::StreamingObserver> observer_;
  double horizon_ = 0.0;
  std::int32_t steps_ = 0;
  bool live_ = false;
};

/// Result of the greedy baseline below.
struct GreedyResult {
  /// The placement policy whose static run hurt the honest processes most,
  /// and the ids it put the adversaries at.
  proc::PlacementKind best_placement = proc::PlacementKind::kTrailing;
  std::vector<std::int32_t> placement_ids;
  /// Steady-state max honest skew of the best STATIC configuration (that
  /// placement, default face fractions, no mid-run adaptation).
  double static_skew = 0.0;
  /// Steady-state max honest skew of the adaptive episode on the same
  /// placement — the number the env exists to push above static_skew.
  double adaptive_skew = 0.0;
  /// The face fractions the hill-climb settled on.
  AdversaryAction best_action;
  std::int32_t env_steps = 0;
};

/// The greedy baseline policy: evaluate the positional placements
/// (trailing, articulation, bridge, max-degree, antipodal — trailing
/// included because the id-range layout is often the strongest on
/// clustered graphs) with full static runs, take the worst-for-honest
/// one, then hill-climb (early_frac, late_frac)
/// inside one adaptive episode — a deterministic perturbation cycle
/// (+d, -d on each axis in turn), keeping a move exactly when the observed
/// round-skew window mean increased.  Deterministic end to end: same
/// `base` spec, same result.
[[nodiscard]] GreedyResult run_greedy_adversary(const analysis::RunSpec& base);

}  // namespace wlsync::scenario
