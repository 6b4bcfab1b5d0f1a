#pragma once
// Byzantine adversaries (assumption A2).
//
// Faulty processes are unconstrained: they may change state arbitrarily,
// take steps whenever they like (via real-time timers) and send anything to
// anyone — but their messages still traverse the network, so they cannot
// forge delivery delays (A3 binds the *channel*, not the sender).  The
// strategies here cover the failure shapes the paper's analysis must
// tolerate:
//
//   Silent     — sends nothing, ever (crashed from the start).  Exercises
//                the "missing entry falls to reduce()" path.
//   Spam       — floods everyone with junk messages at random times; since
//                the Section 4.2 algorithm records the arrival time of *any*
//                message, spam directly attacks the ARR array.
//   TwoFaced   — the classical splitter: each round it makes its broadcast
//                appear at the early extreme of the legal window to one half
//                of the recipients and at the late extreme to the other
//                half, dragging their averages apart.  This is the strategy
//                that breaks n = 3f configurations.
//
// A "liar with a skewed clock" needs no adversary code at all: register an
// honest process as faulty with an absurd initial CORR (see
// analysis/experiment.h).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "proc/process.h"
#include "util/rng.h"

namespace wlsync::proc {

class SilentAdversary final : public Process {
 public:
  void on_start(Context&) override {}
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

/// Sends `burst` junk messages to random recipients every ~`period` real
/// seconds, with random values; wakes itself with real-time timers.
class SpamAdversary final : public Process {
 public:
  struct Config {
    double period = 0.05;   ///< mean real time between bursts
    std::int32_t burst = 4; ///< messages per burst
    std::int32_t tag = 0;   ///< tag to stamp on junk (algorithms record any)
    double value_span = 1e6;///< junk values drawn from [-span, span]
    std::uint64_t seed = 7;
  };

  explicit SpamAdversary(Config config) : config_(config), rng_(config.seed) {}

  void on_start(Context& ctx) override;
  void on_timer(Context& ctx, std::int32_t tag) override;
  void on_message(Context&, const sim::Message&) override {}

 private:
  void schedule_next(AdversaryContext& ctx);
  Config config_;
  util::Rng rng_;
};

/// The splitter.  Rounds are periodic (labels advance by P, begins advance
/// by ~P of real time), so the adversary *predicts* the next round from the
/// first arrival of the current one and times its sends to land *inside*
/// the honest arrival span at each victim: recipients with id < pivot see
/// the adversary near the early edge (arrival ~ tmin + early_frac*beta),
/// the rest near the late edge.  In-span arrivals survive reduce() (Lemma 6
/// only clips values outside the nonfaulty range) and pull the two groups'
/// averages in opposite directions — the worst case Lemma 9 bounds, and the
/// attack that separates n = 3f+1 from n = 3f.
///
/// Two victim-selection modes:
///   * id ranges (the historical full-mesh layout): ids < pivot get the
///     early face, ids in [pivot, honest_end) the late face;
///   * explicit target lists (`early_targets` / `late_targets`), the
///     neighbor-scoped mode for sparse exchange graphs — a positional
///     adversary lies only to its actual neighborhood instead of assuming
///     full-mesh visibility.  With `per_target_spread` each victim gets its
///     OWN arrival instant interpolated across the in-span window (the
///     inferred clock value differs per neighbor), not one global
///     early/late pair.
/// With targets empty and per_target_spread off, the send schedule is
/// byte-identical to the historical pivot-mode adversary
/// (tests/placement_test.cpp pins an equivalent-list configuration to it).
///
/// A whole-group face (an id range or a target list) goes out as ONE
/// AdversaryContext::multicast, observably identical to a send() per
/// victim; per_target_spread faces are single sends.  Either way the
/// deliveries wait in the engine's delivery ring (net/fanout.h), not in
/// the scheduler.
class TwoFacedAdversary final : public Process {
 public:
  struct Config {
    std::int32_t pivot = 0;      ///< ids < pivot get the early face
    std::int32_t honest_end = 0; ///< ids in [pivot, honest_end) get the late
                                 ///< face (avoid confusing fellow adversaries)
    /// Neighbor-scoped mode: when either list is non-empty the id ranges
    /// above are ignored and faces go to exactly these ids (in list order).
    std::vector<std::int32_t> early_targets;
    std::vector<std::int32_t> late_targets;
    /// Per-neighbor faces: victim k of the concatenated early+late lists
    /// fires at tmin + frac_k * beta with frac_k interpolated linearly from
    /// early_frac to late_frac — every neighbor sees a different forged
    /// clock, the strongest per-neighborhood split.
    bool per_target_spread = false;
    std::int32_t tag = 0;        ///< tag honest processes broadcast with
    double P = 1.0;              ///< round period (local ~ real time)
    double delta = 0.0;          ///< median network delay
    double beta = 0.0;           ///< honest round-begin spread bound
    double early_frac = 0.1;     ///< target arrival at tmin + frac*beta
    double late_frac = 0.9;
    /// Omniscient first strike: if first_tmin >= 0, round `first_label` is
    /// attacked directly at the known schedule (the adversary knows T0 and
    /// the A4 wake-up window), so even round 0 sees the worst case.
    double first_tmin = -1.0;
    double first_label = 0.0;
  };

  explicit TwoFacedAdversary(Config config) : config_(std::move(config)) {}

  void on_start(Context& ctx) override;
  void on_timer(Context& ctx, std::int32_t tag) override;
  void on_message(Context& ctx, const sim::Message& m) override;

  /// Adaptive re-targeting (scenario/adversary_env.h): move the two faces
  /// within the legal in-span window.  Takes effect at the NEXT
  /// schedule_attack — faces already in pending_ keep their committed fire
  /// times, so a retune between rounds deterministically shapes the next
  /// strike and nothing else.  Values are clamped to [0, 1]: the adversary
  /// cannot leave the in-span window (an out-of-span arrival is clipped by
  /// reduce() and wasted — see the class comment).
  void retune(double early_frac, double late_frac);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct Face {
    double at;     ///< real time the face fires
    double value;  ///< label to forge
    bool early;    ///< early face (group A) or late face (group B)
    /// Per-target face: send to exactly this id (per_target_spread mode);
    /// -1 = the whole face group.
    std::int32_t victim = -1;
  };

  [[nodiscard]] bool scoped() const noexcept {
    return !config_.early_targets.empty() || !config_.late_targets.empty();
  }

  void schedule_attack(AdversaryContext& ctx, double tmin, double value);
  /// Files a face in pending_ after every face due no later.
  void add_face(const Face& face);
  void fire_due_faces(Context& ctx);
  /// The victims of a whole-group face among the `n` registered ids: the
  /// scoped list, or the pivot range.
  [[nodiscard]] std::span<const std::int32_t> face_group(bool early,
                                                         std::int32_t n);

  Config config_;
  std::vector<std::int32_t> ids_;       ///< 0..n-1, the pivot ranges' ids
  double last_value_ = -1e300;          ///< largest label already handled
  /// Committed faces by fire time, equal times in the order they were
  /// scheduled.  A flat vector that keeps its capacity: a steady-state
  /// round files and fires its faces without allocating.
  std::vector<Face> pending_;
};

}  // namespace wlsync::proc
