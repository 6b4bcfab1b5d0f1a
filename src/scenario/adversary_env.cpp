#include "scenario/adversary_env.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "net/topology.h"
#include "proc/adversaries.h"

namespace wlsync::scenario {

namespace {

/// Resolved Byzantine roster size of a spec (mirrors Experiment::build).
std::int32_t resolved_fault_count(const analysis::RunSpec& spec) {
  if (!spec.fault_mix.empty()) {
    std::int32_t total = 0;
    for (const auto& entry : spec.fault_mix) total += entry.count;
    return total;
  }
  return spec.fault != analysis::FaultKind::kNone ? spec.fault_count : 0;
}

bool has_twofaced(const analysis::RunSpec& spec) {
  if (!spec.fault_mix.empty()) {
    for (const auto& entry : spec.fault_mix) {
      if (entry.kind == analysis::FaultKind::kTwoFaced && entry.count > 0) {
        return true;
      }
    }
    return false;
  }
  return spec.fault == analysis::FaultKind::kTwoFaced && spec.fault_count > 0;
}

/// Index of the latest round whose boundary skew has flushed (round r
/// flushes when the first begin of round r+1 arrives); -1 when none has.
std::int32_t last_measured_round(const std::vector<double>& skews) {
  for (auto r = static_cast<std::int32_t>(skews.size()) - 1; r >= 0; --r) {
    if (!std::isnan(skews[static_cast<std::size_t>(r)])) return r;
  }
  return -1;
}

}  // namespace

AdversaryEnv::AdversaryEnv(Config config) : config_(std::move(config)) {
  if (!has_twofaced(config_.spec)) {
    throw std::invalid_argument(
        "AdversaryEnv: the spec has no two-faced adversary to re-tune");
  }
  if (config_.warmup_rounds < 0 || config_.rounds_per_step < 1) {
    throw std::invalid_argument(
        "AdversaryEnv: need warmup_rounds >= 0 and rounds_per_step >= 1");
  }
}

AdversaryEnv::~AdversaryEnv() {
  // The observer dies with this object; a simulator that is torn down
  // afterwards must not hold the stale pointer.
  if (live_ && exp_) exp_->simulator().set_observer(nullptr);
}

AdversaryObservation AdversaryEnv::reset() {
  if (live_ && exp_) exp_->simulator().set_observer(nullptr);
  exp_ = std::make_unique<analysis::Experiment>(config_.spec);
  // Attach before any event fires: the round stream must see round 0.
  observer_ = std::make_unique<analysis::StreamingObserver>(
      exp_->simulator(), exp_->make_observe_spec());
  exp_->simulator().set_observer(observer_.get());
  horizon_ = exp_->horizon();
  steps_ = 0;
  live_ = true;
  advance_rounds(config_.warmup_rounds);
  return observe_now();
}

void AdversaryEnv::apply(const AdversaryAction& action) {
  sim::Simulator& sim = exp_->simulator();
  for (std::int32_t id = 0; id < sim.process_count(); ++id) {
    if (!sim.is_faulty(id)) continue;
    if (auto* adv = dynamic_cast<proc::TwoFacedAdversary*>(&sim.process(id))) {
      adv->retune(action.early_frac, action.late_frac);
    }
  }
}

void AdversaryEnv::advance_rounds(std::int32_t count) {
  sim::Simulator& sim = exp_->simulator();
  const double P = config_.spec.params.P;
  const std::int32_t target = last_measured_round(observer_->round_skews()) +
                              count;
  // P-sized chunks: enough progress per run_until to be cheap,
  // fine-grained enough to stop on the target round promptly.
  while (last_measured_round(observer_->round_skews()) < target &&
         sim.current_time() < horizon_) {
    sim.run_until(std::min(sim.current_time() + P, horizon_));
  }
}

AdversaryObservation AdversaryEnv::observe_now() {
  const std::vector<double>& skews = observer_->round_skews();
  AdversaryObservation obs;
  obs.round = last_measured_round(skews);
  if (obs.round >= 0) {
    obs.round_skew = skews[static_cast<std::size_t>(obs.round)];
    double sum = 0.0;
    std::int32_t counted = 0;
    for (std::int32_t r = obs.round; r >= 0 && counted < 4; --r) {
      const double s = skews[static_cast<std::size_t>(r)];
      if (std::isnan(s)) continue;
      sum += s;
      ++counted;
    }
    obs.mean_recent_skew = counted > 0 ? sum / counted : 0.0;
  }
  obs.done = obs.round >= config_.spec.rounds - 1 ||
             exp_->simulator().current_time() >= horizon_;
  return obs;
}

AdversaryObservation AdversaryEnv::step(const AdversaryAction& action) {
  if (!live_) {
    throw std::logic_error("AdversaryEnv::step: call reset() first");
  }
  apply(action);
  advance_rounds(config_.rounds_per_step);
  ++steps_;
  return observe_now();
}

double AdversaryEnv::finish() {
  if (!live_) {
    throw std::logic_error("AdversaryEnv::finish: call reset() first");
  }
  sim::Simulator& sim = exp_->simulator();
  sim.run_until(horizon_);
  const analysis::StreamingSummary streamed =
      observer_->finalize(sim.current_time());
  sim.set_observer(nullptr);
  live_ = false;
  return streamed.skew.max_skew;
}

// ----------------------------------------------------- greedy baseline ---

GreedyResult run_greedy_adversary(const analysis::RunSpec& base) {
  GreedyResult out;
  const std::int32_t fault_count = resolved_fault_count(base);
  if (fault_count < 1) {
    throw std::invalid_argument(
        "run_greedy_adversary: the spec places no faults");
  }

  // Phase 1 — best static placement: evaluate each structural placement
  // policy with a full static run (default face fractions) and keep the
  // one that hurts the honest processes most.
  const net::Topology topo =
      net::build_topology(base.topology, base.params.n);
  const proc::PlacementKind kinds[] = {
      proc::PlacementKind::kTrailing, proc::PlacementKind::kArticulation,
      proc::PlacementKind::kBridge, proc::PlacementKind::kMaxDegree,
      proc::PlacementKind::kAntipodal};
  std::set<std::vector<std::int32_t>> seen;  // policies often coincide
  bool first = true;
  for (const proc::PlacementKind kind : kinds) {
    std::vector<std::int32_t> ids =
        proc::place_faults(topo, kind, fault_count, base.seed);
    std::vector<std::int32_t> key = ids;
    std::sort(key.begin(), key.end());
    if (!seen.insert(std::move(key)).second) continue;
    analysis::RunSpec spec = base;
    spec.placement_ids = ids;
    const analysis::RunResult r = analysis::run(spec);
    if (first || r.gamma_measured > out.static_skew) {
      first = false;
      out.static_skew = r.gamma_measured;
      out.best_placement = kind;
      out.placement_ids = std::move(ids);
    }
  }

  // Phase 2 — adaptive episode on that placement: deterministic hill-climb
  // on the face fractions, one perturbation per step, kept exactly when
  // the short-window round-skew mean worsened for the honest processes.
  AdversaryEnv::Config env_config;
  env_config.spec = base;
  env_config.spec.placement_ids = out.placement_ids;
  AdversaryEnv env(std::move(env_config));

  AdversaryAction current;  // the build()'s default fractions
  AdversaryObservation obs = env.reset();
  double best_window = obs.mean_recent_skew;
  constexpr double kStep = 0.08;
  constexpr double kCycle[4][2] = {
      {+kStep, 0.0}, {-kStep, 0.0}, {0.0, +kStep}, {0.0, -kStep}};
  std::size_t ci = 0;
  while (!obs.done) {
    AdversaryAction trial = current;
    trial.early_frac =
        std::clamp(trial.early_frac + kCycle[ci][0], 0.0, 1.0);
    trial.late_frac = std::clamp(trial.late_frac + kCycle[ci][1], 0.0, 1.0);
    ci = (ci + 1) % 4;
    obs = env.step(trial);
    if (obs.mean_recent_skew > best_window) {
      best_window = obs.mean_recent_skew;
      current = trial;
    }
  }
  out.best_action = current;
  out.env_steps = env.steps();
  out.adaptive_skew = env.finish();
  return out;
}

}  // namespace wlsync::scenario
