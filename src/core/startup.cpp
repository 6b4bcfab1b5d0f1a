#include "core/startup.h"

#include <cmath>
#include <utility>

namespace wlsync::core {

namespace {
constexpr std::int32_t kUTimer = 11;
constexpr std::int32_t kVTimer = 12;
}  // namespace

StartupProcess::StartupProcess(StartupConfig config) : config_(std::move(config)) {}

void StartupProcess::bind_view(const proc::Context& ctx) {
  if (diff_.bound()) return;
  diff_.bind(ctx.neighbors(), ctx.process_count(), kNeverArrived);
  rcvd_ready_.reset(diff_.size());
  next_ready_.reset(diff_.size());
  f_local_ = local_fault_budget(diff_.size(), ctx.process_count(),
                                config_.maintenance.params.f);
}

void StartupProcess::begin_round(proc::Context& ctx) {
  const Params& p = config_.maintenance.params;
  // begin-round macro of Section 9.2.
  t_ = ctx.local_time();
  ctx.annotate({proc::Annotation::Type::kRoundBegin, round_, t_, 0.0});
  ctx.broadcast(kTimeTag, t_, round_);
  u_ = t_ + (1.0 + p.rho) * (2.0 * p.delta + 4.0 * p.eps);
  ctx.set_timer(u_, kUTimer);
  v_ = -1.0;  // no A yet; a stale V timer matches nothing
  early_end_ = false;
}

void StartupProcess::on_start(proc::Context& ctx) {
  if (wl_) return wl_->on_start(ctx);
  bind_view(ctx);
  // receive(START) and ASLEEP.
  if (!asleep_) return;
  asleep_ = false;
  begin_round(ctx);
}

void StartupProcess::on_message(proc::Context& ctx, const sim::Message& m) {
  if (wl_) return wl_->on_message(ctx, m);
  bind_view(ctx);
  if (m.tag == kTimeTag) {
    // receive(T) from q.
    diff_.record(m.from,
                 m.value + config_.maintenance.params.delta - ctx.local_time());
    if (asleep_) {
      asleep_ = false;
      begin_round(ctx);
    }
  } else if (m.tag == kReadyTag) {
    on_ready(ctx, m.from, m.aux);
  }
}

void StartupProcess::on_timer(proc::Context& ctx, std::int32_t tag) {
  if (wl_) return wl_->on_timer(ctx, tag);
  const Params& p = config_.maintenance.params;
  // The Section 9.2 clusters are guarded by "local-time() = U" (resp. V):
  // a timer left over from a round that ended early fires at a stale value
  // and must match no cluster.  Timers fire exactly at their set logical
  // times here, so equality is an epsilon-comparison against the *current*
  // U/V.
  const double now = ctx.local_time();
  auto matches = [&](double target) {
    return target >= 0.0 && std::abs(now - target) <= 1e-9 * (1.0 + std::abs(target));
  };
  switch (tag) {
    case kUTimer: {
      if (!matches(u_)) break;
      a_ = diff_.midpoint_reduced(static_cast<std::size_t>(f_local_));
      v_ = u_ + (1.0 + p.rho) *
                    (4.0 * p.eps + 4.0 * p.rho * (p.delta + 2.0 * p.eps) +
                     2.0 * p.rho * p.rho * (p.delta + 4.0 * p.eps));
      ctx.set_timer(v_, kVTimer);
      check_ready(ctx);
      break;
    }
    case kVTimer:
      if (!matches(v_)) break;
      if (!early_end_) ctx.broadcast(kReadyTag, 0.0, round_);
      break;
    default:
      break;
  }
}

void StartupProcess::on_ready(proc::Context& ctx, std::int32_t from,
                              std::int32_t round) {
  // A READY from outside the neighbourhood (only an adversary's
  // point-to-point send can be one) has no slot and counts toward nothing.
  const std::int32_t slot = diff_.slot_of(from);
  if (slot < 0) return;
  // A READY counts toward the round it names.  A faster neighbour's READY
  // for the next round is kept for it: dropping it would strand this
  // process one round behind once the faster ones stop sending.
  if (round == round_ + 1) next_ready_.insert(slot);
  if (round == round_ && rcvd_ready_.insert(slot)) check_ready(ctx);
}

void StartupProcess::check_ready(proc::Context& ctx) {
  // READYs heard before U (carried over, or from faster neighbours) wait
  // for this round's A; U re-runs the check.
  if (v_ < 0.0) return;
  const std::int32_t count = rcvd_ready_.count();
  if (count >= f_local_ + 1 && ctx.local_time() < v_ && !early_end_) {
    // Second interval ended early: f_local+1 neighbours are already READY.
    ctx.broadcast(kReadyTag, 0.0, round_);
    early_end_ = true;
  }
  if (count < static_cast<std::int32_t>(diff_.size()) - f_local_) return;
  // Apply the adjustment computed at U and begin the next round.
  double* diff = diff_.slot_data();
  for (std::size_t s = 0; s < diff_.size(); ++s) {
    if (diff[s] != kNeverArrived) diff[s] -= a_;
  }
  ctx.add_corr(a_);
  ctx.annotate({proc::Annotation::Type::kUpdate, round_, a_, 0.0});
  ++round_;
  std::swap(rcvd_ready_, next_ready_);
  next_ready_.reset(diff_.size());
  if (config_.handoff_rounds > 0 && round_ >= config_.handoff_rounds) {
    handoff(ctx);
  } else {
    begin_round(ctx);
  }
}

void StartupProcess::handoff(proc::Context& ctx) {
  // Concretized [Lu1] switch: pick the first maintenance label at least half
  // a round ahead.  Post-startup spread (~4 eps) is far below P/2, so all
  // nonfaulty processes compute the same label.
  const Params& p = config_.maintenance.params;
  const double now = ctx.local_time();
  const double steps = std::ceil((now + 0.5 * p.P - p.T0) / p.P);
  const double label = p.T0 + steps * p.P;
  // Maintenance rounds are numbered on from round_, not by grid index:
  // the grid index restarts near 1 when T0 = 0, and its begins would
  // overwrite start-up rounds 1, 2, ... in the round trace.  WL reads its
  // round number only to annotate, so the physics are the same.
  wl_ = std::make_unique<WelchLynchProcess>(config_.maintenance);
  wl_->resume(ctx, label, round_);
  ctx.annotate({proc::Annotation::Type::kJoined, round_, label, 0.0});
}

}  // namespace wlsync::core
