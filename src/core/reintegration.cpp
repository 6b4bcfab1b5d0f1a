#include "core/reintegration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wlsync::core {

namespace {
constexpr std::int32_t kCloseTimer = 21;
}

ReintegrationProcess::ReintegrationProcess(WelchLynchConfig config)
    : config_(config), wl_(config) {}

bool ReintegrationProcess::matches(double value, double label) const {
  // Round labels are exchanged as exact doubles, but tolerate rounding from
  // independently accumulated T := T + P chains.
  return std::abs(value - label) <=
         1e-9 * std::max(1.0, std::abs(label)) + 1e-12;
}

void ReintegrationProcess::on_start(proc::Context& ctx) {
  if (joined_) return wl_.on_start(ctx);
  if (phase_ == Phase::kDormant) {
    // Wake-up: the neighbour view p reintegrates against.  Until a
    // collection begins ARR holds the label each neighbour sent last; an
    // unheard slot holds NaN, which equals no label, so only senders count.
    phase_ = Phase::kOrienting;
    arr_.bind(ctx.neighbors(), ctx.process_count(),
              std::numeric_limits<double>::quiet_NaN());
    f_local_ = local_fault_budget(arr_.size(), ctx.process_count(),
                                  config_.params.f);
  }
}

void ReintegrationProcess::begin_collection(double target) {
  phase_ = Phase::kCollecting;
  target_ = target;
  arr_.fill(kNeverArrived);
  target_senders_.reset(arr_.size());
  window_armed_ = false;
}

void ReintegrationProcess::on_message(proc::Context& ctx, const sim::Message& m) {
  if (joined_) return wl_.on_message(ctx, m);
  if (m.tag != kTimeTag || phase_ == Phase::kDormant) return;
  // Only neighbours count: a sender without a slot (an adversary's
  // point-to-point send) is dropped like a non-neighbour's arrival.
  const std::int32_t slot = arr_.slot_of(m.from);
  if (slot < 0) return;

  if (phase_ == Phase::kOrienting) {
    arr_.set_slot(static_cast<std::size_t>(slot), m.value);
    const std::vector<double>& labels = arr_.values();
    if (std::count(labels.begin(), labels.end(), m.value) >= f_local_ + 1) {
      // Round m.value is genuine (>= 1 nonfaulty sender) and may be only
      // partially observed; target the next one.
      begin_collection(m.value + config_.params.P);
    }
    return;
  }

  if (matches(m.value, target_)) {
    arr_.set_slot(static_cast<std::size_t>(slot), ctx.local_time());
    target_senders_.insert(slot);
    if (!window_armed_ && target_senders_.count() >= f_local_ + 1) {
      // At least one nonfaulty broadcast has arrived; the rest arrive within
      // beta + 2 eps real time.  Close on our own physical clock.
      const Params& p = config_.params;
      const double span = (1.0 + p.rho) * (p.beta + 2.0 * p.eps) + 1e-9;
      ctx.set_timer_physical(ctx.physical_time() + span, kCloseTimer);
      window_armed_ = true;
    }
  }
}

void ReintegrationProcess::on_timer(proc::Context& ctx, std::int32_t tag) {
  if (joined_) return wl_.on_timer(ctx, tag);
  if (tag == kCloseTimer && phase_ == Phase::kCollecting) close_window(ctx);
}

void ReintegrationProcess::close_window(proc::Context& ctx) {
  const Params& p = config_.params;
  if (target_senders_.count() <
      static_cast<std::int32_t>(arr_.size()) - f_local_) {
    // Too few senders heard (heavy loss): re-target the next round.
    begin_collection(target_ + p.P);
    return;
  }
  const double av = arr_.midpoint_reduced(static_cast<std::size_t>(f_local_));
  const double adj = target_ + p.delta - av;
  ctx.add_corr(adj);
  joined_ = true;
  const double next_label = target_ + p.P;
  const auto next_round =
      static_cast<std::int32_t>(std::llround((next_label - p.T0) / p.P));
  ctx.annotate({proc::Annotation::Type::kJoined, next_round, next_label, adj});
  wl_.resume(ctx, next_label, next_round);
}

// ----------------------------------------------------------------- churn ---

ChurnProcess::ChurnProcess(WelchLynchConfig config,
                           std::vector<Downtime> downtimes)
    : config_(config), wl_(config), down_(std::move(downtimes)) {
  for (std::size_t i = 0; i < down_.size(); ++i) {
    if (down_[i].rejoin < down_[i].leave) {
      throw std::invalid_argument("ChurnProcess: rejoin precedes leave");
    }
    if (i > 0 && down_[i].leave < down_[i - 1].rejoin) {
      throw std::invalid_argument(
          "ChurnProcess: downtime intervals must be sorted and disjoint");
    }
  }
}

proc::Process* ChurnProcess::active(proc::Context& ctx) {
  const double now = proc::AdversaryContext::from(ctx).real_time();
  // k = number of leaves at or before now.
  std::size_t k = 0;
  while (k < down_.size() && down_[k].leave <= now) ++k;
  if (k == 0) return &wl_;
  if (now < down_[k - 1].rejoin) return nullptr;
  if (rejoin_segment_ != k) {
    // First event at or past this segment's rejoin instant: start a fresh
    // Section 9.1 procedure.  The previous one (if any) is discarded with
    // all its state — its pending timers route here and die as stale.
    rejoin_ = std::make_unique<ReintegrationProcess>(config_);
    rejoin_segment_ = k;
  }
  return rejoin_.get();
}

void ChurnProcess::on_start(proc::Context& ctx) {
  if (proc::Process* p = active(ctx)) p->on_start(ctx);
}

void ChurnProcess::on_timer(proc::Context& ctx, std::int32_t tag) {
  if (proc::Process* p = active(ctx)) p->on_timer(ctx, tag);
}

void ChurnProcess::on_message(proc::Context& ctx, const sim::Message& m) {
  if (proc::Process* p = active(ctx)) p->on_message(ctx, m);
}

}  // namespace wlsync::core
