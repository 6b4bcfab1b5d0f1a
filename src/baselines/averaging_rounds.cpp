#include "baselines/averaging_rounds.h"

#include <cmath>

namespace wlsync::baselines {

namespace {
constexpr std::int32_t kBcastTimer = 1;
constexpr std::int32_t kUpdateTimer = 2;
}  // namespace

RoundExchangeProcess::RoundExchangeProcess(core::Params params)
    : params_(params), derived_(core::derive(params)) {
  label_ = params_.T0;
}

void RoundExchangeProcess::ensure_arena(const proc::Context& ctx) {
  if (!arena_.bound()) {
    arena_.bind(ctx.neighbors(), ctx.process_count(), core::kNeverArrived);
  }
}

const std::vector<double>& RoundExchangeProcess::round_values(
    const proc::Context& ctx) {
  // The arena already IS the neighbor view (on the full mesh, all n
  // processes in id order); force the own slot to 0.0 — our clock is 0
  // away from itself, whatever estimate a self-delivered broadcast wrote
  // there — and hand the adjustment rule the arena's storage directly.
  ensure_arena(ctx);
  const std::int32_t own = arena_.slot_of(ctx.id());
  if (own >= 0) arena_.set_slot(static_cast<std::size_t>(own), 0.0);
  return arena_.values();
}

void RoundExchangeProcess::reset_round(const proc::Context& ctx) {
  ensure_arena(ctx);
  arena_.fill(core::kNeverArrived);  // O(degree), not O(n)
}

void RoundExchangeProcess::begin_round(proc::Context& ctx) {
  ctx.annotate({proc::Annotation::Type::kRoundBegin, round_, label_, 0.0});
  ctx.broadcast(core::kTimeTag, label_, round_);
  ctx.set_timer(label_ + derived_.window, kUpdateTimer);
}

void RoundExchangeProcess::on_start(proc::Context& ctx) {
  if (started_) return;
  started_ = true;
  begin_round(ctx);
}

void RoundExchangeProcess::on_message(proc::Context& ctx, const sim::Message& m) {
  if (m.tag != core::kTimeTag) return;
  // Estimate of how far ahead q's clock is, assuming the delay was delta.
  const double estimate = m.value + params_.delta - ctx.local_time();
  if (!arena_.bound()) ensure_arena(ctx);
  arena_.record(m.from, estimate);
}

void RoundExchangeProcess::on_timer(proc::Context& ctx, std::int32_t tag) {
  switch (tag) {
    case kBcastTimer:
      begin_round(ctx);
      break;
    case kUpdateTimer: {
      const double adj = compute_adjustment(round_values(ctx));
      last_adj_ = adj;
      ctx.add_corr(adj);
      ctx.annotate({proc::Annotation::Type::kUpdate, round_, adj, 0.0});
      reset_round(ctx);
      ++round_;
      label_ += params_.P;
      ctx.set_timer(label_, kBcastTimer);
      break;
    }
    default:
      break;
  }
}

double InteractiveConvergenceProcess::compute_adjustment(
    const std::vector<double>& diffs) const {
  // CNV: replace values differing from our own (0) by more than delta_max
  // with 0, then average the whole neighbor view.
  double sum = 0.0;
  for (double v : diffs) {
    if (v == core::kNeverArrived || std::abs(v) > delta_max_) v = 0.0;
    sum += v;
  }
  return sum / static_cast<double>(diffs.size());
}

double MahaneySchneiderProcess::compute_adjustment(
    const std::vector<double>& diffs) const {
  // A value is acceptable if >= peers - f values (itself included) lie
  // within tau of it; unacceptable or missing values are replaced by our
  // own (0).  `peers` is the neighbor view — params().n on the full mesh.
  const auto n = diffs.size();
  // Guard sparse neighbor views smaller than f: never require fewer than
  // one supporter (the value itself).
  const auto f = static_cast<std::size_t>(params().f);
  const std::size_t needed = n > f ? n - f : 1;
  double sum = 0.0;
  for (std::size_t q = 0; q < n; ++q) {
    double v = diffs[q];
    if (v == core::kNeverArrived) {
      sum += 0.0;
      continue;
    }
    std::size_t close = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (diffs[r] != core::kNeverArrived && std::abs(diffs[r] - v) <= tau_) {
        ++close;
      }
    }
    if (close < needed) v = 0.0;
    sum += v;
  }
  return sum / static_cast<double>(n);
}

double PlainMeanProcess::compute_adjustment(
    const std::vector<double>& diffs) const {
  double sum = 0.0;
  for (double v : diffs) {
    if (v == core::kNeverArrived) v = 0.0;
    sum += v;  // no clipping: one liar can drag the mean anywhere
  }
  return sum / static_cast<double>(diffs.size());
}

}  // namespace wlsync::baselines
