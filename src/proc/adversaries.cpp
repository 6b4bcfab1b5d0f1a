#include "proc/adversaries.h"

#include <algorithm>

namespace wlsync::proc {

namespace {
constexpr std::int32_t kSpamTimerTag = 9001;
constexpr std::int32_t kFaceTimerTag = 9002;
}  // namespace

// ----------------------------------------------------------------- Spam ---

void SpamAdversary::schedule_next(AdversaryContext& ctx) {
  const double gap = config_.period * (0.5 + rng_.uniform());
  ctx.set_timer_real(ctx.real_time() + gap, kSpamTimerTag);
}

void SpamAdversary::on_start(Context& ctx) {
  schedule_next(AdversaryContext::from(ctx));
}

void SpamAdversary::on_timer(Context& ctx, std::int32_t tag) {
  if (tag != kSpamTimerTag) return;
  auto& actx = AdversaryContext::from(ctx);
  for (std::int32_t i = 0; i < config_.burst; ++i) {
    const auto to =
        static_cast<std::int32_t>(rng_.below(static_cast<std::uint64_t>(
            ctx.process_count())));
    const double value = rng_.uniform(-config_.value_span, config_.value_span);
    ctx.send(to, config_.tag, value, /*aux=*/0);
  }
  schedule_next(actx);
}

// ------------------------------------------------------------- TwoFaced ---

void TwoFacedAdversary::schedule_attack(AdversaryContext& ctx, double tmin,
                                        double value) {
  const double span = config_.beta;
  if (scoped() && config_.per_target_spread) {
    // One face per victim, arrival fractions interpolated across the
    // in-span window in concatenated early+late list order.
    const std::size_t total =
        config_.early_targets.size() + config_.late_targets.size();
    const double step =
        total > 1 ? (config_.late_frac - config_.early_frac) /
                        static_cast<double>(total - 1)
                  : 0.0;
    std::size_t k = 0;
    for (const std::vector<std::int32_t>* group :
         {&config_.early_targets, &config_.late_targets}) {
      for (std::int32_t to : *group) {
        const double frac = config_.early_frac + static_cast<double>(k) * step;
        const double t = tmin + frac * span;
        pending_.emplace(t, Face{value, /*early=*/true, to});
        ctx.set_timer_real(t, kFaceTimerTag);
        ++k;
      }
    }
    return;
  }
  const double t_early = tmin + config_.early_frac * span;
  const double t_late = tmin + config_.late_frac * span;
  pending_.emplace(t_early, Face{value, /*early=*/true, /*victim=*/-1});
  pending_.emplace(t_late, Face{value, /*early=*/false, /*victim=*/-1});
  ctx.set_timer_real(t_early, kFaceTimerTag);
  ctx.set_timer_real(t_late, kFaceTimerTag);
}

void TwoFacedAdversary::fire_due_faces(Context& ctx) {
  auto& actx = AdversaryContext::from(ctx);
  const double now = actx.real_time();
  while (!pending_.empty() && pending_.begin()->first <= now + 1e-12) {
    const Face face = pending_.begin()->second;
    pending_.erase(pending_.begin());
    if (face.victim >= 0) {
      ctx.send(face.victim, config_.tag, face.value, /*aux=*/0);
    } else if (scoped()) {
      const std::vector<std::int32_t>& group =
          face.early ? config_.early_targets : config_.late_targets;
      for (std::int32_t to : group) {
        ctx.send(to, config_.tag, face.value, /*aux=*/0);
      }
    } else if (face.early) {
      for (std::int32_t to = 0; to < config_.pivot && to < ctx.process_count();
           ++to) {
        ctx.send(to, config_.tag, face.value, /*aux=*/0);
      }
    } else {
      const std::int32_t end = std::min(config_.honest_end, ctx.process_count());
      for (std::int32_t to = config_.pivot; to < end; ++to) {
        ctx.send(to, config_.tag, face.value, /*aux=*/0);
      }
    }
  }
}

void TwoFacedAdversary::retune(double early_frac, double late_frac) {
  config_.early_frac = std::clamp(early_frac, 0.0, 1.0);
  config_.late_frac = std::clamp(late_frac, 0.0, 1.0);
}

void TwoFacedAdversary::on_start(Context& ctx) {
  if (config_.first_tmin >= 0.0) {
    // Strike the very first round off the known A4 schedule.
    schedule_attack(AdversaryContext::from(ctx), config_.first_tmin,
                    config_.first_label);
  }
}

void TwoFacedAdversary::on_message(Context& ctx, const sim::Message& m) {
  if (m.tag != config_.tag) return;
  if (m.value <= last_value_) return;  // label already handled
  last_value_ = m.value;
  // First arrival of round/exchange `m.value`: its sender is that
  // exchange's earliest broadcaster, so the *same* exchange of the next
  // round begins ~ now - delta + P (the schedule is P-periodic, which also
  // covers every sub-exchange of the Section 7 k-exchange variant).  Time
  // the two faces so that after the ~delta transit they land inside the
  // honest arrival span [tmin + delta - eps, tmin + beta + delta + eps].
  auto& actx = AdversaryContext::from(ctx);
  const double next_tmin = actx.real_time() - config_.delta + config_.P;
  schedule_attack(actx, next_tmin, m.value + config_.P);
}

void TwoFacedAdversary::on_timer(Context& ctx, std::int32_t tag) {
  if (tag == kFaceTimerTag) fire_due_faces(ctx);
}

}  // namespace wlsync::proc
